"""File formats shared between the library and the command line.

Windows and supports travel as JSON; grids (spreading functions, Zak
transforms), sampled responses and Gabor matrices as CSV tables.  One writer
emits every table: an optional "# key=value" header line, the column names,
then one row per entry with its integer indices and the re/im pair of its
complex value at 17 significant digits, so every file round-trips to the exact
float it came from and re-running a command gives byte-identical output.  One
reader parses the grid tables.  Every loader parses under one rule: a file
that cannot be read into the expected object, or is too large to hold, raises
MalformedFile naming the file, never a parser's KeyError, ValueError, ... or a
MemoryError (OSError passes through).  Integer JSON fields (L, P, cell labels,
a window's seed) are read by one rule, _json_int: a nonnegative JSON integer,
never a float or bool truncated to one.
Reports are built in cli and written by save_json.  A file, as every grid, holds
at most L*P = MAX_LP (support._check_grid), checked before any array is built.
load_window builds G(c): an overflow is InvalidParameters, not MalformedFile.
"""

import json
from contextlib import contextmanager

import numpy as np

from .channel import DiscreteSpreadingFunction
from .errors import InvalidParameters, MalformedFile, OpSampleError
from .gabor import Window, _is_integer, build_gabor_matrix
from .support import CellSupport, _check_grid

#: one body row of a grid CSV, whose field names make the column names line
_GRID_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])


def _fmt(x):
    return f"{float(x):.17g}"


@contextmanager
def _malformed(path, kind):
    """Parse under one rule: malformed content is a MalformedFile naming path once."""
    try:
        yield
    except (OpSampleError, KeyError, TypeError, ValueError, AttributeError, IndexError,
            OverflowError, MemoryError) as exc:
        raise MalformedFile(f"malformed {kind} file {path}: {exc}") from exc


def _json_int(value, name, nullable=False):
    """An integer field of a JSON file (L, P, a cell label, a seed): a nonnegative
    JSON integer, not a bool, float or string; null only where nullable."""
    if not (nullable and value is None or _is_integer(value) and value >= 0):
        raise InvalidParameters(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def _json_float(value, name):
    """A real JSON field (T, a shift entry, a weight's re or im): an int or float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameters(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _write_table(path, header, names, index, values):
    """CSV table: optional header line, column names, one index..., re, im row per value."""
    row = ",".join(["%d"] * len(index) + ["%.17g", "%.17g"]) + "\r\n"
    columns = [k.tolist() for k in (*index, values.real, values.imag)]
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\n" if header else "")
        fh.write(",".join(names) + "\r\n")
        fh.writelines(row % r for r in zip(*columns))


def save_window(window, path):
    """Window JSON: { "L", "weights": [[re, im], ...], "seed" }."""
    payload = {
        "L": int(window.L),
        "weights": [[w.real, w.imag] for w in window.weights],
        "seed": None if window.seed is None else int(window.seed),
    }
    save_json(payload, path)


def load_window(path):
    """Window JSON, returned with its G(c) built (gabor.build_gabor_matrix)."""
    with open(path) as fh, _malformed(path, "window"):
        payload = json.load(fh)
        weights = np.array([complex(_json_float(re, "a weight"), _json_float(im, "a weight"))
                            for re, im in payload["weights"]])
        seed = _json_int(payload.get("seed"), "seed", nullable=True)
        window = Window(L=_json_int(payload["L"], "L"), weights=weights, seed=seed)
    return build_gabor_matrix(window)


def export_gabor_matrix(G, path):
    """G(c) CSV of a Window: rows p,q,m,re,im ordered by p, then column q + m*L."""
    p, m, q = np.indices((G.L, G.L, G.L)).reshape(3, -1)
    _write_table(path, None, ["p", "q", "m", "re", "im"], (p, q, m), G.entries[p, q * G.L + m])


def _mask_rle(mask):
    """Run lengths of the flattened mask, alternating and starting with zeros."""
    flat = mask.ravel().astype(int)
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], edges, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs = [0] + runs
    return ",".join(str(r) for r in runs)


def _mask_from_rle(rle, shape):
    runs = [int(r) for r in rle.split(",")] if rle else []
    if min(runs, default=0) < 0 or sum(runs) != np.prod(shape):
        raise InvalidParameters("mask run lengths do not cover the grid")
    return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)


def _require_file_mask(S):
    """Support and grid files hold the (L*P, L*P) mask their loaders rebuild."""
    LP = S.L * S.P
    if S.mask.shape != (LP, LP):
        raise InvalidParameters(f"files hold a ({LP}, {LP}) mask, got {S.mask.shape}")


def save_support(S, path):
    """Support JSON: T, L, P, cells, optional fine_mask_rle, shift."""
    _require_file_mask(S)
    payload = {
        "T": S.T,
        "L": int(S.L),
        "P": int(S.P),
        "cells": [[int(q), int(m)] for q, m in S.cells],
        "shift": [S.shift[0], S.shift[1]],
    }
    full = CellSupport(T=S.T, L=S.L, P=S.P, cells=S.cells, shift=S.shift)
    if not np.array_equal(S.mask, full.mask):
        payload["fine_mask_rle"] = _mask_rle(S.mask)
    save_json(payload, path)


def load_support(path):
    """Support JSON; with a fine mask, the cells must be its folded footprint."""
    with open(path) as fh, _malformed(path, "support"):
        payload = json.load(fh)
        T = _json_float(payload["T"], "T")
        L, P = _json_int(payload["L"], "L"), _json_int(payload["P"], "P")
        _check_grid(T, L, P)
        shift = tuple(_json_float(x, "shift") for x in payload.get("shift", (0.0, 0.0)))
        cells = tuple((_json_int(q, "label"), _json_int(m, "label")) for q, m in payload["cells"])
        rle = payload.get("fine_mask_rle")
        mask = None if rle is None else _mask_from_rle(rle, (L * P, L * P))
        return CellSupport(T=T, L=L, P=P, cells=cells, mask=mask, shift=shift)


def _read_grid_csv(fh, zak):
    """Header (T, L, P, shift) and checked rows (i, j, values) of a grid CSV.

    Indices lie in the (L*P) x P Zak cell, which a zak file must fill, or else
    in the (L*P) x (L*P) domain.  Rejects a bad header or column names line,
    short or non-numeric rows, non-integer or out-of-range indices, repeated
    (i, j) and non-finite values.
    """
    header = fh.readline().strip()
    if not header.startswith("#"):
        raise InvalidParameters("missing grid header line")
    fields = dict(item.split("=", 1) for item in header[1:].split())
    T, L, P = float(fields["T"]), int(fields["L"]), int(fields["P"])
    shift = (float(fields.get("t0", 0.0)), float(fields.get("nu0", 0.0)))
    _check_grid(T, L, P)
    if fh.readline().strip() != ",".join(_GRID_ROW.names):
        raise InvalidParameters(f"the line after the header must be {','.join(_GRID_ROW.names)}")
    body = fh.readlines()
    rows = np.zeros(0, _GRID_ROW)
    if any(map(str.strip, body)):  # loadtxt warns on a body without rows
        rows = np.loadtxt(body, dtype=_GRID_ROW, delimiter=",", comments=None, ndmin=1)
    if zak and rows.size != L * P * P:
        raise InvalidParameters(f"{rows.size} rows, expected L*P*P = {L * P * P}")
    n_i, n_j = L * P, P if zak else L * P
    i, j = rows["i"], rows["j"]
    if np.any((i < 0) | (i >= n_i) | (j < 0) | (j >= n_j)):
        raise InvalidParameters(f"grid index outside [0, {n_i}) x [0, {n_j})")
    flat = np.sort(i * n_j + j)  # np.unique would import numpy.ma, ~20 ms per process
    if np.any(flat[1:] == flat[:-1]):
        raise InvalidParameters("repeated grid index")
    if not (np.all(np.isfinite(rows["re"])) and np.all(np.isfinite(rows["im"]))):
        raise InvalidParameters("non-finite grid value")
    values = np.empty(i.size, dtype=complex)
    values.real, values.imag = rows["re"], rows["im"]
    return T, L, P, shift, (i, j, values)


def save_spreading(eta, path):
    """Spreading CSV: one i,j,re,im row per mask point (base-domain indices)."""
    S = eta.support
    _require_file_mask(S)
    header = (
        f"# T={_fmt(S.T)} L={S.L} P={S.P} t0={_fmt(S.shift[0])} nu0={_fmt(S.shift[1])}"
    )
    i, j = S.subcells[:2]
    _write_table(path, header, _GRID_ROW.names, (i, j), eta.values[i, j])


def load_spreading(path):
    with open(path) as fh, _malformed(path, "grid"):
        T, L, P, shift, (i, j, z) = _read_grid_csv(fh, zak=False)
        mask = np.zeros((L * P, L * P), dtype=bool)
        values = np.zeros(mask.shape, dtype=complex)
        mask[i, j] = True
        values[i, j] = z
        S = CellSupport(T=T, L=L, P=P, mask=mask, shift=shift)
        return DiscreteSpreadingFunction(support=S, values=values)


def save_zak(Z, T, L, P, path):
    """Zak grid CSV: dense i,j,re,im over the (L*P) x P fundamental cell."""
    _check_grid(T, L, P)
    i, j = np.divmod(np.arange(L * P * P), P)
    _write_table(path, f"# T={_fmt(T)} L={L} P={P}", _GRID_ROW.names, (i, j), Z[i, j])


def load_zak(path):
    """Zak grid and (T, L, P); the file must hold each of the L*P*P points once."""
    with open(path) as fh, _malformed(path, "grid"):
        T, L, P, _, (i, j, z) = _read_grid_csv(fh, zak=True)
        Z = np.zeros((L * P, P), dtype=complex)
        Z[i, j] = z
        return Z, T, L, P


def save_response(resp, path):
    """Response CSV: i,re,im with the sample step in the header."""
    header = f"# x_step={_fmt(resp.x_step)} T={_fmt(resp.T)} L={resp.L} P={resp.P}"
    i = np.arange(resp.samples.size)
    _write_table(path, header, ["i", "re", "im"], (i,), resp.samples)


def save_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
