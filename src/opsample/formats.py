"""File formats shared between the library and the command line.

Windows and supports travel as JSON, grids (spreading functions, Zak
transforms) and sampled responses as CSV.  Complex entries are written as
re/im pairs with 17 significant digits so that every file round-trips to the
exact float it came from, and all writers are deterministic: re-running a
command produces byte-identical output.
"""

import csv
import json

import numpy as np

from .channel import DiscreteSpreadingFunction
from .errors import InvalidParameters
from .gabor import Window
from .support import CellSupport


def _fmt(x):
    return f"{float(x):.17g}"


def save_window(window, path):
    """Window JSON: { "L", "weights": [[re, im], ...], "seed" }."""
    payload = {
        "L": int(window.L),
        "weights": [[w.real, w.imag] for w in window.weights],
        "seed": None if window.seed is None else int(window.seed),
    }
    save_json(payload, path)


def load_window(path):
    with open(path) as fh:
        payload = json.load(fh)
    try:
        weights = np.array([complex(re, im) for re, im in payload["weights"]])
        return Window(L=int(payload["L"]), weights=weights, seed=payload.get("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"malformed window file {path}: {exc}") from exc


def export_gabor_matrix(G, path):
    """GaborMatrix CSV: rows p,q,m,re,im ordered by p, then column q + m*L."""
    L = G.L
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q", "m", "re", "im"])
        for p in range(L):
            for m in range(L):
                for q in range(L):
                    z = G.entries[p, q * L + m]
                    writer.writerow([p, q, m, _fmt(z.real), _fmt(z.imag)])


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
    flat = np.zeros(int(np.prod(shape)), dtype=bool)
    pos, bit = 0, 0
    for run in runs:
        if bit:
            flat[pos : pos + run] = True
        pos += run
        bit ^= 1
    if pos != flat.size:
        raise InvalidParameters("mask run lengths do not cover the grid")
    return flat.reshape(shape)


def save_support(S, path):
    """Support JSON: T, L, P, cells, optional fine_mask_rle, shift."""
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
    with open(path) as fh:
        payload = json.load(fh)
    try:
        T = float(payload["T"])
        L = int(payload["L"])
        P = int(payload["P"])
        shift = tuple(float(x) for x in payload.get("shift", (0.0, 0.0)))
        cells = tuple((int(q), int(m)) for q, m in payload["cells"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameters(f"malformed support file {path}: {exc}") from exc
    rle = payload.get("fine_mask_rle")
    if rle is None:
        return CellSupport(T=T, L=L, P=P, cells=cells, shift=shift)
    mask = _mask_from_rle(rle, (L * P, L * P))
    S = CellSupport(T=T, L=L, P=P, mask=mask, shift=shift)
    if set(S.cells) != set(cells):
        raise InvalidParameters(f"support file {path}: cells do not match the fine mask")
    return S


def _write_grid_csv(values, rows, path, header):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "re", "im"])
        for i, j in rows:
            z = values[i, j]
            writer.writerow([i, j, _fmt(z.real), _fmt(z.imag)])


def _read_grid_csv(path):
    """Header values (T, L, P, shift) and (i, j, re, im) rows of a grid CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise InvalidParameters(f"{path}: missing grid header line")
        reader = csv.reader(fh)
        next(reader, None)  # column names
        try:
            fields = dict(item.split("=", 1) for item in header[1:].split())
            T, L, P = float(fields["T"]), int(fields["L"]), int(fields["P"])
            shift = (float(fields.get("t0", 0.0)), float(fields.get("nu0", 0.0)))
            entries = [(int(i), int(j), float(re), float(im)) for i, j, re, im in reader]
        except (KeyError, ValueError) as exc:
            raise InvalidParameters(f"malformed grid file {path}: {exc}") from exc
    if not (np.isfinite(T) and T > 0 and L >= 1 and P >= 1):
        raise InvalidParameters(f"{path}: grid header needs finite T > 0, L >= 1, P >= 1")
    return T, L, P, shift, entries


def _grid_entries(entries, shape, path):
    """Row and column indices and complex values of grid rows.

    Rejects indices outside shape, repeated (i, j) and non-finite values.
    """
    a = np.array(entries, dtype=float).reshape(-1, 4)
    i, j = a[:, 0], a[:, 1]
    if np.any((i < 0) | (i >= shape[0]) | (j < 0) | (j >= shape[1])):
        raise InvalidParameters(f"{path}: grid index outside [0, {shape[0]}) x [0, {shape[1]})")
    i, j = i.astype(int), j.astype(int)
    if np.unique(i * shape[1] + j).size != i.size:
        raise InvalidParameters(f"{path}: repeated grid index")
    if not np.all(np.isfinite(a[:, 2:])):
        raise InvalidParameters(f"{path}: non-finite grid value")
    values = np.empty(i.size, dtype=complex)
    values.real, values.imag = a[:, 2], a[:, 3]
    return i, j, values


def save_spreading(eta, path):
    """Spreading CSV: one i,j,re,im row per mask point (base-domain indices)."""
    S = eta.support
    header = (
        f"# T={_fmt(S.T)} L={S.L} P={S.P} t0={_fmt(S.shift[0])} nu0={_fmt(S.shift[1])}"
    )
    rows = np.argwhere(S.mask)
    _write_grid_csv(eta.values, rows, path, header)


def load_spreading(path):
    T, L, P, shift, entries = _read_grid_csv(path)
    shape = (L * P, L * P)
    i, j, z = _grid_entries(entries, shape, path)
    mask = np.zeros(shape, dtype=bool)
    values = np.zeros(shape, dtype=complex)
    mask[i, j] = True
    values[i, j] = z
    S = CellSupport(T=T, L=L, P=P, mask=mask, shift=shift)
    return DiscreteSpreadingFunction(support=S, values=values)


def save_zak(Z, T, L, P, path):
    """Zak grid CSV: dense i,j,re,im over the (L*P) x P fundamental cell."""
    header = f"# T={_fmt(T)} L={L} P={P}"
    rows = [(i, j) for i in range(L * P) for j in range(P)]
    _write_grid_csv(Z, rows, path, header)


def load_zak(path):
    """Zak grid and (T, L, P); the file must hold each of the L*P*P points once."""
    T, L, P, _, entries = _read_grid_csv(path)
    if len(entries) != L * P * P:
        raise InvalidParameters(f"{path}: {len(entries)} rows, expected L*P*P = {L * P * P}")
    i, j, z = _grid_entries(entries, (L * P, P), path)
    Z = np.zeros((L * P, P), dtype=complex)
    Z[i, j] = z
    return Z, T, L, P


def save_response(resp, path):
    """Response CSV: i,re,im with the sample step in the header."""
    header = f"# x_step={_fmt(resp.x_step)} T={_fmt(resp.T)} L={resp.L} P={resp.P}"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "re", "im"])
        for i, z in enumerate(resp.samples):
            writer.writerow([i, _fmt(z.real), _fmt(z.imag)])


def support_estimate_dict(est):
    """SupportEstimate JSON payload: gamma_hat, residuals, trial metadata."""
    return {
        "gamma_hat": [[int(q), int(m)] for q, m in est.gamma_hat],
        "residual_history": [float(r) for r in est.residual_history],
        "exact_match": est.exact_match,
        "seed": None if est.seed is None else int(est.seed),
        "k_max": int(est.k_max),
        "tol": float(est.tol),
    }


def reconstruction_report_dict(report):
    """ReconstructionReport JSON payload (the eta grid travels as CSV)."""
    payload = {
        "gamma": [[int(q), int(m)] for q, m in report.eta_hat.support.cells],
        "per_class_conditioning": [float(c) for c in report.per_class_conditioning],
        "relative_l2_error": (
            None if report.relative_l2_error is None else float(report.relative_l2_error)
        ),
        "formula": report.formula,
    }
    if report.support_estimate is not None:
        payload["support_estimate"] = support_estimate_dict(report.support_estimate)
    return payload


def rate_report_dict(report):
    return {
        "rate": float(report.rate),
        "bandwidth": float(report.bandwidth),
        "necessary_ok": bool(report.necessary_ok),
        "area": float(report.area),
        "sufficient_margin": (
            None if report.sufficient_margin is None else float(report.sufficient_margin)
        ),
        "dead_time_fraction": float(report.dead_time_fraction),
    }


def save_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
