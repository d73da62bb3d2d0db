"""Spreading-support geometry: cells, identifiability, rectification.

A support lives on the rectangle [0, LT) x [0, 1/T) split into L x L cells of
size T x Omega (Omega = 1/(LT)), each refined into P x P subcells of size
(T/P) x (Omega/P).  A CellSupport stores a boolean subcell mask together with
integer grid offsets, so supports may be shifted off the canonical rectangle
or spill past it (overflow rows/columns represent lattice translates).  It is
a frozen value with a read-only mask, and every module reads the fold of its
stored subcells from one table computed once per support (CellSupport.subcells).

Identifiability of OPW^2(S) by a period-L weighted delta train is equivalent
to two fold conditions on the grid:

  (1) the (LT, 1/T)-periodization of S covers nothing twice, and
  (2) the (T, Omega)-periodization covers every base point at most L times.

rectify() partitions the base rectangle [0, T) x [0, Omega) into classes of
subcells sharing the same folded occupancy pattern; each class yields the cell
set Gamma_j of the restricted linear system the reconstruction module solves.
It depends on S alone: rectify builds a frozen report once and keeps it on S
(gabor._plan, the one memo helper, which reconstruct and rates use too).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameters, NotIdentifiable
from .gabor import _integer, _multiple, _plan, _real

#: largest L*P of every grid (an (L*P)^2 mask), file or not: _check_grid's one bound
MAX_LP = 4096

__all__ = [
    "CellSupport",
    "PartitionClass",
    "RectificationReport",
    "periodization_count",
    "check_identifiable",
    "rectify",
    "bandwidth",
]


def _check_grid(T, L, P):
    """T as a float and L, P as ints, refused unless T is a finite real > 0, L, P integers >= 1
    and L*P <= MAX_LP (gabor._real, _integer): every grid's one bound, checked before any array."""
    T, L, P = float(_real(T, "T", positive=True)), _integer(L, "L", 1), _integer(P, "P", 1)
    if L * P > MAX_LP:
        raise InvalidParameters(f"L*P = {L * P} exceeds the grid limit MAX_LP = {MAX_LP}")
    return T, L, P


@dataclass(frozen=True, eq=False)
class CellSupport:
    """A spreading support at cell/subcell granularity.

    T: cell width in seconds, kept as a float; L: period; P: subcell refinement, both
    kept as ints (_check_grid); grid steps are dt = T/P, dnu = Omega/P.  cells: active
    cells (q, m) of the folded footprint.  mask: boolean subcell grid, default
    (L*P, L*P); larger grids mark lattice translates.  shift: grid-aligned origin
    (t0, nu0) of the mask's [0, 0] subcell relative to the canonical rectangle;
    offsets: its integer subcell offsets (i0, j0), each below 2^53 (gabor._multiple).

    Built from cells alone, the mask fills each labelled cell, and after
    construction cells holds the folded footprint as sorted, distinct pairs of
    Python ints.  With a zero shift the fold is the identity, so the declared
    labels (integers, or bools read as 0 and 1) are that footprint, taken as ints;
    a nonzero shift or an explicit mask re-folds the mask.  Frozen: the mask
    is a private read-only copy of the one given, and nothing can be rebound.
    _plans keeps what S alone, or S and a scalar, determines (gabor._plan): no Window.
    """

    T: float
    L: int
    P: int = 8
    cells: tuple = None
    mask: np.ndarray = None
    shift: tuple = (0.0, 0.0)
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name, value in zip("TLP", _check_grid(self.T, self.L, self.P)):
            object.__setattr__(self, name, value)  # frozen: the float and ints checked, set here
        for name, x in (("Omega = 1/(L*T)", self.omega), ("T/P", self.dt), ("Omega/P", self.dnu)):
            _real(x, name, positive=True)  # T near 0 or inf
        t0, nu0 = self.shift
        offsets = (_multiple(t0, self.dt, "shift t0"), _multiple(nu0, self.dnu, "shift nu0"))
        object.__setattr__(self, "offsets", offsets)  # frozen: set here
        LP = self.L * self.P
        declared = None if self.cells is None else tuple(sorted({tuple(  # bool labels read 0, 1
            int(x) if isinstance(x, (bool, np.bool_)) else _integer(x, "a cell label")
            for x in cell) for cell in self.cells}))
        given = self.mask is not None
        if given:
            mask = np.array(self.mask, dtype=bool)  # a private copy: the caller's array may change
            if mask.ndim != 2:
                raise InvalidParameters("mask must be a 2-d boolean grid")
        elif declared is None:
            raise InvalidParameters("need cells or a mask")
        else:
            mask = np.zeros((LP, LP), dtype=bool)
            for q, m in declared:
                if not (0 <= q < self.L and 0 <= m < self.L):
                    raise InvalidParameters(f"cell ({q},{m}) outside [0,{self.L})^2")
                mask[q * self.P : (q + 1) * self.P, m * self.P : (m + 1) * self.P] = True
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        if given or self.offsets != (0, 0):  # a shift may move the labels of a cell mask
            occupied = self.fold_counts().reshape(self.L, self.P, self.L, self.P).any(axis=(1, 3))
            cells = tuple((int(q), int(m)) for q, m in np.argwhere(occupied))
            if given and declared is not None and declared != cells:
                raise InvalidParameters("declared cells do not match the mask's folded footprint")
        else:  # the fold is the identity: the labels are the cells
            cells = declared
        object.__setattr__(self, "cells", cells)

    # -- derived geometry -------------------------------------------------

    @property
    def omega(self):
        return 1.0 / (self.T * self.L)

    @property
    def dt(self):
        return self.T / self.P

    @property
    def dnu(self):
        return self.omega / self.P

    @functools.cached_property
    def area(self):
        """|S| in time-frequency area (each subcell has area 1/(L*P^2))."""
        return float(self.mask.sum()) / (self.L * self.P**2)

    @functools.cached_property
    def subcells(self):
        """The stored subcells and their fold onto the (L*P, L*P) fundamental domain: one
        read-only table (rows, cols, k, i, j), computed once.  Subcell n is mask[rows[n],
        cols[n]], in np.nonzero's order; mask row r folds onto row i[r] after k[r] time
        translates by L*T, column c onto column j[c]."""
        LP = self.L * self.P
        n_rows, n_cols = self.mask.shape
        rows, cols = np.divmod(np.flatnonzero(self.mask), n_cols)  # faster than np.nonzero
        k, i = np.divmod(self.offsets[0] + np.arange(n_rows), LP)
        table = (rows, cols, k, i, (self.offsets[1] + np.arange(n_cols)) % LP)
        for a in table:
            a.flags.writeable = False
        return table

    def fold_counts(self):
        """Fold the mask onto (L*P, L*P) by the subcells table, counting multiplicity
        (a read-only uint8 view of the mask if the fold is the identity)."""
        LP = self.L * self.P
        if self.offsets == (0, 0) and self.mask.shape == (LP, LP):
            return self.mask.view(np.uint8)  # the fold is the identity: no copy
        rows, cols, _, i, j = self.subcells
        return np.bincount((i * LP)[rows] + j[cols], minlength=LP * LP).reshape(LP, LP)


@dataclass(frozen=True, eq=False)
class PartitionClass:
    """One class A_j of base subcells sharing the folded occupancy pattern Gamma_j: frozen,
    with points made read-only in place and index their flat indices u*P + v, set once."""

    cells: tuple  # Gamma_j, row-major (q, then m)
    points: np.ndarray  # boolean (P, P) membership grid over the base rectangle

    def __post_init__(self):
        index = np.flatnonzero(self.points)
        self.points.flags.writeable = index.flags.writeable = False  # rectify's own arrays
        object.__setattr__(self, "index", index)  # frozen: set once, here


@dataclass(frozen=True, eq=False)
class RectificationReport:
    gamma: tuple  # union of active cells
    classes: tuple  # PartitionClass entries, ascending row-major occupancy patterns (see rectify)
    max_cover: int  # essential supremum of the periodization count
    whole_cells: bool = False  # set by rectify's whole-cell branch alone: solved by cell blocks


def periodization_count(S):
    """Integer (P, P) grid: how many (kT, l*Omega)-translates of S cover each
    base-rectangle subcell, summed from the (L*P, L*P) fold (int64)."""
    return _folds(S)[1]


def _folds(S):
    """One (L*P)^2 fold of S: its counts, their (P, P) periodization count (int64),
    and whether both fold conditions hold."""
    L, P = S.L, S.P
    counts = S.fold_counts()
    cover = counts.reshape(L, P, L, P).sum(axis=(0, 2), dtype=np.int64)
    return counts, cover, bool(counts.max(initial=0) <= 1 and cover.max() <= L)


def check_identifiable(S):
    """Conditions for identification by a period-L train: fundamental-domain
    fold plus at most an L-cover of the base rectangle."""
    return _folds(S)[2]


def rectify(S):
    """Partition the base rectangle by folded occupancy pattern.

    Each base subcell (u, v) is occupied by the cells (q, m) whose folded copy
    of S covers (u + qP, v + mP); subcells sharing a pattern form one class.
    Classes come in ascending lexicographic order of their occupancy patterns,
    read as bit tuples over the cells in row-major order (q, then m), with
    False before True.  Requires check_identifiable(S).  The report is built once and
    kept on S (_plan): later calls return it, frozen; a refusal is not kept.

    A union of at most L whole cells (zero offsets, an (L*P, L*P) mask whose
    P x P blocks are each constant) is one class, read off the mask without a
    fold: every base point sees the occupied cells, max_cover = their number.
    Its report alone sets whole_cells, by which reconstruct._solve reads eta off cell blocks.
    """
    return _plan(S, "rectify", _rectify, S)


def _rectify(S):
    """rectify's report of S, built afresh."""
    L, P = S.L, S.P
    if S.offsets == (0, 0) and S.mask.shape == (L * P, L * P) and len(S.cells) <= L:
        corners = S.mask[::P, ::P]  # with constant blocks, S.cells are the True corners
        if (S.mask.reshape(L, P, L, P) == corners[:, None, :, None]).all():
            one = PartitionClass(cells=S.cells, points=np.ones((P, P), dtype=bool))
            return RectificationReport(S.cells, (one,), len(S.cells), whole_cells=True)
    counts, cover, identifiable = _folds(S)
    if not identifiable:
        raise NotIdentifiable(
            "support violates the fold conditions (fundamental domain / L-cover)"
        )
    # flat[u*P + v, q*L + m] = folded[u + q*P, v + m*P]
    flat = (counts > 0).reshape(L, P, L, P).transpose(1, 3, 0, 2).reshape(P * P, L * L)
    # big-endian packing: byte order is bit order, so sorting the keys sorts the patterns
    packed = np.packbits(flat, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    classes = []
    for idx, row in enumerate(first):
        cells = tuple(divmod(b, L) for b in np.flatnonzero(flat[row]).tolist())
        points = (inverse == idx).reshape(P, P)
        classes.append(PartitionClass(cells=cells, points=points))
    return RectificationReport(gamma=S.cells, classes=tuple(classes), max_cover=int(cover.max()))


def bandwidth(S):
    """B(S): maximum over t of the nu-measure of the support's t-slice."""
    return float(S.mask.sum(axis=1).max(initial=0)) * S.dnu
