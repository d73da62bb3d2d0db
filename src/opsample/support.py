"""Spreading-support geometry: cells, identifiability, rectification.

A support lives on the rectangle [0, LT) x [0, 1/T) split into L x L cells of
size T x Omega (Omega = 1/(LT)), each refined into P x P subcells of size
(T/P) x (Omega/P).  A CellSupport stores a boolean subcell mask together with
integer grid offsets, so supports may be shifted off the canonical rectangle
or spill past it (overflow rows/columns represent lattice translates).

Identifiability of OPW^2(S) by a period-L weighted delta train is equivalent
to two fold conditions on the grid:

  (1) the (LT, 1/T)-periodization of S covers nothing twice, and
  (2) the (T, Omega)-periodization covers every base point at most L times.

rectify() partitions the base rectangle [0, T) x [0, Omega) into classes of
subcells sharing the same folded occupancy pattern; each class yields the cell
set Gamma_j of the restricted linear system the reconstruction module solves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotIdentifiable
from .gabor import _is_integer

#: largest L*P of a support or grid file (an (L*P)^2 mask) and of a bunched plan's grid
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


def _mask_indices(mask):
    """np.nonzero of a 2-d mask from one flat pass: the same (rows, cols), and
    several times faster than np.nonzero on masks of a few thousand points."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _fold_index(S):
    """The fold of S's mask onto the (L*P, L*P) fundamental domain, one table
    per axis: row r folds onto row i[r] after k[r] time translates by L*T,
    column c onto column j[c]; a stored subcell reads no divmod of its own."""
    LP = S.L * S.P
    rows, cols = S.mask.shape
    k, i = np.divmod(S.offsets[0] + np.arange(rows), LP)
    return k, i, (S.offsets[1] + np.arange(cols)) % LP


@dataclass(eq=False)
class CellSupport:
    """A spreading support at cell/subcell granularity.

    T: cell width in seconds; L: period; P: subcell refinement (grid steps are
    dt = T/P, dnu = Omega/P).  cells: active cells (q, m) of the folded
    footprint.  mask: boolean subcell grid, default (L*P, L*P); larger grids
    mark lattice translates.  shift: grid-aligned origin (t0, nu0) of the
    mask's [0, 0] subcell relative to the canonical rectangle.

    Built from cells alone, the mask fills each labelled cell, and after
    construction cells holds the folded footprint as sorted, distinct pairs of
    Python ints.  With a zero shift the fold is the identity, so the declared
    labels are that footprint and are taken as they are (converted to int);
    a nonzero shift or an explicit mask re-folds the mask.
    """

    T: float
    L: int
    P: int = 8
    cells: tuple = None
    mask: np.ndarray = None
    shift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0 and _is_integer(self.L) and self.L >= 1
                and _is_integer(self.P) and self.P >= 1):
            raise InvalidParameters("need finite T > 0, integer L >= 1 and integer P >= 1")
        if not all(0 < x < np.inf for x in (self.omega, self.dt, self.dnu)):  # T near 0 or inf
            raise InvalidParameters("Omega = 1/(L*T), T/P and Omega/P must be finite and positive")
        t0, nu0 = self.shift
        i0 = t0 / self.dt
        j0 = nu0 / self.dnu
        if not all(np.isfinite(x) and abs(x - round(x)) <= 1e-9 for x in (i0, j0)):
            raise InvalidParameters(
                "shift must be finite and grid-aligned (integer multiples of T/P and Omega/P)"
            )
        self._offsets = (int(round(i0)), int(round(j0)))

        LP = self.L * self.P
        declared = None if self.cells is None else tuple(sorted(set(map(tuple, self.cells))))
        if self.mask is None:
            if declared is None:
                raise InvalidParameters("need cells or a mask")
            self.mask = np.zeros((LP, LP), dtype=bool)
            for q, m in declared:
                if not (0 <= q < self.L and 0 <= m < self.L):
                    raise InvalidParameters(f"cell ({q},{m}) outside [0,{self.L})^2")
                self.mask[q * self.P : (q + 1) * self.P, m * self.P : (m + 1) * self.P] = True
            if self._offsets == (0, 0):  # the fold is the identity: the labels are the cells
                self.cells = tuple((int(q), int(m)) for q, m in declared)
                return
            declared = None  # labels of the unshifted mask; the shift may move them
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.ndim != 2:
                raise InvalidParameters("mask must be a 2-d boolean grid")
        self.cells = self._folded_cells()
        if declared is not None and declared != self.cells:
            raise InvalidParameters("declared cells do not match the mask's folded footprint")

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

    @property
    def offsets(self):
        """Integer subcell offsets (i0, j0) of mask[0, 0]."""
        return self._offsets

    @property
    def area(self):
        """|S| in time-frequency area (each subcell has area 1/(L*P^2))."""
        return float(self.mask.sum()) / (self.L * self.P**2)

    def _folded_cells(self):
        L, P = self.L, self.P
        occupied = self.folded_mask().reshape(L, P, L, P).any(axis=(1, 3))
        return tuple((int(q), int(m)) for q, m in np.argwhere(occupied))

    def fold_counts(self):
        """Fold the mask onto (L*P, L*P) by _fold_index's per-axis tables, counting
        multiplicity (a read-only uint8 view of the mask if the fold is the identity)."""
        LP = self.L * self.P
        if self._offsets == (0, 0) and self.mask.shape == (LP, LP):
            counts = self.mask.view(np.uint8)  # the fold is the identity: no copy
            counts.flags.writeable = False
            return counts
        _, i, j = _fold_index(self)
        rows, cols = _mask_indices(self.mask)
        return np.bincount((i * LP)[rows] + j[cols], minlength=LP * LP).reshape(LP, LP)

    def folded_mask(self):
        """Boolean (L*P, L*P) footprint of the (LT, 1/T)-fold."""
        return self.fold_counts() > 0


@dataclass(eq=False)
class PartitionClass:
    """One class A_j of base subcells sharing the folded occupancy pattern Gamma_j."""

    cells: tuple  # Gamma_j, row-major (q, then m)
    points: np.ndarray  # boolean (P, P) membership grid over the base rectangle


@dataclass(eq=False)
class RectificationReport:
    gamma: tuple  # union of active cells
    classes: list  # PartitionClass entries, ascending row-major occupancy patterns (see rectify)
    max_cover: int  # essential supremum of the periodization count


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
    False before True.  Requires check_identifiable(S).

    A union of at most L whole cells (zero offsets, an (L*P, L*P) mask whose
    P x P blocks are each constant) is one class, read off the mask without a
    fold: every base point sees the occupied cells, max_cover = their number.
    """
    L, P = S.L, S.P
    if S.offsets == (0, 0) and S.mask.shape == (L * P, L * P):
        corners = S.mask[::P, ::P]
        cells = tuple(divmod(b, L) for b in np.flatnonzero(corners).tolist())
        if len(cells) <= L and (S.mask.reshape(L, P, L, P) == corners[:, None, :, None]).all():
            one = PartitionClass(cells=cells, points=np.ones((P, P), dtype=bool))
            return RectificationReport(gamma=S.cells, classes=[one], max_cover=len(cells))
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
    return RectificationReport(gamma=S.cells, classes=classes, max_cover=int(cover.max()))


def bandwidth(S):
    """B(S): maximum over t of the nu-measure of the support's t-slice."""
    if not S.mask.any():
        return 0.0
    return float(S.mask.sum(axis=1).max()) * S.dnu
