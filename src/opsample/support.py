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

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidParameters, NotIdentifiable

__all__ = [
    "CellSupport",
    "PartitionClass",
    "RectificationReport",
    "check_fundamental_domain",
    "periodization_count",
    "check_identifiable",
    "rectify",
    "bandwidth",
    "jordan_rectification_bound",
    "union_supports",
]


@dataclass(eq=False)
class CellSupport:
    """A spreading support at cell/subcell granularity.

    T: cell width in seconds; L: period; P: subcell refinement (grid steps are
    dt = T/P, dnu = Omega/P).  cells: active cells (q, m) of the folded
    footprint.  mask: boolean subcell grid, default (L*P, L*P); larger grids
    mark lattice translates.  shift: grid-aligned origin (t0, nu0) of the
    mask's [0, 0] subcell relative to the canonical rectangle.
    """

    T: float
    L: int
    P: int = 8
    cells: tuple = None
    mask: np.ndarray = None
    shift: tuple = (0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0) or self.L < 1 or self.P < 1:
            raise InvalidParameters("need finite T > 0, L >= 1, P >= 1")
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

    def fold_counts(self, period_i, period_j):
        """Fold the stored mask by (period_i, period_j) subcells, counting multiplicity."""
        i0, j0 = self._offsets
        if (i0, j0) == (0, 0) and self.mask.shape == (period_i, period_j):
            return self.mask.astype(int)  # the fold is the identity
        rows, cols = np.nonzero(self.mask)
        flat = (i0 + rows) % period_i * period_j + (j0 + cols) % period_j
        return np.bincount(flat, minlength=period_i * period_j).reshape(period_i, period_j)

    def folded_mask(self):
        """Boolean (L*P, L*P) footprint of the (LT, 1/T)-fold."""
        LP = self.L * self.P
        return self.fold_counts(LP, LP) > 0


@dataclass(eq=False)
class PartitionClass:
    """One class A_j of base subcells sharing the folded occupancy pattern Gamma_j."""

    cells: tuple  # Gamma_j, row-major (q, then m)
    points: np.ndarray  # boolean (P, P) membership grid over the base rectangle

    @property
    def size(self):
        return int(self.points.sum())


@dataclass(eq=False)
class RectificationReport:
    gamma: tuple  # union of active cells
    classes: list  # PartitionClass entries, deterministic order
    max_cover: int  # essential supremum of the periodization count
    identifiable: bool


def check_fundamental_domain(S):
    """True iff the (LT, 1/T)-periodization of S covers nothing twice."""
    LP = S.L * S.P
    return bool(S.fold_counts(LP, LP).max(initial=0) <= 1)


def periodization_count(S):
    """Integer (P, P) grid: how many (kT, l*Omega)-translates of S cover each
    base-rectangle subcell."""
    return S.fold_counts(S.P, S.P)


def _folds(S):
    """One (L*P)^2 fold of S: its counts, their (P, P) periodization count, and
    whether both fold conditions hold."""
    L, P = S.L, S.P
    counts = S.fold_counts(L * P, L * P)
    cover = counts.reshape(L, P, L, P).sum(axis=(0, 2))
    return counts, cover, bool(counts.max(initial=0) <= 1 and cover.max() <= L)


def check_identifiable(S):
    """Conditions for identification by a period-L train: fundamental-domain
    fold plus at most an L-cover of the base rectangle."""
    return _folds(S)[2]


def rectify(S):
    """Partition the base rectangle by folded occupancy pattern.

    Each base subcell (u, v) is occupied by the cells (q, m) whose folded copy
    of S covers (u + qP, v + mP); subcells sharing a pattern form one class.
    Requires check_identifiable(S).
    """
    counts, cover, identifiable = _folds(S)
    if not identifiable:
        raise NotIdentifiable(
            "support violates the fold conditions (fundamental domain / L-cover)"
        )
    L, P = S.L, S.P
    # occ[u, v, q*L + m] = folded[u + q*P, v + m*P]
    occ = (counts > 0).reshape(L, P, L, P).transpose(1, 3, 0, 2).reshape(P, P, L * L)
    flat = occ.reshape(P * P, L * L)
    patterns, inverse = np.unique(flat, axis=0, return_inverse=True)
    classes = []
    for idx in range(patterns.shape[0]):
        bits = np.nonzero(patterns[idx])[0]
        cells = tuple((int(b) // L, int(b) % L) for b in bits)
        points = (inverse == idx).reshape(P, P)
        classes.append(PartitionClass(cells=cells, points=points))
    return RectificationReport(
        gamma=S.cells,
        classes=classes,
        max_cover=int(cover.max()),
        identifiable=True,
    )


def bandwidth(S):
    """B(S): maximum over t of the nu-measure of the support's t-slice."""
    if not S.mask.any():
        return 0.0
    return float(S.mask.sum(axis=1).max()) * S.dnu


def jordan_rectification_bound(A, B, U, N, eps, sigma=1.0):
    """Least L with max(A, B) <= (L-1)/2 and 4(U/sqrt(L) + N/L) <= eps.

    For supports inside [-A, A] x [-B, B] bounded by N Jordan curves of total
    length U and interior area below sigma - eps, every such L admits a
    (sqrt(L), L)-rectification of the recentred support with |Gamma| <= sigma*L.
    """
    if min(A, B, U, eps) <= 0 or N < 1 or int(N) != N:
        raise InvalidParameters("need A, B, U, eps > 0 and integer N >= 1")
    if not 0 < sigma <= 1:
        raise InvalidParameters("need 0 < sigma <= 1")
    L = 1
    while not (max(A, B) <= (L - 1) / 2 and 4 * (U / np.sqrt(L) + N / L) <= eps):
        L += 1
    return L


def union_supports(S1, S2):
    """Union of two supports sharing a discretization (T, L, P)."""
    if (S1.T, S1.L, S1.P) != (S2.T, S2.L, S2.P):
        raise GridMismatch("supports must share T, L, P")
    i1, j1 = S1.offsets
    i2, j2 = S2.offsets
    i0, j0 = min(i1, i2), min(j1, j2)
    rows = max(i1 + S1.mask.shape[0], i2 + S2.mask.shape[0]) - i0
    cols = max(j1 + S1.mask.shape[1], j2 + S2.mask.shape[1]) - j0
    mask = np.zeros((rows, cols), dtype=bool)
    mask[i1 - i0 : i1 - i0 + S1.mask.shape[0], j1 - j0 : j1 - j0 + S1.mask.shape[1]] |= S1.mask
    mask[i2 - i0 : i2 - i0 + S2.mask.shape[0], j2 - j0 : j2 - j0 + S2.mask.shape[1]] |= S2.mask
    return CellSupport(
        T=S1.T,
        L=S1.L,
        P=S1.P,
        mask=mask,
        shift=(i0 * S1.dt, j0 * S1.dnu),
    )
