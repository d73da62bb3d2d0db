"""Sampling-rate diagnostics for delta-train identifiers.

A regular identifier g = sum_n c_n delta_{nT} with period-L weights has
sampling rate D = ||c||_0 / (TL).  Identification of operators with spreading
support S requires D >= B(S), the largest nu-extent of a t-slice of S
(necessary direction).  Conversely, a support of small area admits bunched
identifiers when its cell-column hull h (the nu-shares its T-wide cell
columns occupy, summed; h >= |S|) is below |S|(1+eps) < 1: one can refine
the cell grid to a prime modulus L', cover S by |Gamma'| cells of height
1/(TL') with |Gamma'|/L' < |S|(1+eps), and probe with a window supported on
its first |Gamma'| indices.  The weight train is then silent for most of
each period LT, and the dead time 1 - (T*||c||_0 + K)/(LT) (K = channel
memory) is available to carry data through the same channel.  The search for
L' runs once per (S, eps): S keeps the refined support it found (gabor._plan).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameters, NoPrimeInRange
from .channel import IdentifierTrain
from .gabor import MAX_DRAWS, MAX_L, _any_dependent, _draw_window, _integer, _plan, _real, is_prime
from .support import MAX_LP, CellSupport, _check_grid, bandwidth, rectify

__all__ = ["RateReport", "rate_report", "refine_support", "bunched_window_plan"]


@dataclass
class RateReport:
    """Rate diagnostics for one (identifier, support) pair.

    rate: D = ||c||_0/(TL); bandwidth: B(S); necessary_ok: rate >= B(S) up to
    one subcell of grid slack; area: |S| at grid scale; sufficient_margin:
    |S|(1+eps) - ||c||_0/L, or None when no eps was supplied;
    dead_time_fraction: 1 - (T*||c||_0 + K)/(LT) with K the memory read
    from the support (can be negative when the response fills the period).
    """

    rate: float
    bandwidth: float
    necessary_ok: bool
    area: float
    sufficient_margin: float | None
    dead_time_fraction: float


def _memory(S):
    """K: right edge of the t-support, so every eta(., nu) lives in [0, K]."""
    rows = S.subcells[0]  # ascending: the last stored row is the right edge
    return float((S.offsets[0] + rows[-1] + 1) * S.dt) if rows.size else 0.0


def rate_report(g, S, eps=None):
    """Assemble the full RateReport for an identifier/support pair."""
    if eps is not None:
        _real(eps, "eps")
    count, rate, B, area = g.weights.support_size(), g.rate, bandwidth(S), S.area
    margin = None if eps is None else area * (1.0 + eps) - count / g.L
    return RateReport(
        rate=rate,
        bandwidth=B,
        necessary_ok=rate >= B - S.dnu,
        area=area,
        sufficient_margin=margin,
        dead_time_fraction=1.0 - (g.T * count + _memory(S)) / (g.L * g.T),
    )


def refine_support(S, L_new):
    """Re-express S on the grid with integer modulus L_new >= S.L and the same T.

    The new system keeps the cell width T but shrinks the cell height to
    Omega' = 1/(T*L_new); with P' = S.L*P subcells the old pixel boundaries
    all land on new grid lines, so the region (and its area) is carried over
    exactly.  The support then sits inside the first S.L cell columns of the
    larger fundamental domain, where no periodization folds can collide.  Its
    mask is (L_new*P', L_new*P'), or as large as S's refined one if that is larger.
    L_new*P' > MAX_LP is refused before any array is built (support._check_grid).
    """
    if _integer(L_new, "the refined modulus", S.L) == S.L:
        return S
    N, P = S.L, S.P
    P_new = N * P
    _check_grid(S.T, L_new, P_new)
    # old pixel (i, j) covers the same region as the N x L_new block of new
    # pixels starting at (i*N, j*L_new); the nu-span of both grids is 1/T.
    block = np.kron(S.mask, np.ones((N, L_new), dtype=bool))
    mask = np.zeros(np.maximum(block.shape, L_new * P_new), dtype=bool)
    mask[: block.shape[0], : block.shape[1]] = block
    return CellSupport(T=S.T, L=L_new, P=P_new, mask=mask, shift=S.shift)


def bunched_window_plan(S, eps, seed=None):
    """Identifier design for a small support: weights bunched at the period start.

    Searches the primes L' >= S.L for the smallest modulus whose T x 1/(TL')
    cell cover Gamma' of S satisfies |Gamma'|/L' < |S|(1+eps) within the grid
    budget L' <= MAX_L, L'*S.L*S.P <= MAX_LP (else NoPrimeInRange), then draws
    weights supported on the first |Gamma'| indices until no rectification
    class of the refined support has a dependent column block (the rank rule
    of recovery, gabor._dependent).  Returns the window and a RateReport with
    the emitted plan's margin and dead-time fraction.  S's occupied t-rows must
    lie within L*P rows of each other (InvalidParameters).  The search runs once per
    (S, eps), kept on S unless refused; a later plan only draws, with a fresh S's bits.
    """
    _real(eps, "eps", positive=True)
    refined = _plan(S, ("bunched", eps), _bunched_search, S, eps)
    report = rectify(refined)  # kept on refined from its first call
    L_new, k = refined.L, len(report.gamma)
    class_columns = [[q * L_new + m for q, m in cls.cells] for cls in report.classes if cls.cells]

    def well_conditioned(window):  # each class block is one row of its own table
        return not any(_any_dependent(window.entries[:, cols], np.arange(len(cols))[None])
                       for cols in class_columns)

    window = _draw_window(
        L_new, k, seed, well_conditioned,
        f"no bunched window with well-conditioned class blocks in "
        f"{MAX_DRAWS} draws (L={L_new}, ||c||_0={k})",
    )
    return window, rate_report(IdentifierTrain(T=S.T, weights=window), S, eps)


def _bunched_search(S, eps):
    """bunched_window_plan's (S, eps)-only work: checks, hull, primes; returns S refined."""
    area = S.area
    if area <= 0:
        raise InvalidParameters("cannot plan for an empty support")
    rows, cols, _, i, j = S.subcells
    if rows[-1] - rows[0] >= S.L * S.P:  # the count below needs this
        raise InvalidParameters(f"a bunched plan needs the occupied t-rows within L*P = "
                                f"{S.L * S.P} rows, got {rows[-1] - rows[0] + 1}")
    target = area * (1.0 + eps)
    if target >= 1.0:
        raise InvalidParameters(
            f"|S|(1+eps) = {target:.6g} must be strictly below 1"
        )

    # Cell column q (t-rows folded as rectify folds them) meets n_q nu-subcells: every cover
    # has |Gamma'|/L' >= h = sum n_q/(L*P), and |Gamma'| <= h*L' + 2*(nu-runs) meets the
    # target for all L' > 2*runs/(target - h), which hold a prime: only the budget ends it.
    columns = np.zeros((S.L, S.L * S.P), dtype=bool)
    columns[i[rows] // S.P, j[cols]] = True
    hull = columns.sum() / (S.L * S.P)
    if hull >= target:
        raise NoPrimeInRange(f"every cell cover has |Gamma'|/L' >= the cell-column hull "
                             f"{hull:.6g}, not below |S|(1+eps) = {target:.6g}")
    budget = max(S.L, min(MAX_L, MAX_LP // (S.L * S.P)))  # the largest L' whose grid fits
    # With the t's within L*T (checked above), S refined to any L' >= L folds a point twice
    # only where S's own fold does, and covers a base point at most |Gamma'| < L' times: one
    # check on S decides every prime, so only the prime returned is refined.
    t_cells = (S.offsets[0] + rows) // S.P  # floor(t/T) of each stored subcell: at most L+1 columns
    nu = j[cols]  # its nu-subcell, one of L*P per 1/T
    primes = filter(is_prime, range(S.L, budget + 1)) if S.fold_counts().max() <= 1 else ()
    for L_new in primes:
        if _cover(t_cells, nu, S.L * S.P, L_new) / L_new < target:
            refined = refine_support(S, L_new)
            return refined if refined is not S else replace(S)  # no plan refers back to S
    raise NoPrimeInRange(
        f"no prime modulus in [{S.L}, {budget}] brings the cell cover below |S|(1+eps) = "
        f"{target:.6g} within the grid budget L' <= {MAX_L}, L'*L*P <= {MAX_LP}"
    )


def _cover(t_cells, nu, LP, L_new):
    """|Gamma'| at modulus L_new: the distinct cells of height 1/(T*L_new) that the subcells
    (t_cells[n], nu[n]) meet, cell column t_cells mod L_new.  Subcell nu spans the cells
    nu*L_new // LP .. ceil((nu+1)*L_new/LP) - 1: one run per subcell, counted by a cumsum."""
    runs = np.zeros((L_new, L_new + 1), dtype=np.int64)
    np.add.at(runs, (t_cells % L_new, nu * L_new // LP), 1)
    np.add.at(runs, (t_cells % L_new, -(-(nu + 1) * L_new // LP)), -1)
    return int(np.count_nonzero(np.cumsum(runs, axis=1)[:, :L_new]))
