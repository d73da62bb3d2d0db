"""Sampling-rate diagnostics for delta-train identifiers.

A regular identifier g = sum_n c_n delta_{nT} with period-L weights has
sampling rate D = ||c||_0 / (TL).  Identification of operators with spreading
support S requires D >= B(S), the largest nu-extent of a t-slice of S
(necessary direction).  Conversely, a support of small area admits bunched
identifiers: if |S|(1+eps) < 1 one can refine the cell grid to a prime
modulus L', cover S by |Gamma'| cells of height 1/(TL') with
|Gamma'|/L' < |S|(1+eps), and probe with a window supported on its first
|Gamma'| indices.  The weight train is then silent for most of each period
LT, and the dead time 1 - (T*||c||_0 + K)/(LT) (K = channel memory) is
available to carry data through the same channel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameters,
    NoPrimeInRange,
    NotIdentifiable,
    SparkTargetUnmet,
)
from .channel import IdentifierTrain
from .gabor import _draw_window, build_gabor_matrix, is_prime
from .support import CellSupport, bandwidth, rectify


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


def sampling_rate(g):
    """D(Lambda) = ||c||_0/(TL) of the train g (IdentifierTrain.rate)."""
    return g.rate


def _memory(S):
    """K: right edge of the t-support, so every eta(., nu) lives in [0, K]."""
    occupied = np.flatnonzero(S.mask.any(axis=1))
    if occupied.size == 0:
        return 0.0
    return (S.offsets[0] + occupied[-1] + 1) * S.dt


def check_necessary(g, S):
    """Necessary rate bound D >= B(S), with one subcell height of slack."""
    return sampling_rate(g) >= bandwidth(S) - S.dnu


def rate_report(g, S, eps=None):
    """Assemble the full RateReport for an identifier/support pair."""
    rate = sampling_rate(g)
    count = g.weights.support_size()
    margin = None if eps is None else S.area * (1.0 + eps) - count / g.L
    return RateReport(
        rate=rate,
        bandwidth=bandwidth(S),
        necessary_ok=check_necessary(g, S),
        area=S.area,
        sufficient_margin=margin,
        dead_time_fraction=1.0 - (g.T * count + _memory(S)) / (g.L * g.T),
    )


def refine_support(S, L_new):
    """Re-express S on the grid with modulus L_new >= S.L and the same T.

    The new system keeps the cell width T but shrinks the cell height to
    Omega' = 1/(T*L_new); with P' = S.L*P subcells the old pixel boundaries
    all land on new grid lines, so the region (and its area) is carried over
    exactly.  The support then sits inside the first S.L cell columns of the
    larger fundamental domain, where no periodization folds can collide.
    """
    if L_new == S.L:
        return S
    if L_new < S.L:
        raise InvalidParameters("the refined modulus cannot be smaller than S.L")
    N, P = S.L, S.P
    P_new = N * P
    # old pixel (i, j) covers the same region as the N x L_new block of new
    # pixels starting at (i*N, j*L_new); the nu-span of both grids is 1/T.
    block = np.kron(S.mask, np.ones((N, L_new), dtype=bool))
    mask = np.zeros((L_new * P_new, L_new * P_new), dtype=bool)
    mask[: block.shape[0], :] = block
    return CellSupport(T=S.T, L=L_new, P=P_new, mask=mask, shift=S.shift)


def _primes_from(start, stop):
    n = max(start, 2)
    while n <= stop:
        if is_prime(n):
            yield n
        n += 1


def bunched_window_plan(S, eps, seed=None, max_draws=200, tol=1e-8, modulus_cap=None):
    """Identifier design for a small support: weights bunched at the period start.

    Searches the primes L' >= S.L for the smallest modulus whose T x 1/(TL')
    cell cover Gamma' of S satisfies |Gamma'|/L' < |S|(1+eps), then draws
    weights supported on the first |Gamma'| indices until every rectification
    class of the refined support has a well-conditioned column block.
    Returns the window and a RateReport with the emitted plan's margin and
    dead-time fraction.
    """
    if not eps > 0:
        raise InvalidParameters("the sufficient-rate construction needs eps > 0")
    area = S.area
    if area <= 0:
        raise InvalidParameters("cannot plan for an empty support")
    target = area * (1.0 + eps)
    if target >= 1.0:
        raise InvalidParameters(
            f"|S|(1+eps) = {target:.6g} must be strictly below 1"
        )

    if modulus_cap is None:
        # |Gamma'| <= |S|*L' + 2*(nu-runs), so the cover ratio drops below the
        # target once L' > 2*runs/(|S|*eps); double it for a prime to exist.
        runs = 0
        for q in range(S.L):
            col = S.mask[q * S.P : (q + 1) * S.P].any(axis=0)
            runs += int(np.count_nonzero(np.diff(col.astype(int)) == 1) + col[0])
        modulus_cap = 2 * max(S.L, int(np.ceil(2 * runs / (area * eps)))) + 2

    chosen = None
    for L_new in _primes_from(S.L, modulus_cap):
        refined = refine_support(S, L_new)
        try:
            report = rectify(refined)
        except NotIdentifiable:
            continue
        if len(report.gamma) / L_new < target:
            chosen = (L_new, refined, report)
            break
    if chosen is None:
        raise NoPrimeInRange(
            f"no prime modulus in [{S.L}, {modulus_cap}] brings the cell cover "
            f"below |S|(1+eps) = {target:.6g}"
        )
    L_new, refined, report = chosen
    k = len(report.gamma)

    class_columns = [
        [q * L_new + m for (q, m) in cls.cells] for cls in report.classes if cls.cells
    ]

    def well_conditioned(c):
        G = build_gabor_matrix(c)
        for cols in class_columns:
            sing = np.linalg.svd(G.entries[:, cols], compute_uv=False)
            if sing[-1] <= tol * sing[0]:
                return False
        return True

    window = _draw_window(L_new, k, seed, max_draws, well_conditioned)
    if window is None:
        raise SparkTargetUnmet(
            f"no bunched window with well-conditioned class blocks in "
            f"{max_draws} draws (L={L_new}, ||c||_0={k})"
        )
    return window, rate_report(IdentifierTrain(T=S.T, weights=window), S, eps)
