"""Unknown-support recovery by joint-sparse greedy decoding.

At every base-rectangle subcell the Zak samples satisfy Z_vec = G(c) eta_vec
with eta_vec supported on the active cells of the (unknown) support.  Stacking
Z-vectors over grid points gives a multiple-measurement-vector problem with a
common support: greedy orthogonal matching pursuit picks the dictionary column
with the largest summed squared correlation, re-fits jointly by least squares,
and stops at the iteration cap or once the relative residual drops below tol.
A full-spark G makes every L columns independent, so any floor(L/2)-sparse
solution is unique: a zero-residual estimate of that size is the true support.
The same fact makes an L-cell estimate worthless: any L columns span C^L and
fit every Z-vector with zero residual, so recover_unknown_support refuses to
certify one.
"""

from dataclasses import dataclass

import numpy as np

from .channel import _zak_vectors
from .errors import GridMismatch, InvalidParameters, NoConvergence, RankDeficient
from .reconstruct import _validate_grids, recover_eta_known_support
from .support import CellSupport, check_identifiable, periodization_count, union_supports

__all__ = [
    "SupportEstimate",
    "mmv_omp",
    "verify_uniqueness_class",
    "recover_unknown_support",
]


@dataclass(eq=False)
class SupportEstimate:
    gamma_hat: tuple
    residual_history: list
    exact_match: bool  # None when no ground truth was supplied
    k_max: int
    tol: float
    seed: int

    @property
    def converged(self):
        return bool(self.residual_history) and self.residual_history[-1] <= self.tol


def mmv_omp(Y, G, k_max, tol, seed=0, candidates=None, gamma_true=None):
    """Estimate the active cell set from stacked Z-vectors.

    Y: (L, n) matrix whose columns are Z-vectors at grid points (a single
    vector is accepted).  candidates optionally restricts the dictionary to a
    cell subset.  Ties in the correlation score break toward the lowest linear
    column index; when n exceeds 4L^2 the columns are subsampled by a seeded
    stride.  Non-convergence is reported through the residual history, never
    raised.
    """
    L = G.L
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2 or Y.shape[0] != L:
        raise GridMismatch(f"Y must have L = {L} rows, got shape {Y.shape}")
    if not np.all(np.isfinite(Y)):
        raise InvalidParameters("Y must be finite")
    if not 1 <= k_max <= L:
        raise InvalidParameters(f"k_max must lie in [1, {L}]")
    if tol < 0:
        raise InvalidParameters("tol must be nonnegative")

    limit = 4 * L * L
    if Y.shape[1] > limit:
        rng = np.random.default_rng(seed)
        stride = Y.shape[1] // limit
        start = int(rng.integers(Y.shape[1]))
        Y = Y[:, (start + stride * np.arange(limit)) % Y.shape[1]]

    if candidates is None:
        cand = np.arange(L * L)
    else:
        cand = np.array(sorted(G.column_index(q, m) for q, m in candidates))
    A = G.entries[:, cand]
    norms = np.linalg.norm(A, axis=0)
    if not np.all(norms > 0):
        raise RankDeficient("the dictionary has zero columns (all-zero window)")
    An = A / norms

    def finish(chosen, history):
        gamma_hat = tuple(
            sorted((int(cand[c]) // L, int(cand[c]) % L) for c in chosen)
        )
        exact = None
        if gamma_true is not None:
            exact = set(gamma_hat) == {(int(q), int(m)) for q, m in gamma_true}
        return SupportEstimate(
            gamma_hat=gamma_hat,
            residual_history=history,
            exact_match=exact,
            k_max=k_max,
            tol=tol,
            seed=seed,
        )

    norm_y = np.linalg.norm(Y)
    if norm_y == 0:
        return finish([], [0.0])

    chosen = []
    history = []
    residual = Y
    for _ in range(k_max):
        scores = np.sum(np.abs(An.conj().T @ residual) ** 2, axis=1)
        scores[chosen] = -1.0
        chosen.append(int(np.argmax(scores)))
        sel = A[:, chosen]
        coef, *_ = np.linalg.lstsq(sel, Y, rcond=None)
        residual = Y - sel @ coef
        history.append(float(np.linalg.norm(residual) / norm_y))
        if history[-1] <= tol:
            break
    return finish(chosen, history)


def verify_uniqueness_class(S1, S2, Delta):
    """Certify that two supports cannot be confused by one identifier.

    Both supports must meet the density hypothesis (periodization count at
    most Delta*L with Delta < 1/2 + 1/(2L)); the certificate then reduces to
    identifiability of the union (the difference of two channels supported on
    S1 and S2 is supported on S1 union S2).  Returns False whenever the
    hypothesis fails or the union is not identifiable.
    """
    L = S1.L
    if not 0 < Delta < 0.5 + 1.0 / (2 * L):
        return False
    cap = Delta * L + 1e-12
    if periodization_count(S1).max() > cap or periodization_count(S2).max() > cap:
        return False
    return check_identifiable(union_supports(S1, S2))


def recover_unknown_support(Zgrid, G, R, k_max, tol, seed=0, eta_true=None, gamma_true=None):
    """Estimate the support from the Zak grid, then recover eta on it.

    R bounds the candidate region (its cells form the dictionary); the
    estimated cells are materialized as full cells of R's grid and passed to
    recover_eta_known_support.  Raises NoConvergence (with the estimate
    attached) when the greedy residual stays above tol or the estimate has L
    cells, which fit any data.
    """
    L, P = R.L, R.P
    Zgrid = _validate_grids(Zgrid, G, R)
    u, v = np.divmod(np.arange(P * P), P)
    Y = _zak_vectors(Zgrid, u, v, L, P)

    candidates = None if len(R.cells) == L * L else R.cells
    est = mmv_omp(
        Y, G, k_max, tol, seed=seed, candidates=candidates, gamma_true=gamma_true
    )
    if not est.converged:
        raise NoConvergence(
            f"relative residual {est.residual_history[-1]:.3e} above tol = {tol} "
            f"after {len(est.residual_history)} iterations",
            estimate=est,
        )
    if len(est.gamma_hat) == L:
        raise NoConvergence(
            f"the estimate has L = {L} cells, whose columns span C^L and fit any data",
            estimate=est,
        )
    S_hat = CellSupport(T=R.T, L=L, P=P, cells=est.gamma_hat)
    report = recover_eta_known_support(Zgrid, G, S_hat, eta_true=eta_true)
    report.support_estimate = est
    return report
