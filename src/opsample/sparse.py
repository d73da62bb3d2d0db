"""Unknown-support recovery by rank-aware joint-sparse decoding.

At every base-rectangle subcell the Zak samples satisfy Z_vec = G(c) eta_vec
with eta_vec supported on the active cells of the (unknown) support.  Stacking
Z-vectors over grid points gives a multiple-measurement problem Y = G_Gamma X
with one support Gamma, unique when |Gamma| < (spark(G) - 1 + rank Y) / 2 (the
MMV rank bound).  Noiseless data with generic eta at P^2 >= |Gamma| points give
rank Y = |Gamma|, range(Y) the span of the active columns, so a full-spark G
(spark L + 1) certifies every support of fewer than L cells.  Rank-aware
selection (RA-ORMP) finds it: an active column, with the chosen span projected
out, lies in range(residual), and any other column would make at most L columns
dependent.  recover_unknown_support certifies only what the bound proves, level
s = 2|Gamma| - min(r, |Gamma|) + 1 <= L of G clean (r = rank Y), so an L-cell
estimate never passes; a search domain reads the full G, whose spark is at most
its sub-dictionary's.  Neither takes a ground truth: a caller that knows one
compares gamma_hat with its cells and scores eta_hat with channel.relative_l2_error.
"""

from dataclasses import dataclass

import numpy as np

from . import gabor
from .channel import _dot_norm
from .errors import GridMismatch, InvalidParameters, NoConvergence, RankDeficient
from .reconstruct import _ZakVectors, recover_eta_known_support
from .support import CellSupport

__all__ = [
    "SupportEstimate",
    "mmv_omp",
    "recover_unknown_support",
]


@dataclass(eq=False)
class SupportEstimate:
    gamma_hat: tuple
    residual_history: list
    rank: int  # r: singular values of Y above gabor.DEFAULT_TOL times the largest
    k_max: int
    tol: float

    @property
    def converged(self):
        return bool(self.residual_history) and self.residual_history[-1] <= self.tol


def _column_norms(x):
    """np.linalg.norm(x, axis=0) of a complex matrix, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def mmv_omp(Y, G, k_max, tol, candidates):
    """Estimate the active cell set from stacked Z-vectors.

    Y: (L, n) matrix whose columns are Z-vectors at grid points; candidates:
    the cells (q, m) that make up the dictionary.  Y is compressed exactly to
    R^H (Y^H = QR: at most L columns, the same range and residual norms).
    Each step normalizes the candidates with the chosen span projected out
    and picks the one with the largest norm in range(residual), spanned by
    its singular directions above tol times the norm of Y; ties go to the
    lowest linear column index.  The residual is Y with the chosen span
    projected out.  Selection stops at k_max, at a relative residual of at
    most tol, or once every candidate lies within relative distance tol of
    the chosen span, so no column is picked twice.  Non-convergence is
    reported through the residual history, never raised.  tol lies in [0, 1)
    (gabor._check_tol), so the first step always picks a column: no history is empty.
    """
    L = G.L
    Y = np.asarray(Y, dtype=complex)
    if Y.ndim != 2 or Y.shape[0] != L:
        raise GridMismatch(f"Y must be a matrix of L = {L} rows, got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise InvalidParameters("Y must be finite")
    gabor._integer(k_max, "k_max", 1, L)
    gabor._check_tol(tol)

    cand = np.array(sorted(G.column_index(q, m) for q, m in candidates))
    if cand.size == 0:
        raise InvalidParameters("the candidate set (search domain) has no cells")
    A = G.entries[:, cand]
    norms = _column_norms(A)
    if not (norms > 0).all():
        raise RankDeficient("the dictionary has zero columns (all-zero window)")

    def finish(chosen, history, rank):
        gamma_hat = tuple(sorted((int(cand[c]) // L, int(cand[c]) % L) for c in chosen))
        return SupportEstimate(gamma_hat, history, rank, k_max, tol)

    Y = np.linalg.qr(Y.conj().T, mode="r").conj().T  # R^H
    norm_y = _dot_norm(Y.ravel("K"))
    if norm_y == 0:
        return finish([], [0.0], 0)

    chosen, history = [], []
    basis = np.zeros((L, 0), dtype=complex)  # orthonormal, spans the chosen columns
    residual = Y
    for _ in range(k_max):
        U, s, _ = np.linalg.svd(residual, full_matrices=False)
        if not chosen:  # the residual is Y: its rank under the one rank rule
            rank = int(np.count_nonzero(s > gabor.DEFAULT_TOL * s[0]))
        U = U[:, s > tol * norm_y]  # orthonormal basis of range(residual)
        basis_h = basis.conj().T
        proj = A - basis @ (basis_h @ A)  # A itself while no column is chosen
        proj_norms = _column_norms(proj)
        fresh = proj_norms > tol * norms  # columns that add a direction
        fresh[chosen] = False
        if not fresh.any():
            break
        scores = np.full(len(cand), -1.0)
        scores[fresh] = _column_norms(U.conj().T @ proj[:, fresh]) / proj_norms[fresh]
        j = int(scores.argmax())
        b = proj[:, j]
        b = b - basis @ (basis_h @ b)  # orthogonalized twice
        basis = np.column_stack([basis, b / _dot_norm(b)])
        chosen.append(j)
        residual = Y - basis @ (basis.conj().T @ Y)
        history.append(float(_dot_norm(residual.ravel("K")) / norm_y))
        if history[-1] <= tol:
            break
    return finish(chosen, history, rank)


def recover_unknown_support(Zgrid, G, R, k_max, tol, seed=None):
    """Estimate the support from the Zak grid, then recover eta on it.

    R bounds the candidate region (its cells form the dictionary); eta is solved on the
    estimate, as full cells of R's grid, by recover_eta_known_support from the decoded Y:
    the grid is checked once and gathered once.  Raises NoConvergence (with the estimate
    attached) when the residual stays above tol or level s (module docstring)
    is above L or dependent, read once per window (Window._dependent_at), and
    SearchBudgetExceeded for L > 7.  tol lies in [0, 1) (gabor._check_tol): at tol >= 1 any
    estimate passes, even none.  seed is checked and ignored: the decoder draws nothing.
    """
    gabor._check_seed(seed)
    L, P = R.L, R.P
    checked = _ZakVectors(Zgrid, G, R)
    gabor._check_search_limit(L)

    est = mmv_omp(checked.Y, G, k_max, tol, candidates=R.cells)
    if not est.converged:
        raise NoConvergence(
            f"relative residual {est.residual_history[-1]:.3e} above tol = {tol} "
            f"after {len(est.residual_history)} iterations",
            estimate=est,
        )
    level = 2 * len(est.gamma_hat) - min(est.rank, len(est.gamma_hat)) + 1
    if level > L or G._dependent_at(level):
        raise NoConvergence(
            f"{len(est.gamma_hat)} cells at rank r = {est.rank} need level s = {level} <= L clean",
            estimate=est,
        )
    S_hat = CellSupport(T=R.T, L=L, P=P, cells=est.gamma_hat)
    report = recover_eta_known_support(checked, G, S_hat)
    report.support_estimate = est
    return report
