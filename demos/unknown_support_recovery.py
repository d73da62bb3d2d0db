"""Recovering the support itself: rank-aware joint-sparse selection.

When only a cell budget k is known, the Z-vectors at all base points share
one unknown support, so support estimation is a multiple-measurement sparse
problem over the L^2 Gabor columns.  On noiseless data the Z-vectors span
exactly the active columns, and a full-spark window makes every other column
stand outside that span; rank-aware selection (project out the chosen
columns, pick the one lying in the residual's range, repeat) therefore finds
every support of fewer than L cells.  The decoder certifies a zero-residual
estimate of k cells from data of rank r only under the MMV rank bound: level
2k - min(r, k) + 1 of G must be clean, so an L-cell fit is never certified.
"""

import numpy as np

from opsample import (
    CellSupport,
    IdentifierTrain,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    random_spreading,
    recover_unknown_support,
    relative_l2_error,
    zak_transform,
)
from opsample.errors import NoConvergence


def trial(L, cells, window, eta_seed, k_max):
    S = CellSupport(T=1.0, L=L, cells=cells)
    eta = random_spreading(S, seed=eta_seed)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=S.T, weights=window)))
    G = build_gabor_matrix(window)
    R = CellSupport(T=1.0, L=L, cells=[(q, m) for q in range(L) for m in range(L)])
    return eta, recover_unknown_support(Z, G, R, k_max=k_max, tol=1e-10)


def main():
    L = 5
    window = generate_window(L, seed=235)
    print(f"window: L = {L}, spark-certified")

    print("--- 40 trials at |Gamma| = 2 ---")
    hits = 0
    for t in range(40):
        rng = np.random.default_rng(t)
        picks = rng.choice(L * L, size=2, replace=False)
        cells = [(int(c) // L, int(c) % L) for c in picks]
        try:
            _, report = trial(L, cells, window, eta_seed=900 + t, k_max=2)
            hits += set(report.support_estimate.gamma_hat) == set(cells)
        except NoConvergence:
            pass
    print(f"  exact support recovery: {hits}/40")

    print("--- a worked instance ---")
    eta, report = trial(L, [(1, 3), (4, 0)], window, eta_seed=82, k_max=2)
    est = report.support_estimate
    print(f"  selected cells: {list(est.gamma_hat)}")
    print(f"  residual history: {[f'{r:.2e}' for r in est.residual_history]}")
    print(f"  eta error on the estimated support: {relative_l2_error(report.eta_hat, eta):.3e}")

    print("--- near the sparsity limit (|Gamma| = L - 1 = 4) still certified ---")
    outcomes = []
    for t in range(10):
        rng = np.random.default_rng(300 + t)
        picks = rng.choice(L * L, size=4, replace=False)
        cells = [(int(c) // L, int(c) % L) for c in picks]
        try:
            _, report = trial(L, cells, window, eta_seed=1300 + t, k_max=4)
            exact = set(report.support_estimate.gamma_hat) == set(cells)
            outcomes.append("exact" if exact else "wrong")
        except NoConvergence:
            outcomes.append("stuck")
    print(f"  outcomes: {outcomes}")
    print("  (the Z-vectors span 4 dimensions of C^5: the rank bound |Gamma| < L holds)")
    print("--- |Gamma| = L = 5 is refused ---")
    rng = np.random.default_rng(400)
    cells = [(int(c) // L, int(c) % L) for c in rng.choice(L * L, size=L, replace=False)]
    try:
        trial(L, cells, window, eta_seed=1400, k_max=L)
        print("  certified (unexpected)")
    except NoConvergence as exc:
        print(f"  NoConvergence: {exc}")


if __name__ == "__main__":
    main()
