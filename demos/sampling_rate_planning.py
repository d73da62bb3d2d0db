"""Sampling-rate diagnostics and bunched identifier planning.

The delta train's rate D = ||c||_0 / (T*L) must reach the support's bandwidth
B(S) (necessity).  Conversely, a support admits a bunched identifier when its
cell-column hull h (the nu-shares its T-wide cell columns occupy, summed;
h >= |S|) is below |S|(1+eps) < 1: regridded to a prime period L' within the
grid budget, it is covered by |Gamma'| cells with |Gamma'|/L' < |S|(1+eps), and
the |Gamma'| nonzero weights sit at the start of the period -- long dead time
between bursts, at a rate below |S|(1+eps)/T.  A support narrow in t has a hull
well above its area (up to P times it), so such a plan is refused at period T.
"""

from opsample import (
    CellSupport,
    IdentifierTrain,
    Window,
    apply_channel,
    bandwidth,
    build_gabor_matrix,
    bunched_window_plan,
    generate_window,
    presets,
    random_spreading,
    rate_report,
    recover_eta_known_support,
    refine_support,
    relative_l2_error,
    zak_transform,
)
import numpy as np


def main():
    S = presets.seven_cell_support()
    dense = IdentifierTrain(T=S.T, weights=generate_window(3, seed=7))
    report = rate_report(dense, S)
    print(f"seven-cell support: B(S) = {report.bandwidth:.4f} "
          f"(= {report.bandwidth / S.omega:.2f} Omega)")
    print(f"dense train: rate {report.rate:.4f} (3 Omega), "
          f"necessary_ok = {report.necessary_ok}")

    slow = IdentifierTrain(T=S.T, weights=Window(3, np.array([1, 0, 0], dtype=complex)))
    print(f"single-delta train: rate {rate_report(slow, S).rate:.4f} (Omega), "
          f"necessary_ok = {rate_report(slow, S).necessary_ok}")

    print("--- bunched plan for a thin two-cell support ---")
    two = CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)])
    window, plan = bunched_window_plan(two, eps=1.5, seed=4)
    print(f"  surviving grid: prime L = {window.L}, ||c||_0 = {window.support_size()}")
    print(f"  rate {plan.rate:.4f} vs area bound {two.area * 2.5:.4f} / T; "
          f"margin {plan.sufficient_margin:.4f}")
    print(f"  dead time fraction {plan.dead_time_fraction:.3f}")

    refined = refine_support(two, window.L)
    eta = random_spreading(refined, seed=9)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=refined.T, weights=window)))
    rec = recover_eta_known_support(Z, build_gabor_matrix(window), refined)
    error = relative_l2_error(rec.eta_hat, eta)
    print(f"  round trip with the planned window: error {error:.3e}")


if __name__ == "__main__":
    main()
