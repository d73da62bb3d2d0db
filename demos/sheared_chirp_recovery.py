"""Chirped identifiers straighten sheared supports.

The band 0 <= nu - a*t < Omega is not axis-aligned: rectifying it against the
(T, Omega) grid needs two classes.  Probing with the chirped train
g = sum_n c_n e^{pi i T a n^2} delta_{nT} applies a symplectic shear that maps
the band onto a single rectangle, so recovery reduces to the one-class case.
On the grid the chirp is exact whenever kappa = L*T*a is an integer; the
effective weights then have period L (kappa*L even) or 2L (odd).
"""

import numpy as np

from opsample import (
    IdentifierTrain,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    presets,
    random_spreading,
    recover_eta_known_support,
    recover_symplectic,
    rectify,
    relative_l2_error,
    zak_transform,
)


def main():
    S = presets.sheared_parallelogram_support(shear=1)
    a = S.omega
    print(f"band slope a = Omega = {a:g}; kappa = L*T*a = {S.L * S.T * a:g}")

    window = generate_window(3, seed=7)
    g = IdentifierTrain(T=S.T, weights=window, chirp_a=a)
    print(f"chirped weights have period {g.period} (2L: kappa*L is odd)")

    eta = random_spreading(S, seed=60)
    G = build_gabor_matrix(window)

    Z = zak_transform(apply_channel(eta, g))
    sym = recover_symplectic(Z, G, S, a)
    print(f"chirped recovery: error {relative_l2_error(sym.eta_hat, eta):.3e}")

    classes = rectify(S).classes
    Z0 = zak_transform(apply_channel(eta, IdentifierTrain(T=S.T, weights=window)))
    axis = recover_eta_known_support(Z0, G, S)
    print(f"axis-aligned recovery ({len(classes)} classes): "
          f"error {relative_l2_error(axis.eta_hat, eta):.3e}")

    gap = np.linalg.norm(sym.eta_hat.values - axis.eta_hat.values)
    print(f"the two estimates agree to {gap:.3e}")


if __name__ == "__main__":
    main()
