"""Simulate a time-varying channel and recover its spreading function.

The channel acts on the weighted delta train g = sum_n c_n delta_{nT}; the
Zak transform of the response Hg splits into one small linear system per
rectification class, and solving them returns eta exactly (machine precision
on the discrete grid).  Three recovery paths are shown: the per-class solver,
the smooth-window variant (raised-cosine partition of unity instead of sharp
cell cutoffs), and reconstruction of the impulse response h(x, t) itself.
"""

import numpy as np

from opsample import (
    IdentifierTrain,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    impulse_response,
    presets,
    random_spreading,
    reconstruct_h_sharp,
    recover_eta_known_support,
    recover_eta_smooth,
    relative_l2_error,
    zak_transform,
)


def main():
    S = presets.seven_cell_support()
    window = generate_window(3, seed=7)
    print(f"support: {len(S.cells)} cells, area {S.area:g}; window L = {window.L}")

    eta = random_spreading(S, seed=42)
    g = IdentifierTrain(T=S.T, weights=window)
    response = apply_channel(eta, g)
    Z = zak_transform(response)
    print(f"response: {response.samples.size} samples on [0, {S.L * S.P * S.T:g})")

    G = build_gabor_matrix(window)
    report = recover_eta_known_support(Z, G, S)
    print(f"per-class recovery: error {relative_l2_error(report.eta_hat, eta):.3e}, "
          f"conditioning {max(report.per_class_conditioning):.2f}")

    smooth = recover_eta_smooth(Z, G, S, 0.125)
    print(f"smooth-window recovery: error {relative_l2_error(smooth.eta_hat, eta):.3e}")

    h_hat = reconstruct_h_sharp(report)
    x = np.arange(h_hat.shape[1]) * S.dt
    h_true = np.stack([impulse_response(eta, x, r * S.dt)
                       for r in range(eta.values.shape[0])])
    err = np.linalg.norm(h_hat - h_true) / np.linalg.norm(h_true)
    print(f"impulse response h(x, t): error {err:.3e} "
          f"on a {h_hat.shape[0]} x {h_hat.shape[1]} grid")


if __name__ == "__main__":
    main()
