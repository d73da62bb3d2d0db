"""Classical sampling as a special case of operator sampling.

Two degenerate channels make the connection explicit.  A multiplication
operator (spreading mass on the t = 0 line) probed by the delta train hands
back the point samples m(nT), and recovering the operator is exactly periodic
sinc interpolation of those samples.  A convolution operator (mass on the
nu = 0 line) probed the same way returns the T-periodization of its impulse
response -- aliased whenever the memory exceeds T -- yet the Zak-domain
recovery with a generic window still reconstructs the full response.
"""

import numpy as np

from opsample import (
    CellSupport,
    DiscreteSpreadingFunction,
    IdentifierTrain,
    Window,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    impulse_response,
    recover_eta_known_support,
    relative_l2_error,
    zak_transform,
)


def main():
    L, P, T = 3, 8, 1.0
    LP, N = L * P, L * P * P
    ones = Window(L, np.ones(L, dtype=complex))
    rng = np.random.default_rng(70)

    print("--- multiplication channel (Hf)(x) = m(x) f(x) ---")
    mask = np.zeros((LP, LP), dtype=bool)
    mask[0, :] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    m_hat = rng.standard_normal(LP) + 1j * rng.standard_normal(LP)
    values = np.zeros((LP, LP), dtype=complex)
    values[0] = m_hat / S.dnu
    eta = DiscreteSpreadingFunction(support=S, values=values)

    response = apply_channel(eta, IdentifierTrain(T=T, weights=ones))
    x = np.arange(N) * (T / P)
    samples = response.samples[np.arange(LP) * P]
    print(f"  the response carries the {LP} point samples m(nT)")

    u = x[:, None] - (np.arange(LP) * T)[None, :]
    K0 = np.exp(2j * np.pi * np.multiply.outer(u, np.arange(LP) * S.dnu)).sum(axis=-1) / LP
    m_interp = K0 @ samples

    Z = zak_transform(response)
    report = recover_eta_known_support(Z, build_gabor_matrix(ones), S)
    m_rec = impulse_response(report.eta_hat, x, 0.0)
    err = np.linalg.norm(m_rec - m_interp) / np.linalg.norm(m_interp)
    print(f"  operator recovery vs. classical interpolation: {err:.3e}")

    print("--- convolution channel (Hf)(x) = (kappa * f)(x), memory L*T ---")
    mask = np.zeros((LP, LP), dtype=bool)
    mask[:, 0] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    kappa = rng.standard_normal(LP) + 1j * rng.standard_normal(LP)
    values = np.zeros((LP, LP), dtype=complex)
    values[:, 0] = kappa / S.dnu
    eta = DiscreteSpreadingFunction(support=S, values=values)

    resp = apply_channel(eta, IdentifierTrain(T=T, weights=ones))
    folded = kappa.reshape(L, P).sum(axis=0)
    alias = np.linalg.norm(resp.samples - np.tile(folded, N // P))
    print(f"  all-ones train sees only the T-periodization (defect {alias:.1e}):")
    print("  three memory taps land on each sample -- classical aliasing")

    window = generate_window(L, seed=7)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=T, weights=window)))
    rec = recover_eta_known_support(Z, build_gabor_matrix(window), S)
    error = relative_l2_error(rec.eta_hat, eta)
    print(f"  generic window recovers the full response: error {error:.3e}")


if __name__ == "__main__":
    main()
