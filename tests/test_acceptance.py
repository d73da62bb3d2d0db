"""Acceptance suite: eight binding criteria, one test and one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines with their measured margins.  Tolerances are stated inline; seeds
are fixed so every run measures the same instances.
"""

import time

import numpy as np
import pytest

from opsample import presets
from opsample.channel import (
    IdentifierTrain,
    apply_channel,
    assemble_system,
    impulse_response,
    quasiperiodize,
    random_spreading,
    relative_l2_error,
    zak_transform,
)
from opsample.errors import NoConvergence, NotIdentifiable
from opsample.gabor import Window, build_gabor_matrix, generate_window, spark
from opsample.rates import bunched_window_plan, rate_report, refine_support
from opsample.reconstruct import (
    reconstruct_h_sharp,
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
)
from opsample.sparse import recover_unknown_support
from opsample.support import (
    CellSupport,
    bandwidth,
    check_identifiable,
    periodization_count,
    rectify,
)
from opsample.channel import DiscreteSpreadingFunction


def _ok(n, name, detail):
    print(f"criterion {n} ({name}): PASS — {detail}")


def _simulate(S, window, eta_seed, chirp_a=0.0):
    eta = random_spreading(S, seed=eta_seed)
    g = IdentifierTrain(T=S.T, weights=window, chirp_a=chirp_a)
    Z = zak_transform(apply_channel(eta, g))
    return eta, Z


def test_criterion_1_system_identity():
    """Z-vector equals G times eta-vector at every base point, to 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    P = 8
    for L in (2, 3, 5):
        for pair in range(20):
            cell_rng = np.random.default_rng(40_000 * L + pair)
            picks = cell_rng.choice(L * L, size=L, replace=False)
            S = CellSupport(T=1.0, L=L, P=P,
                            cells=[(int(c) // L, int(c) % L) for c in picks])
            assert check_identifiable(S)
            window = Window(L, np.random.default_rng(10_000 * L + pair).standard_normal(L)
                            + 1j * np.random.default_rng(20_000 * L + pair).standard_normal(L))
            eta = random_spreading(S, seed=30_000 * L + pair)
            g = IdentifierTrain(T=S.T, weights=window)
            Z = zak_transform(apply_channel(eta, g))
            G = build_gabor_matrix(window)
            eta_qp = quasiperiodize(eta)
            for t in range(P):
                for nu in range(P):
                    sample = assemble_system(eta_qp, Z, G, t, nu, S.T)
                    worst = max(worst, sample.residual(G))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed <= 30.0
    _ok(1, "system identity", f"max residual {worst:.3e} over 60 pairs in {elapsed:.1f}s")


def test_criterion_2_round_trip():
    """Sharp, smooth, and multiclass recovery agree with the truth to 1e-9."""
    window = generate_window(3, seed=7)
    G = build_gabor_matrix(window)
    worst = {"sharp": 0.0, "smooth": 0.0, "multiclass": 0.0}

    for S in (presets.staircase_support(), presets.seven_cell_support()):
        rect = rectify(S)
        for draw in range(10):
            eta, Z = _simulate(S, window, eta_seed=500 + draw)
            scale = np.linalg.norm(eta.values)

            report = recover_eta_known_support(Z, G, S)
            worst["multiclass"] = max(worst["multiclass"], relative_l2_error(report.eta_hat, eta))

            smooth = recover_eta_smooth(Z, G, S, 0.125)
            worst["smooth"] = max(worst["smooth"], relative_l2_error(smooth.eta_hat, eta))

            h_hat = reconstruct_h_sharp(report)
            x = np.arange(h_hat.shape[1]) * S.dt
            h_true = np.stack(
                [impulse_response(eta, x, (S.offsets[0] + r) * S.dt)
                 for r in range(eta.values.shape[0])]
            )
            worst["sharp"] = max(
                worst["sharp"], np.linalg.norm(h_hat - h_true) / np.linalg.norm(h_true)
            )
            assert scale > 0

    for path, err in worst.items():
        assert err <= 1e-9, f"{path} path error {err:.3e}"

    seven = presets.seven_cell_support()
    rect = rectify(seven)
    assert len(rect.classes) == 3
    assert abs(bandwidth(seven) - 2 * seven.omega) <= seven.dnu + 1e-12
    _ok(
        2,
        "round trip",
        "max errors "
        + ", ".join(f"{k}={v:.3e}" for k, v in worst.items())
        + f"; seven-cell classes=3, B={bandwidth(seven):.4f} vs 2*Omega={2 * seven.omega:.4f}",
    )


def test_criterion_3_spark_census():
    """Generic draws hit full spark; bunched two-index draws hit spark 3."""
    start = time.perf_counter()

    full = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = Window(3, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        if spark(build_gabor_matrix(w)) == 4:
            full += 1
    assert full >= 99

    bunched = 0
    for seed in range(100):
        rng = np.random.default_rng(7_000 + seed)
        weights = np.zeros(5, dtype=complex)
        weights[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if spark(build_gabor_matrix(Window(5, weights))) == 3:
            bunched += 1
    assert bunched >= 95

    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0
    _ok(3, "spark census", f"L=3 full {full}/100, L=5 bunched {bunched}/100 in {elapsed:.1f}s")


def test_criterion_4_identifiability_geometry():
    """Cover count L+1 is rejected; an exact L-cover of area 1 is accepted."""
    bad = presets.stacked_cover_violation()
    assert int(periodization_count(bad).max()) == bad.L + 1
    assert not check_identifiable(bad)
    with pytest.raises(NotIdentifiable):
        rectify(bad)

    collision = presets.translate_collision_support()
    assert not check_identifiable(collision)

    exact = presets.seven_cell_support()
    rect = rectify(exact)
    assert check_identifiable(exact)
    assert rect.max_cover == exact.L  # equality with the cover bound
    assert exact.area == pytest.approx(1.0)
    _ok(
        4,
        "identifiability geometry",
        f"count {bad.L + 1} rejected; exact {exact.L}-cover of area {exact.area:g} accepted",
    )


def test_criterion_5_unknown_support():
    """100 noiseless two-cell trials at L=5: every one an exact recovery."""
    L, P, k = 5, 8, 2
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])

    exact = 0
    failures = []
    for trial in range(100):
        rng = np.random.default_rng(1_000 + trial)
        picks = rng.choice(L * L, size=k, replace=False)
        cells = [(int(c) // L, int(c) % L) for c in picks]
        S = CellSupport(T=1.0, L=L, P=P, cells=cells)
        eta, Z = _simulate(S, window, eta_seed=5_000 + trial)
        try:
            report = recover_unknown_support(Z, G, R, k_max=k, tol=1e-10)
        except NoConvergence:
            failures.append(trial)
            continue
        est = report.support_estimate
        # a zero-residual stop must have found the true support
        assert est.residual_history[-1] <= 1e-10
        assert set(est.gamma_hat) == set(cells), f"trial {trial}: zero residual on wrong support"
        assert relative_l2_error(report.eta_hat, eta) <= 1e-9
        exact += 1

    assert exact == 100, f"only {exact}/100 exact (failed trials: {failures})"
    _ok(5, "unknown support", f"{exact}/100 exact, failures={failures}")


def test_criterion_6_symplectic():
    """Chirped identifier on the sheared band: period 6, errors at 1e-9."""
    S = presets.sheared_parallelogram_support(shear=1)
    a = S.omega  # slope Omega: kappa = L*T*a = 1
    window = generate_window(3, seed=7)
    G = build_gabor_matrix(window)

    g = IdentifierTrain(T=S.T, weights=window, chirp_a=a)
    assert g.period == 6

    eta = random_spreading(S, seed=60)
    Z_chirp = zak_transform(apply_channel(eta, g))
    sym = recover_symplectic(Z_chirp, G, S, a)
    sym_error = relative_l2_error(sym.eta_hat, eta)
    assert sym_error <= 1e-9

    rect = rectify(S)
    assert len(rect.classes) == 2
    Z_plain = zak_transform(apply_channel(eta, IdentifierTrain(T=S.T, weights=window)))
    axis = recover_eta_known_support(Z_plain, G, S)
    assert relative_l2_error(axis.eta_hat, eta) <= 1e-9

    agreement = np.linalg.norm(sym.eta_hat.values - axis.eta_hat.values) / np.linalg.norm(
        eta.values
    )
    assert agreement <= 1e-9
    _ok(
        6,
        "symplectic",
        f"round trip {sym_error:.3e}, axis-aligned (2 classes) agreement {agreement:.3e}",
    )


def test_criterion_7_classical_embedding():
    """Multiplication and convolution channels reduce to classical sampling."""
    L, P, T = 3, 8, 1.0
    LP, N = L * P, L * P * P
    ones = Window(L, np.ones(L, dtype=complex))

    # Multiplication by a trig polynomial bandlimited to [0, 1/T): the response
    # carries the point samples m(nT), and Zak recovery must match classical
    # interpolation of those samples on the whole grid.
    S_mult = CellSupport(T=T, L=L, P=P, mask=_first_row_mask(LP))
    rng = np.random.default_rng(70)
    m_hat = rng.standard_normal(LP) + 1j * rng.standard_normal(LP)
    values = np.zeros((LP, LP), dtype=complex)
    values[0] = m_hat / S_mult.dnu
    eta = DiscreteSpreadingFunction(support=S_mult, values=values)

    response = apply_channel(eta, IdentifierTrain(T=T, weights=ones))
    x = np.arange(N) * (T / P)
    m_true = np.exp(2j * np.pi * np.outer(x, np.arange(LP) * S_mult.dnu)) @ m_hat
    samples = response.samples[np.arange(LP) * P]
    assert np.allclose(samples, m_true[np.arange(LP) * P], atol=1e-12)

    # classical side: periodic sinc interpolation of the LP samples m(nT)
    u = x[:, None] - (np.arange(LP) * T)[None, :]
    K0 = np.exp(2j * np.pi * np.multiply.outer(u, np.arange(LP) * S_mult.dnu)).sum(axis=-1) / LP
    m_interp = K0 @ samples

    Z = zak_transform(response)
    G_ones = build_gabor_matrix(ones)
    report = recover_eta_known_support(Z, G_ones, S_mult)
    m_rec = impulse_response(report.eta_hat, x, 0.0)
    err_mult = np.linalg.norm(m_rec - m_interp) / np.linalg.norm(m_interp)
    assert err_mult <= 1e-9
    assert np.linalg.norm(m_interp - m_true) / np.linalg.norm(m_true) <= 1e-9

    # Convolution channel: an all-ones train returns exactly the T-periodized
    # impulse response (classical aliasing); a generic window recovers the full
    # response despite memory L*T > T.
    S_conv = CellSupport(T=T, L=L, P=P, mask=_first_col_mask(LP))
    kappa = rng.standard_normal(LP) + 1j * rng.standard_normal(LP)
    values = np.zeros((LP, LP), dtype=complex)
    values[:, 0] = kappa / S_conv.dnu
    eta_conv = DiscreteSpreadingFunction(support=S_conv, values=values)

    resp_ones = apply_channel(eta_conv, IdentifierTrain(T=T, weights=ones))
    folded = kappa.reshape(L, P).sum(axis=0)
    assert np.allclose(resp_ones.samples, np.tile(folded, N // P), atol=1e-12)

    window = generate_window(L, seed=7)
    Z2 = zak_transform(apply_channel(eta_conv, IdentifierTrain(T=T, weights=window)))
    rec = recover_eta_known_support(Z2, build_gabor_matrix(window), S_conv)
    err_conv = relative_l2_error(rec.eta_hat, eta_conv)
    assert err_conv <= 1e-9

    _ok(
        7,
        "classical embedding",
        f"interpolation match {err_mult:.3e}; periodized response exact, "
        f"full memory recovered at {err_conv:.3e}",
    )


def _first_row_mask(LP):
    mask = np.zeros((LP, LP), dtype=bool)
    mask[0, :] = True
    return mask


def _first_col_mask(LP):
    mask = np.zeros((LP, LP), dtype=bool)
    mask[:, 0] = True
    return mask


def test_criterion_8_rates():
    """Rate diagnostics: 3*Omega vs 2*Omega, necessity, and a bunched plan."""
    S = presets.seven_cell_support()
    window = generate_window(3, seed=7)
    g = IdentifierTrain(T=S.T, weights=window)
    report = rate_report(g, S)
    assert report.rate == pytest.approx(3 * S.omega)
    assert abs(report.bandwidth - 2 * S.omega) <= S.dnu + 1e-12
    assert report.necessary_ok

    # a single-delta train samples below the bandwidth and must be flagged
    sparse_w = Window(3, np.array([1.0, 0.0, 0.0], dtype=complex))
    slow = IdentifierTrain(T=S.T, weights=sparse_w)
    assert slow.rate == pytest.approx(S.omega)
    assert not rate_report(slow, S).necessary_ok

    two = CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)])
    eps = 1.5
    planned, plan_report = bunched_window_plan(two, eps, seed=4)
    density = planned.support_size() / planned.L
    assert density < two.area * (1 + eps)
    assert plan_report.sufficient_margin > 0

    refined = refine_support(two, planned.L)
    eta, Z = _simulate(refined, planned, eta_seed=9)
    rec = recover_eta_known_support(Z, build_gabor_matrix(planned), refined)
    rec_error = relative_l2_error(rec.eta_hat, eta)
    assert rec_error <= 1e-9
    _ok(
        8,
        "rates",
        f"rate {report.rate:.4f} vs B {report.bandwidth:.4f}; sub-bandwidth flagged; "
        f"bunched ||c||_0/L = {density:.3f} < {two.area * (1 + eps):.3f}, "
        f"round trip {rec_error:.3e}",
    )
