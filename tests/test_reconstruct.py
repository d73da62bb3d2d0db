"""Recovery paths: left inverses, sharp/multiclass, smooth windows, symplectic."""

import cmath
import math

import numpy as np
import pytest

from opsample import (
    CellSupport,
    DiscreteSpreadingFunction,
    GridMismatch,
    IdentifierTrain,
    InvalidOverlap,
    InvalidParameters,
    NonIntegerChirpPeriod,
    NotIdentifiable,
    RankDeficient,
    ShearNotRectifiable,
    Window,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    impulse_response,
    random_spreading,
    rectify,
    zak_transform,
)
from opsample.reconstruct import (
    _blend_weights,
    left_inverse,
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    reconstruct_h_sharp,
    smooth_windows,
)
from opsample.presets import (
    seven_cell_support,
    sheared_parallelogram_support,
    staircase_support,
    stacked_cover_violation,
)

from oracles import periodized_band_kernel


def _generic_train(T, L, seed):
    return IdentifierTrain(T=T, weights=generate_window(L, seed=seed))


def _roundtrip(S, seed, chirp_a=0.0):
    eta = random_spreading(S, seed=seed)
    g = _generic_train(S.T, S.L, seed + 1000)
    if chirp_a:
        g = IdentifierTrain(T=S.T, weights=g.weights, chirp_a=chirp_a)
    G = build_gabor_matrix(g.weights)
    Z = zak_transform(apply_channel(eta, g))
    return eta, g, G, Z


def test_left_inverse_identity():
    G = build_gabor_matrix(generate_window(3, seed=5))
    omega = 1.0 / 3.0
    gamma = ((0, 0), (1, 0), (2, 1))
    inv = left_inverse(G, gamma, omega)
    A = G.entries[:, [q * 3 + m for q, m in inv.gamma]]
    prod = inv.coefficients @ A
    want = np.diag(
        [(1 / omega) * cmath.exp(2j * math.pi * q * m / 3) for q, m in inv.gamma]
    )
    assert np.max(np.abs(prod - want)) <= 1e-8 * np.max(np.abs(want))
    assert inv.condition_number >= 1.0


def test_left_inverse_rank_one():
    G = build_gabor_matrix(generate_window(3, seed=6))
    omega = 0.5
    inv = left_inverse(G, [(0, 0)], omega)
    col = G.column(0, 0)
    want = (1 / omega) * col.conj() / np.linalg.norm(col) ** 2
    np.testing.assert_allclose(inv.coefficients[0], want, atol=1e-12)
    assert abs(inv.condition_number - 1.0) < 1e-12


def test_left_inverse_square_inverse():
    L = 3
    G = build_gabor_matrix(generate_window(L, seed=7))
    omega = 2.0
    gamma = ((0, 0), (1, 1), (2, 2))
    inv = left_inverse(G, gamma, omega)
    A = G.entries[:, [q * L + m for q, m in inv.gamma]]
    scale = np.array(
        [(1 / omega) * cmath.exp(2j * math.pi * q * m / L) for q, m in inv.gamma]
    )
    want = scale[:, None] * np.linalg.inv(A)
    np.testing.assert_allclose(inv.coefficients, want, atol=1e-10)


def test_left_inverse_errors():
    G = build_gabor_matrix(generate_window(3, seed=8))
    with pytest.raises(RankDeficient):
        left_inverse(G, [(0, 0), (0, 1), (0, 2), (1, 0)], 1.0)
    with pytest.raises(InvalidParameters):
        left_inverse(G, [], 1.0)
    with pytest.raises(InvalidParameters):
        left_inverse(G, [(0, 0), (0, 0)], 1.0)

    # c = (1, 0, 0): the cells (0, 0) and (0, 1) give parallel columns
    Gd = build_gabor_matrix(Window(L=3, weights=np.array([1.0, 0, 0])))
    with pytest.raises(RankDeficient):
        left_inverse(Gd, [(0, 0), (0, 1)], 1.0)


@pytest.mark.filterwarnings("error")
def test_left_inverse_zero_window_raises_without_warning():
    G = build_gabor_matrix(Window(L=3, weights=np.zeros(3)))
    with pytest.raises(RankDeficient, match="sigma_min/sigma_max = 0.000e\\+00"):
        left_inverse(G, [(0, 0), (1, 2)], 1.0 / 3.0)


def test_roundtrip_staircase():
    S = staircase_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=40)
    report = recover_eta_known_support(Z, G, S, eta_true=eta)
    assert report.relative_l2_error <= 1e-9
    assert report.formula == "sharp"
    assert len(report.per_class_conditioning) == 1
    assert np.all(report.eta_hat.values[~S.mask] == 0)


def test_roundtrip_seven_cell():
    S = seven_cell_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=41)
    report = recover_eta_known_support(Z, G, S, eta_true=eta)
    assert report.relative_l2_error <= 1e-9
    assert report.formula == "multiclass"
    assert len(report.per_class_conditioning) == 3


def test_roundtrip_parallelogram():
    S = sheared_parallelogram_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=42)
    report = recover_eta_known_support(Z, G, S, eta_true=eta)
    assert report.relative_l2_error <= 1e-9
    assert report.formula == "multiclass"
    assert len(report.per_class_conditioning) == 2


def test_roundtrip_shifted_and_overflowing():
    # staircase translated a full t-superperiod plus 3 subcells down in nu:
    # the unfold phases e^{2 pi i j k / P} are exercised for k = 1
    base = staircase_support(T=0.5, P=8)
    S = CellSupport(
        T=0.5, L=3, P=8, cells=base.cells, shift=(3 * 0.5, -3 * base.dnu)
    )
    eta, g, G, Z = _roundtrip(S, seed=43)
    report = recover_eta_known_support(Z, G, S, eta_true=eta)
    assert report.relative_l2_error <= 1e-9


def test_zero_response_gives_zero_eta():
    S = staircase_support(T=1.0, P=4)
    G = build_gabor_matrix(generate_window(3, seed=9))
    Z = np.zeros((S.L * S.P, S.P), dtype=complex)
    report = recover_eta_known_support(Z, G, S)
    assert np.all(report.eta_hat.values == 0)
    assert report.relative_l2_error is None


def test_recover_validation():
    S = staircase_support(T=1.0, P=4)
    G = build_gabor_matrix(generate_window(3, seed=9))
    with pytest.raises(GridMismatch):
        recover_eta_known_support(np.zeros((5, 5)), G, S)
    with pytest.raises(NotIdentifiable):
        recover_eta_known_support(
            np.zeros((12, 4)), G, stacked_cover_violation(L=3, T=1.0, P=4)
        )
    # a ground truth on another grid is refused, not broadcast or misaligned
    other_T = random_spreading(staircase_support(T=2.0, P=4), seed=1)
    for truth in (other_T, np.zeros((24, 24))):
        with pytest.raises(GridMismatch):
            recover_eta_known_support(np.zeros((12, 4)), G, S, eta_true=truth)
    # a non-finite Zak sample is refused, not solved into a NaN eta or a warning
    for x in (np.nan, np.inf):
        Z = np.zeros((12, 4), dtype=complex)
        Z[0, 0] = x
        with pytest.raises(InvalidParameters):
            recover_eta_known_support(Z, G, S)


def test_h_sharp_matches_impulse_response():
    shifted = CellSupport(
        T=1.0, L=3, P=8, cells=staircase_support().cells, shift=(3 / 8, 2 / 24)
    )
    for S in (staircase_support(T=1.0, P=8), seven_cell_support(P=8), shifted):
        eta, g, G, Z = _roundtrip(S, seed=44)
        report = recover_eta_known_support(Z, G, S, eta_true=eta)
        h = reconstruct_h_sharp(report)
        N = S.L * S.P**2
        xs = np.arange(N) * S.dt
        i0, _ = S.offsets
        assert h.shape == (eta.values.shape[0], N)
        for r in range(h.shape[0]):
            t = (i0 + r) * S.dt
            np.testing.assert_allclose(h[r], impulse_response(eta, xs, t), atol=1e-9)


def test_h_sharp_point_mass_ridge():
    S = staircase_support(T=1.0, P=4)
    values = np.zeros(S.mask.shape, dtype=complex)
    r0, s0 = 5, 2  # inside cell (1, 0)
    assert S.mask[r0, s0]
    values[r0, s0] = 2.0 - 1.0j
    eta = DiscreteSpreadingFunction(support=S, values=values)
    report = recover_eta_known_support(
        np.zeros((S.L * S.P, S.P)), build_gabor_matrix(generate_window(3, seed=1)), S
    )
    report.eta_hat = eta  # evaluate the transform on a hand-placed point mass
    h = reconstruct_h_sharp(report)
    N = S.L * S.P**2
    # single complex exponential along x with constant modulus dnu * |v|
    np.testing.assert_allclose(np.abs(h[r0]), S.dnu * abs(values[r0, s0]), atol=1e-12)
    for k in (0, 3, 17):
        want = S.dnu * values[r0, s0] * cmath.exp(2j * math.pi * s0 * (k - r0) / N)
        assert abs(h[r0, k] - want) < 1e-12
    assert np.max(np.abs(h[[r for r in range(12) if r != r0]])) == 0


def test_h_sharp_sinc_case():
    # L = 1, S = [0, T) x [0, Omega): the reconstruction is bandlimited
    # interpolation of Hg by the T-periodized band kernel, scaled by T
    T, P = 0.5, 8
    S = CellSupport(T=T, L=1, P=P, cells=[(0, 0)])
    c = Window(L=1, weights=np.array([1.0 + 0j]))
    eta = random_spreading(S, seed=45)
    g = IdentifierTrain(T=T, weights=c)
    resp = apply_channel(eta, g)
    Z = zak_transform(resp)
    report = recover_eta_known_support(Z, build_gabor_matrix(c), S, eta_true=eta)
    assert report.relative_l2_error <= 1e-9
    h = reconstruct_h_sharp(report)
    N = P * P
    for r in (0, 3, 7):
        for k in (0, 5, 31, 50):
            want = T * sum(
                resp.samples[(r - n * P) % N]
                * periodized_band_kernel((k - r + n * P) * S.dt, T, P)
                for n in range(P)
            )
            assert abs(h[r, k] - want) < 1e-9


def test_smooth_windows_partition_and_support():
    w = smooth_windows(1.0, 1.0, 3 / 8, 8)  # L = 1 grid: eps = 3 steps on both axes
    assert w.eps_t_units == 3 and w.eps_nu_units == 3
    ts = np.arange(-16, 24) / 8.0
    total = sum(w.r(ts + k) for k in range(-4, 5))
    assert np.max(np.abs(total - 1.0)) == 0.0  # exact at grid points
    vals = w.r(ts)
    assert np.all((vals >= 0) & (vals <= 1))
    outside = (ts <= -3 / 16) | (ts >= 1 + 3 / 16)
    assert np.all(vals[outside] == 0)
    inside = (ts >= 3 / 16) & (ts <= 1 - 3 / 16)
    assert np.all(vals[inside] == 1)
    ramp = vals[(ts > -3 / 16) & (ts < 3 / 16)]
    assert np.all((ramp > 0) & (ramp < 1))

    total_nu = sum(w.phi_hat(ts + k) for k in range(-4, 5))
    assert np.max(np.abs(total_nu - 1.0)) == 0.0


def test_smooth_windows_validation():
    with pytest.raises(InvalidOverlap):
        smooth_windows(1.0, 1.0 / 3.0, 1.0 / 6.0, 8)  # eps = min(T, Omega)/2
    with pytest.raises(InvalidParameters):
        smooth_windows(1.0, 1.0 / 3.0, 0.0, 8)
    with pytest.raises(InvalidParameters):
        smooth_windows(1.0, 1.0 / 3.0, 1.0 / 24.0, 8)  # dnu-aligned but not dt-aligned


def test_smooth_blend_is_one_on_support():
    for S in (staircase_support(T=1.0, P=8), seven_cell_support(T=1.0, P=8)):
        w = smooth_windows(S.T, S.omega, 1.0 / 8.0, S.P)
        W = _blend_weights(S, w)
        assert np.all(W[S.mask] == 1.0)


def test_recover_smooth_roundtrips_and_agrees_with_sharp():
    for build, seed in ((staircase_support, 46), (seven_cell_support, 47)):
        S = build(T=1.0, P=16)
        eta, g, G, Z = _roundtrip(S, seed=seed)
        w = smooth_windows(S.T, S.omega, 2.0 / 16.0, S.P)  # two t-steps wide
        smooth = recover_eta_smooth(Z, G, S, w, eta_true=eta)
        assert smooth.relative_l2_error <= 1e-9
        assert smooth.formula == "smooth"
        sharp = recover_eta_known_support(Z, G, S, eta_true=eta)
        assert (
            np.max(np.abs(smooth.eta_hat.values - sharp.eta_hat.values)) <= 1e-12
        )


def test_recover_smooth_one_step_equals_sharp():
    S = staircase_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=48)
    w = smooth_windows(S.T, S.omega, S.dt, S.P)
    smooth = recover_eta_smooth(Z, G, S, w)
    sharp = recover_eta_known_support(Z, G, S)
    np.testing.assert_array_equal(smooth.eta_hat.values, sharp.eta_hat.values)


def test_recover_smooth_validation():
    S = staircase_support(T=1.0, P=8)
    _, _, G, Z = _roundtrip(S, seed=49)
    w_wrong = smooth_windows(2.0, 2.0, 2.0 / 8.0, 8)
    with pytest.raises(GridMismatch):
        recover_eta_smooth(Z, G, S, w_wrong)
    with pytest.raises(InvalidParameters):
        recover_eta_smooth(Z, G, S, None)


def test_symplectic_zero_shear_reduces_to_plain():
    S = staircase_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=50)
    plain = recover_eta_known_support(Z, G, S)
    sym = recover_symplectic(Z, G, S, a=0.0, eta_true=eta)
    np.testing.assert_allclose(sym.eta_hat.values, plain.eta_hat.values, atol=1e-12)
    assert sym.formula == "symplectic"
    assert sym.relative_l2_error <= 1e-9


def test_symplectic_parallelogram_roundtrip():
    S = sheared_parallelogram_support(T=1.0, P=8)
    a = S.omega  # kappa = 1: period-6 chirped weights
    eta, g, G, Z = _roundtrip(S, seed=51, chirp_a=a)
    assert g.period == 6
    report = recover_symplectic(Z, G, S, a, eta_true=eta)
    assert report.relative_l2_error <= 1e-9
    # the straightened support is a single class of L cells
    assert len(report.per_class_conditioning) == 1

    # cross-method: the axis-aligned two-class path on the unchirped response
    g_plain = IdentifierTrain(T=S.T, weights=g.weights)
    Z_plain = zak_transform(apply_channel(eta, g_plain))
    plain = recover_eta_known_support(Z_plain, G, S, eta_true=eta)
    assert plain.relative_l2_error <= 1e-9
    assert (
        np.max(np.abs(report.eta_hat.values - plain.eta_hat.values))
        / np.max(np.abs(eta.values))
        <= 1e-9
    )


def test_symplectic_validation():
    S = sheared_parallelogram_support(T=1.0, P=8)
    _, _, G, Z = _roundtrip(S, seed=52)
    with pytest.raises(NonIntegerChirpPeriod):
        recover_symplectic(Z, G, S, a=0.4 * S.omega)
    with pytest.raises(ShearNotRectifiable):
        bad = CellSupport(T=1.0, L=3, P=8, cells=[(0, 0), (0, 1), (0, 2), (1, 0)])
        recover_symplectic(np.zeros((24, 8)), G, bad, a=S.omega)
    shifted = CellSupport(T=1.0, L=3, P=8, cells=S.cells, shift=(1.0, 0.0))
    with pytest.raises(InvalidParameters):
        recover_symplectic(Z, G, shifted, a=S.omega)
    S_odd = sheared_parallelogram_support(T=1.0, P=5)
    with pytest.raises(InvalidParameters):
        recover_symplectic(np.zeros((15, 5)), G, S_odd, a=S_odd.omega)


def test_stability_bracket():
    S = staircase_support(T=1.0, P=8)
    window = generate_window(3, seed=53)
    g = IdentifierTrain(T=S.T, weights=window)
    G = build_gabor_matrix(window)
    sig_lo, sig_hi = np.inf, 0.0
    for cls in rectify(S).classes:
        if not cls.cells:
            continue
        A = G.entries[:, [q * S.L + m for q, m in cls.cells]]
        s = np.linalg.svd(A, compute_uv=False)
        sig_lo, sig_hi = min(sig_lo, s[-1]), max(sig_hi, s[0])
    lo = sig_lo * S.omega / math.sqrt(S.P)
    hi = sig_hi * S.omega / math.sqrt(S.P)
    for seed in range(100):
        eta = random_spreading(S, seed=600 + seed)
        resp = apply_channel(eta, g)
        ratio = np.linalg.norm(resp.samples) / np.linalg.norm(eta.values)
        assert lo - 1e-12 <= ratio <= hi + 1e-12


def test_method_agreement():
    S = staircase_support(T=1.0, P=8)
    eta, g, G, Z = _roundtrip(S, seed=54)
    sharp = recover_eta_known_support(Z, G, S).eta_hat.values
    smooth = recover_eta_smooth(
        Z, G, S, smooth_windows(S.T, S.omega, S.dt, S.P)
    ).eta_hat.values
    sym = recover_symplectic(Z, G, S, a=0.0).eta_hat.values
    scale = np.max(np.abs(sharp))
    assert np.max(np.abs(sharp - smooth)) <= 1e-9 * scale
    assert np.max(np.abs(sharp - sym)) <= 1e-9 * scale
