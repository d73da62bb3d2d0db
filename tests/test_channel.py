"""Channel simulator: responses, Zak transform, quasiperiodization, system identity."""

import cmath
import math

import numpy as np
import pytest

from opsample import (
    ChannelResponse,
    CellSupport,
    DiscreteSpreadingFunction,
    GridMismatch,
    IdentifierTrain,
    IndexOutOfRange,
    InvalidParameters,
    NonIntegerChirpPeriod,
    UnsupportedZakPeriod,
    Window,
    apply_channel,
    assemble_system,
    build_gabor_matrix,
    impulse_response,
    inverse_zak,
    quasiperiodize,
    random_spreading,
    zak_transform,
)
from opsample.presets import staircase_support, translate_collision_support

from oracles import (
    channel_response_oracle,
    impulse_response_oracle,
    quasiperiodize_oracle,
    zak_oracle,
)


def _train(T, c, chirp_a=0.0):
    return IdentifierTrain(T=T, weights=Window(L=len(c), weights=np.asarray(c)), chirp_a=chirp_a)


def test_spreading_validation():
    S = staircase_support(T=1.0, P=4)
    good = random_spreading(S, seed=0)
    assert good.values.shape == S.mask.shape

    with pytest.raises(GridMismatch):
        DiscreteSpreadingFunction(support=S, values=np.zeros((3, 3)))

    bad = np.zeros(S.mask.shape, dtype=complex)
    bad[~S.mask] = 1.0
    with pytest.raises(InvalidParameters):
        DiscreteSpreadingFunction(support=S, values=bad)

    r, s = np.argwhere(S.mask)[0]
    for x in (np.nan, np.inf):
        bad = good.values.copy()
        bad[r, s] = x
        with pytest.raises(InvalidParameters):
            DiscreteSpreadingFunction(support=S, values=bad)


def test_random_spreading_seeded():
    S = staircase_support(T=0.5, P=4)
    a = random_spreading(S, seed=7)
    b = random_spreading(S, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.all(a.values[~S.mask] == 0)
    assert np.any(a.values[S.mask] != 0)
    # [TRIVIAL] grid L2 uses the subcell area T*Omega/P^2
    expected = math.sqrt(np.sum(np.abs(a.values) ** 2) * S.dt * S.dnu)
    assert abs(a.grid_l2 - expected) < 1e-15


def test_train_rate_and_period():
    g = _train(0.5, [1.0, 0.0, 2.0])
    # [TRIVIAL] two nonzero weights per period 3T with T = 1/2
    assert abs(g.rate - 2 / 1.5) < 1e-15
    assert g.period == 3

    # kappa = L*T*a = 1 (odd) with L = 3 odd: the chirped weights have period 2L
    chirped = _train(0.5, [1.0, 0.0, 2.0], chirp_a=2.0 / 3.0)
    assert chirped.chirp_kappa() == 1
    assert chirped.period == 6
    w = chirped.effective_weights(np.arange(12))
    np.testing.assert_allclose(w[:6], w[6:], atol=1e-15)
    assert np.max(np.abs(w[:3] - np.asarray([1.0, 0.0, 2.0]))) > 0.1  # phases bite

    # even kappa keeps period L
    even = _train(0.5, [1.0, 0.0, 2.0], chirp_a=4.0 / 3.0)
    assert even.period == 3

    with pytest.raises(NonIntegerChirpPeriod):
        _train(0.5, [1.0, 0.0, 2.0], chirp_a=0.4).chirp_kappa()
    for a in (float("nan"), float("inf")):
        with pytest.raises(NonIntegerChirpPeriod):
            _train(0.5, [1.0, 0.0, 2.0], chirp_a=a).chirp_kappa()


def test_train_rejects_non_finite_T():
    for T in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(InvalidParameters):
            _train(T, [1.0, 0.0, 2.0])


def test_effective_weights_match_definition():
    g = _train(1.0, [1.0 + 0.5j, -0.25, 2.0], chirp_a=1.0)  # kappa = 3
    n = np.arange(-7, 15)
    expected = np.array(
        [
            g.weights.weights[k % 3] * cmath.exp(1j * math.pi * 1.0 * 1.0 * k * k)
            for k in n
        ]
    )
    np.testing.assert_allclose(g.effective_weights(n), expected, atol=1e-12)


def test_impulse_response_matches_oracle():
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=3)
    xs = np.array([0.3, 1.7, 2.25, 5.0])
    for row in (0, 5, 9):
        t = (row + S.offsets[0]) * S.dt
        got = impulse_response(eta, xs, t)
        want = np.array(
            [
                impulse_response_oracle(eta.values, S.offsets, S.dnu, x - t, row)
                for x in xs
            ]
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_impulse_response_validation():
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=3)
    with pytest.raises(GridMismatch):
        impulse_response(eta, 0.0, 0.3)  # t not on the T/P grid
    with pytest.raises(IndexOutOfRange):
        impulse_response(eta, 0.0, -S.dt)


def test_apply_channel_matches_oracle():
    # the collision preset's overflow rows wrap the scatter past L*P^2; the
    # wide mask's nu-lines (more than L*P^2 columns) collide in the fold
    wide = CellSupport(T=1.0, L=3, P=4, mask=np.ones((6, 3 * 4**2 + 2), dtype=bool))
    g = _train(1.0, [1.0, 0.3 - 0.7j, -0.5])
    for S in (staircase_support(T=1.0, P=4), translate_collision_support(L=3, T=1.0, P=4), wide):
        eta = random_spreading(S, seed=11)
        got = apply_channel(eta, g)
        want = channel_response_oracle(
            eta.values, S.offsets, S.T, S.L, S.P, g.weights.weights
        )
        assert got.samples.shape == (S.L * S.P**2,)
        assert abs(got.x_step - S.T / S.P) < 1e-15
        np.testing.assert_allclose(got.samples, want, atol=1e-10)


def test_apply_channel_shifted_support_matches_oracle():
    # same staircase, shifted by five subcells in t and -3 subcells in nu
    P = 4
    base = staircase_support(T=0.5, P=P)
    S = CellSupport(T=0.5, L=3, P=P, cells=base.cells, shift=(5 * base.dt, -3 * base.dnu))
    rng = np.random.default_rng(5)
    values = (rng.standard_normal(S.mask.shape) + 1j * rng.standard_normal(S.mask.shape))
    values[~S.mask] = 0
    eta = DiscreteSpreadingFunction(support=S, values=values)
    g = _train(0.5, [0.9, -1.1, 0.4 + 0.2j])
    got = apply_channel(eta, g)
    want = channel_response_oracle(
        eta.values, S.offsets, S.T, S.L, S.P, g.weights.weights
    )
    np.testing.assert_allclose(got.samples, want, atol=1e-10)


def test_apply_channel_chirped_matches_oracle():
    a = 1.0 / 3.0  # kappa = L*T*a = 1, odd: period 6 needs even P
    g = _train(1.0, [1.0, 0.6j, -0.8], chirp_a=a)
    for S in (staircase_support(T=1.0, P=4), translate_collision_support(L=3, T=1.0, P=4)):
        eta = random_spreading(S, seed=2)
        got = apply_channel(eta, g)
        want = channel_response_oracle(
            eta.values, S.offsets, S.T, S.L, S.P, g.weights.weights, chirp_a=a
        )
        np.testing.assert_allclose(got.samples, want, atol=1e-10)


def test_apply_channel_validation():
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=0)
    with pytest.raises(GridMismatch):
        apply_channel(eta, _train(2.0, [1.0, 1.0, 1.0]))  # wrong T
    with pytest.raises(GridMismatch):
        apply_channel(eta, _train(1.0, [1.0, 1.0]))  # wrong L
    with pytest.raises(NonIntegerChirpPeriod):
        apply_channel(eta, _train(1.0, [1.0, 1.0, 1.0], chirp_a=0.2))

    S_odd = staircase_support(T=1.0, P=5)
    eta_odd = random_spreading(S_odd, seed=0)
    with pytest.raises(InvalidParameters):
        # kappa odd and L odd: period 2L, which does not divide L*P for odd P
        apply_channel(eta_odd, _train(1.0, [1.0, 1.0, 1.0], chirp_a=1.0 / 3.0))


def test_linearity():
    S = staircase_support(T=1.0, P=4)
    e1 = random_spreading(S, seed=21)
    e2 = random_spreading(S, seed=22)
    g = _train(1.0, [1.0, -0.4, 0.25j])
    mix = DiscreteSpreadingFunction(support=S, values=2.0 * e1.values - 1j * e2.values)
    got = apply_channel(mix, g).samples
    want = 2.0 * apply_channel(e1, g).samples - 1j * apply_channel(e2, g).samples
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_zak_matches_oracle_and_inverts():
    L, P, T = 2, 4, 0.75
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(L * P * P) + 1j * rng.standard_normal(L * P * P)
    f = ChannelResponse(samples=samples, x_step=T / P, T=T, L=L, P=P)
    Z = zak_transform(f)
    np.testing.assert_allclose(Z, zak_oracle(samples, L, P), atol=1e-12)

    back = inverse_zak(Z, T, L, P)
    np.testing.assert_allclose(back.samples, samples, atol=1e-12)

    # energy: the Zak cell holds P copies of the superperiod energy
    assert abs(np.sum(np.abs(Z) ** 2) - P * np.sum(np.abs(samples) ** 2)) < 1e-9

    with pytest.raises(UnsupportedZakPeriod):
        zak_transform(f, a=T)  # only a = L*T is meaningful here


def test_zak_period_argument():
    L, P, T = 3, 4, 1.0
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(L * P * P) + 0j
    f = ChannelResponse(samples=samples, x_step=T / P, T=T, L=L, P=P)
    np.testing.assert_allclose(zak_transform(f, a=L * T), zak_transform(f), atol=0)


def test_quasiperiodize_matches_oracle():
    # the collision preset overflows the t-superperiod, so the k = 1 fold phases fire
    S = translate_collision_support(L=3, T=1.0, P=4)
    rng = np.random.default_rng(13)
    values = rng.standard_normal(S.mask.shape) + 1j * rng.standard_normal(S.mask.shape)
    values[~S.mask] = 0
    eta = DiscreteSpreadingFunction(support=S, values=values)
    got = quasiperiodize(eta)
    want = quasiperiodize_oracle(values, S.offsets, S.L, S.P)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert got.shape == (S.L * S.P, S.L * S.P)


def test_quasiperiodize_negative_shift():
    P = 4
    base = staircase_support(T=1.0, P=P)
    S = CellSupport(T=1.0, L=3, P=P, cells=base.cells, shift=(-3.0, 2 * base.dnu))
    rng = np.random.default_rng(8)
    values = rng.standard_normal(S.mask.shape) + 1j * rng.standard_normal(S.mask.shape)
    values[~S.mask] = 0
    eta = DiscreteSpreadingFunction(support=S, values=values)
    np.testing.assert_allclose(
        quasiperiodize(eta),
        quasiperiodize_oracle(values, S.offsets, S.L, S.P),
        atol=1e-12,
    )


def _check_system_identity(S, seed, tol=1e-10):
    eta = random_spreading(S, seed=seed)
    c = np.exp(2j * np.pi * np.random.default_rng(seed + 1).random(S.L))
    g = _train(S.T, c)
    G = build_gabor_matrix(g.weights)
    Z = zak_transform(apply_channel(eta, g))
    eta_qp = quasiperiodize(eta)
    worst = 0.0
    for t in range(S.P):
        for nu in range(S.P):
            sample = assemble_system(eta_qp, Z, G, t, nu, S.T)
            worst = max(worst, sample.residual(G))
    assert worst <= tol, f"system identity residual {worst}"


def test_system_identity_staircase():
    _check_system_identity(staircase_support(T=1.0, P=8), seed=100)


def test_system_identity_shifted():
    base = staircase_support(T=0.5, P=4)
    S = CellSupport(T=0.5, L=3, P=4, cells=base.cells, shift=(1.0, -2 * base.dnu))
    _check_system_identity(S, seed=200)


def test_system_identity_without_injectivity():
    # the identity is algebraic: it holds even when the support is too big to invert
    _check_system_identity(translate_collision_support(L=3, T=1.0, P=4), seed=300)


def test_assemble_system_validation():
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=1)
    g = _train(1.0, [1.0, 1.0, 1.0])
    G = build_gabor_matrix(g.weights)
    Z = zak_transform(apply_channel(eta, g))
    qp = quasiperiodize(eta)
    with pytest.raises(IndexOutOfRange):
        assemble_system(qp, Z, G, 4, 0, S.T)
    with pytest.raises(IndexOutOfRange):
        assemble_system(qp, Z, G, 0, -1, S.T)
    with pytest.raises(GridMismatch):
        assemble_system(qp[:-1, :-1], Z, G, 0, 0, S.T)


def test_convolution_channel_response_is_periodized_kernel():
    # eta = kappa(t) x delta(nu): with c = (1, 0, ..., 0) the response is the
    # L*T-periodization of the impulse response, scaled by dnu
    T, L, P = 1.0, 3, 4
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[:, 0] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    rng = np.random.default_rng(4)
    values = np.zeros((L * P, L * P), dtype=complex)
    values[:, 0] = rng.standard_normal(L * P) + 1j * rng.standard_normal(L * P)
    eta = DiscreteSpreadingFunction(support=S, values=values)
    g = _train(T, [1.0, 0.0, 0.0])
    got = apply_channel(eta, g).samples
    want = S.dnu * np.tile(values[:, 0], P)
    np.testing.assert_allclose(got, want, atol=1e-12)
