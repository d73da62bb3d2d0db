"""Channel simulator: responses, Zak transform, quasiperiodization, system identity."""

import cmath
import dataclasses
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
    Window,
    apply_channel,
    assemble_system,
    build_gabor_matrix,
    generate_window,
    impulse_response,
    inverse_zak,
    quasiperiodize,
    random_spreading,
    relative_l2_error,
    zak_transform,
)
from opsample.channel import _lag_kernel, _unit_phase
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

    r, s = np.argwhere(~S.mask)[0]
    for x in (1.0, 1e-300j, np.nan, complex(0, np.nan), np.inf):  # nonzero or NaN outside
        bad = good.values.copy()
        bad[r, s] = x
        with pytest.raises(InvalidParameters, match="vanish outside"):
            DiscreteSpreadingFunction(support=S, values=bad)
    zeros = good.values.copy()
    zeros[~S.mask] = complex(-0.0, -0.0)  # -0.0 vanishes
    DiscreteSpreadingFunction(support=S, values=zeros)

    r, s = np.argwhere(S.mask)[0]
    for x in (np.nan, np.inf, complex(1, -np.inf), complex(np.nan, 0)):  # non-finite inside
        bad = good.values.copy()
        bad[r, s] = x
        with pytest.raises(InvalidParameters, match="finite"):
            DiscreteSpreadingFunction(support=S, values=bad)


def test_relative_l2_error_refuses_another_grid():
    S = staircase_support(T=1.0, P=4)
    estimate = random_spreading(S, seed=2)
    shifted = CellSupport(T=1.0, L=3, P=4, cells=S.cells, shift=(S.dt, 0.0))
    # a ground truth on another grid is refused, not broadcast or misaligned
    other_T = random_spreading(staircase_support(T=2.0, P=4), seed=1)
    with pytest.raises(GridMismatch):
        relative_l2_error(estimate, other_T)
    # the truth carries its grid: bare samples, even of the estimate's shape, are refused
    for truth in (np.zeros((24, 24)), estimate.values, None):
        with pytest.raises(InvalidParameters, match="truth must be a DiscreteSpreadingFunction"):
            relative_l2_error(estimate, truth)
    for truth in (random_spreading(shifted, seed=1), random_spreading(staircase_support(P=8))):
        with pytest.raises(GridMismatch, match="another grid"):
            relative_l2_error(estimate, truth)


def test_relative_l2_error_values():
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=2)
    zero = DiscreteSpreadingFunction(support=S, values=np.zeros(S.mask.shape))
    assert relative_l2_error(zero, zero) == 0.0  # both vanish
    assert relative_l2_error(eta, zero) == float("inf")  # only the truth vanishes
    half = DiscreteSpreadingFunction(support=S, values=eta.values / 2)
    assert relative_l2_error(half, eta) == 0.5


def test_random_spreading_seeded():
    S = staircase_support(T=0.5, P=4)
    a = random_spreading(S, seed=7)
    b = random_spreading(S, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(random_spreading(S, seed=np.uint32(7)).values, a.values)
    for seed in (-1, 1.5, True, "7"):  # the window draws' seed rule
        with pytest.raises(InvalidParameters, match="seed must be an integer >= 0"):
            random_spreading(S, seed=seed)
    assert np.all(a.values[~S.mask] == 0)
    assert np.any(a.values[S.mask] != 0)


def _bits(a):
    return np.atleast_1d(np.asarray(a, dtype=complex)).view(np.uint64)


def test_random_spreading_draw_is_bit_identical_to_a_plus_ib():
    S = staircase_support(T=1.0, P=16)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        want = rng.standard_normal(S.mask.shape) + 1j * rng.standard_normal(S.mask.shape)
        want[~S.mask] = 0
        np.testing.assert_array_equal(_bits(random_spreading(S, seed=seed).values), _bits(want))


def test_unit_phase_is_bit_identical_to_the_direct_exponential():
    N = 3 * 64**2
    rng = np.random.default_rng(0)
    for d in (*range(1, 65), 192, 12288, 2 * N):
        # negative numerators, 0-d numerators and 2-d grids reduce to the same entries
        for num in (
            rng.integers(-5 * d, 5 * d, size=40),
            np.asarray(-d - 1),
            np.asarray(7 * d + 3),
            -np.multiply.outer(np.arange(-3, 9), np.arange(5, 16)),
        ):
            want = np.exp(2j * np.pi * (num % d) / d)
            got = _unit_phase(num, d)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_unit_phase_returns_a_copy_of_the_table():
    a = _unit_phase(np.arange(6), 6)
    a *= 2.0
    np.testing.assert_array_equal(_bits(_unit_phase(np.arange(6), 6)),
                                  _bits(np.exp(2j * np.pi * np.arange(6) / 6)))


def _add_at(shape, index, values):
    out = np.zeros(shape, dtype=complex)
    np.add.at(out, index, values)
    return out


def test_quasiperiodize_is_bit_identical_to_add_at_on_colliding_indices():
    # a shifted support whose time translates fold onto one subcell
    base = translate_collision_support(L=3, T=1.0, P=4)
    S = CellSupport(T=1.0, L=3, P=4, mask=base.mask, shift=(-5 * base.dt, 7 * base.dnu))
    eta = random_spreading(S, seed=4)
    rows, cols, k, i, j = S.subcells
    k, i, j = k[rows], i[rows], j[cols]
    LP = S.L * S.P
    assert len(np.unique(i * LP + j)) < i.size
    terms = eta.values[rows, cols] * _unit_phase(-j * k, S.P)
    want = _add_at((LP, LP), (i, j), terms)
    np.testing.assert_array_equal(_bits(quasiperiodize(eta)), _bits(want))


def test_lag_kernel_folds_lines_as_add_at_does():
    L, P = 3, 4
    LP, N = L * P, L * P * P
    base = staircase_support(T=1.0, P=P)
    shifted = CellSupport(T=1.0, L=L, P=P, cells=base.cells, shift=(2 * base.dt, 9 * base.dnu))
    # more nu-lines than L*P^2: lines collide, and the fold wraps at either length
    wide = CellSupport(T=1.0, L=L, P=P, mask=np.ones((5, N + 5), dtype=bool),
                       shift=(0.0, 7 * base.dnu))
    for S, lengths in ((shifted, (LP,)), (wide, (LP, N))):
        values = random_spreading(S, seed=3).values
        for lags in lengths:
            assert S.offsets[1] + values.shape[1] > lags
            V = _add_at((values.shape[0], lags),
                        (slice(None), (S.offsets[1] + np.arange(values.shape[1])) % lags),
                        values)
            np.testing.assert_array_equal(_bits(_lag_kernel(S, values, lags)),
                                          _bits(np.fft.ifft(V, axis=1)))


def test_train_rate_and_period():
    g = _train(0.5, [1.0, 0.0, 2.0])
    # [TRIVIAL] two nonzero weights per period 3T with T = 1/2
    assert abs(g.rate - 2 / 1.5) < 1e-15
    assert g.period == 3

    # kappa = L*T*a = 1 (odd) with L = 3 odd: the chirped weights have period 2L
    chirped = _train(0.5, [1.0, 0.0, 2.0], chirp_a=2.0 / 3.0)
    assert chirped.kappa == 1
    assert chirped.period == 6
    w = chirped.effective_weights(np.arange(12))
    np.testing.assert_allclose(w[:6], w[6:], atol=1e-15)
    assert np.max(np.abs(w[:3] - np.asarray([1.0, 0.0, 2.0]))) > 0.1  # phases bite

    # even kappa keeps period L
    even = _train(0.5, [1.0, 0.0, 2.0], chirp_a=4.0 / 3.0)
    assert even.period == 3

    with pytest.raises(NonIntegerChirpPeriod):
        _train(0.5, [1.0, 0.0, 2.0], chirp_a=0.4)
    for a in (float("nan"), float("inf")):
        with pytest.raises(NonIntegerChirpPeriod):
            _train(0.5, [1.0, 0.0, 2.0], chirp_a=a)


def test_train_is_frozen_and_derives_its_kappa_once():
    g = _train(0.5, [1.0, 0.0, 2.0], chirp_a=2.0 / 3.0)
    assert g.kappa == 1 and type(g.kappa) is int
    # a rebound field skipped the checks: T = nan made apply_channel raise a misleading
    # NonIntegerChirpPeriod, a bare weight vector an AttributeError
    for name, value in (("T", float("nan")), ("weights", np.array([1, 2, 3])), ("chirp_a", 0.4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    assert (g.T, g.chirp_a, g.kappa, g.period) == (0.5, 2.0 / 3.0, 1, 6)
    # an off-grid chirp is refused where the train is made, not where it is applied
    for a in (0.4, float("nan"), float("inf")):
        with pytest.raises(NonIntegerChirpPeriod, match="is not an integer"):
            _train(0.5, [1.0, 0.0, 2.0], chirp_a=a)


def test_train_rejects_non_finite_T():
    for T in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(InvalidParameters):
            _train(T, [1.0, 0.0, 2.0])


def test_train_refuses_weights_that_are_not_a_window():
    # a bare vector failed later, in apply_channel and .rate, with an AttributeError
    for weights in (np.ones(3), [1.0, 1.0, 1.0], None):
        with pytest.raises(InvalidParameters, match="must be a Window"):
            IdentifierTrain(T=1.0, weights=weights)


def test_response_refuses_a_non_integer_grid_or_a_bad_T():
    # a float L or P passed the shape check and failed later, in zak_transform
    for T, L, P in ((1.0, 3.0, 4), (1.0, 3, 4.0), (1.0, 3.0, 4.0), (1.0, True, 4), (1.0, 0, 4),
                    (float("nan"), 3, 4), (float("inf"), 3, 4), (0.0, 3, 4), (-1.0, 3, 4)):
        with pytest.raises(InvalidParameters):
            ChannelResponse(np.zeros(48), T=T, L=L, P=P)
    Z = zak_transform(ChannelResponse(np.ones(48), T=1.0, L=np.int64(3), P=4))
    for T, L in ((1.0, 3.0), (float("nan"), 3)):
        with pytest.raises(InvalidParameters):
            inverse_zak(Z, T, L, 4)


def test_spreading_and_response_own_read_only_copies():
    S = staircase_support(T=1.0, P=4)
    values = random_spreading(S, seed=0).values.copy()
    eta = DiscreteSpreadingFunction(support=S, values=values)
    samples = np.ones(3 * 4 * 4, dtype=complex)
    f = ChannelResponse(samples, T=1.0, L=3, P=4)
    kept = eta.values.tobytes(), f.samples.tobytes()
    values[S.mask] = np.nan  # editing the caller's arrays cannot bypass the checks
    values[~S.mask] = 1.0
    samples[:] = np.nan
    assert (eta.values.tobytes(), f.samples.tobytes()) == kept
    for array in (eta.values, f.samples, random_spreading(S, seed=1).values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan
    for obj, name in ((eta, "values"), (eta, "support"), (f, "samples"), (f, "L")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


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


@pytest.mark.parametrize("x, t", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.0)])
def test_impulse_response_rejects_non_finite(x, t):
    eta = random_spreading(staircase_support(T=1.0, P=4), seed=3)
    with pytest.raises(InvalidParameters):
        impulse_response(eta, np.array([0.5, x]), t)


def test_effective_weights_reduce_large_kappa():
    # the weights depend on kappa mod 2L: a kappa past int64 keeps the bits of its residue
    c = [1.0 + 0.5j, -0.25, 2.0]
    n = np.arange(-7, 15)
    for big in (2.0**51 + 1, 1e300):  # kappa = 3 * big
        residue = int(3 * big) % 6
        np.testing.assert_array_equal(
            _train(1.0, c, chirp_a=big).effective_weights(n),
            _train(1.0, c, chirp_a=residue / 3).effective_weights(n),
        )


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
        assert got.x_step == S.T / S.P
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


def _apply_channel_every_row(eta, g):
    """Dense-row reference: every stored row folds and scatters, active or not."""
    S = eta.support
    L, P = S.L, S.P
    N, n = L * P * P, np.arange(L * P)
    h = _lag_kernel(S, eta.values, L * P)
    h *= S.dnu * (L * P)
    rows = S.offsets[0] + np.arange(h.shape[0])
    return _add_at(N, np.add.outer(rows, n * P) % N, g.effective_weights(n) * h)


def test_apply_channel_skips_empty_rows_without_changing_a_bit():
    rng = np.random.default_rng(17)
    for L in (2, 3, 4, 5):
        P = 4
        window = generate_window(L, seed=L)
        for trial in range(6):
            # fewer than L cells leave some mask rows empty
            cells = [divmod(int(c), L) for c in rng.choice(L * L, rng.integers(1, L), False)]
            i0, j0 = (0, 0) if trial == 0 else rng.integers(-2 * L * P, 2 * L * P, size=2)
            S = CellSupport(T=1.0, L=L, P=P, cells=cells, shift=(i0 / P, j0 / (L * P)))
            assert not S.mask.any(axis=1).all()
            values = random_spreading(S, seed=trial).values.copy()
            values[~S.mask] = complex(-0.0, -0.0)  # empty rows of -0.0 add nothing either
            eta = DiscreteSpreadingFunction(support=S, values=values)
            for kappa in (0, 1, 2):  # plain and chirped trains
                g = IdentifierTrain(T=1.0, weights=window, chirp_a=kappa / L)
                got = apply_channel(eta, g).samples
                assert got.tobytes() == _apply_channel_every_row(eta, g).tobytes(), (L, trial)
    # overflow rows of a lattice translate
    S = translate_collision_support(L=3, T=1.0, P=4)
    eta = random_spreading(S, seed=3)
    g = _train(1.0, [1.0, 0.3 - 0.7j, -0.5])
    assert apply_channel(eta, g).samples.tobytes() == _apply_channel_every_row(eta, g).tobytes()


def _apply_channel_by_bincount(eta, g):
    """Reference: the element-by-element scatter as bincount sums, re and im apart, of each
    active row's L*P terms at samples (i0 + r + n*P) mod N."""
    S = eta.support
    L, P = S.L, S.P
    N, n = L * P * P, np.arange(L * P)
    rows = np.flatnonzero(S.mask.any(axis=1))
    h = _lag_kernel(S, eta.values[rows], L * P)
    h *= S.dnu * (L * P)
    index = (np.add.outer(S.offsets[0] + rows, n * P) % N).ravel()
    terms = (g.effective_weights(n) * h).ravel()
    out = np.empty(N, dtype=complex)
    out.real = np.bincount(index, weights=terms.real, minlength=N)
    out.imag = np.bincount(index, weights=terms.imag, minlength=N)
    return out


def test_apply_channel_scatters_with_the_bits_of_the_bincount_formula():
    # shifted, spilling (more stored rows than the N = L*P^2 samples), sparse-row and
    # period-2L chirped inputs: every sample adds its terms in the bincount's order
    rng = np.random.default_rng(23)
    supports = []
    for L, P, (i0, j0) in ((3, 4, (5, -3)), (3, 8, (-29, 11)), (5, 16, (-7, 40)), (2, 2, (0, 0))):
        cells = [divmod(int(c), L) for c in rng.choice(L * L, L, replace=False)]
        supports.append(CellSupport(T=1.0, L=L, P=P, cells=cells, shift=(i0 / P, j0 / (L * P))))
        sparse = rng.random((L * P, L * P)) < 0.2  # rows stay empty, active ones split in runs
        sparse[rng.choice(L * P, L * P // 2, replace=False)] = False
        supports.append(CellSupport(T=1.0, L=L, P=P, mask=sparse, shift=(i0 / P, 0.0)))
    for L, P, rows in ((2, 2, 13), (3, 2, 2 * 3 * 2 * 2 + 3)):  # stored rows past N
        supports.append(CellSupport(T=1.0, L=L, P=P, mask=np.ones((rows, L * P + 1), dtype=bool),
                                    shift=(-1 / P, 0.0)))
    supports.append(CellSupport(T=1.0, L=3, P=4, mask=np.zeros((12, 12), dtype=bool)))  # no row
    for trial, S in enumerate(supports):
        eta = random_spreading(S, seed=trial)
        window = generate_window(S.L, seed=trial)
        for kappa in (0, 1, 2):  # kappa*L odd: period-2L weights, on the even-P grids only
            if (kappa * S.L) % 2 and S.P % 2:
                continue
            g = IdentifierTrain(T=1.0, weights=window, chirp_a=kappa / S.L)
            got = apply_channel(eta, g).samples
            assert got.tobytes() == _apply_channel_by_bincount(eta, g).tobytes(), (trial, kappa)
    assert max(len(S.mask) - S.L * S.P**2 for S in supports) > 0


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
    f = ChannelResponse(samples=samples, T=T, L=L, P=P)
    Z = zak_transform(f)
    np.testing.assert_allclose(Z, zak_oracle(samples, L, P), atol=1e-12)

    back = inverse_zak(Z, T, L, P)
    np.testing.assert_allclose(back.samples, samples, atol=1e-12)
    assert f.x_step == back.x_step == T / P

    # energy: the Zak cell holds P copies of the superperiod energy
    assert abs(np.sum(np.abs(Z) ** 2) - P * np.sum(np.abs(samples) ** 2)) < 1e-9


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


def _identity_system(S, seed):
    """(eta_qp, Z, G) for a random eta on S probed with a random unimodular window."""
    eta = random_spreading(S, seed=seed)
    c = np.exp(2j * np.pi * np.random.default_rng(seed + 1).random(S.L))
    g = _train(S.T, c)
    return quasiperiodize(eta), zak_transform(apply_channel(eta, g)), build_gabor_matrix(g.weights)


def _check_system_identity(S, seed, tol=1e-10):
    eta_qp, Z, G = _identity_system(S, seed)
    t, nu = np.indices((S.P, S.P))
    worst = assemble_system(eta_qp, Z, G, t, nu, S.T).residual(G)
    assert worst <= tol, f"system identity residual {worst}"


def _shifted_staircase():
    base = staircase_support(T=0.5, P=4)
    return CellSupport(T=0.5, L=3, P=4, cells=base.cells, shift=(1.0, -2 * base.dnu))


def test_system_identity_staircase():
    _check_system_identity(staircase_support(T=1.0, P=8), seed=100)


def test_system_identity_shifted():
    _check_system_identity(_shifted_staircase(), seed=200)


def test_system_identity_without_injectivity():
    # the identity is algebraic: it holds even when the support is too big to invert
    _check_system_identity(translate_collision_support(L=3, T=1.0, P=4), seed=300)


@pytest.mark.parametrize(
    "make_support",
    [
        lambda: staircase_support(T=1.0, P=8),
        _shifted_staircase,
        lambda: translate_collision_support(L=3, T=1.0, P=4),
        lambda: CellSupport(T=1.0, L=2, P=6, cells=[(0, 1), (1, 0)]),
        lambda: CellSupport(T=0.5, L=5, P=4, cells=[(q, 2 * q % 5) for q in range(5)]),
    ],
    ids=["staircase", "shifted", "collision", "L2", "L5"],
)
def test_batched_system_is_the_per_point_system(make_support):
    # index arrays give each point the bits of its own scalar call, a scalar call's
    # residual has the bits of the unbatched np.linalg.norm formula, and the batched
    # residual is the largest per-point residual, bit for bit
    S = make_support()
    eta_qp, Z, G = _identity_system(S, seed=400 + S.L)
    t, nu = np.indices((S.P, S.P))
    batch = assemble_system(eta_qp, Z, G, t, nu, S.T)
    assert batch.z.shape == (S.L, S.P, S.P) and batch.eta_vec.shape == (S.L**2, S.P, S.P)
    worst = 0.0
    for u in range(S.P):
        for v in range(S.P):
            single = assemble_system(eta_qp, Z, G, u, v, S.T)
            np.testing.assert_array_equal(batch.z[:, u, v], single.z)
            np.testing.assert_array_equal(batch.eta_vec[:, u, v], single.eta_vec)
            r = np.linalg.norm(single.z - G.entries @ single.eta_vec)
            assert single.residual(G) == r / (1.0 + np.linalg.norm(single.eta_vec))
            worst = max(worst, single.residual(G))
    assert batch.residual(G) == worst
    # a flat list of points, and a scalar broadcast against an array, agree too
    flat = assemble_system(eta_qp, Z, G, t.ravel()[::-1], nu.ravel()[::-1], S.T)
    assert flat.residual(G) == worst
    row = assemble_system(eta_qp, Z, G, 1, np.arange(S.P), S.T)
    np.testing.assert_array_equal(row.z, batch.z[:, 1])


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
    # T sets Omega = 1/(L*T): 0 divided by zero, -1 fit a wrong system, nan gave NaN vectors
    for T in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameters, match="T must be finite and positive"):
            assemble_system(qp, Z, G, 0, 0, T)
    # one out-of-range entry refuses the whole index array
    t, nu = np.indices((4, 4))
    for bad_t, bad_nu in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        t2, nu2 = t.copy(), nu.copy()
        t2[2, 3], nu2[2, 3] = bad_t, bad_nu
        with pytest.raises(IndexOutOfRange):
            assemble_system(qp, Z, G, t2, nu2, S.T)


def test_assemble_system_refuses_non_integer_base_points():
    # a float index used to fail in numpy's indexing, and True passed as index 1
    S = staircase_support(T=1.0, P=4)
    eta = random_spreading(S, seed=1)
    g = _train(1.0, [1.0, 1.0, 1.0])
    G = build_gabor_matrix(g.weights)
    Z = zak_transform(apply_channel(eta, g))
    qp = quasiperiodize(eta)
    t, nu = np.indices((4, 4))
    for bad_t, bad_nu in (
        (1.5, 0), (0, 1.5), (1.0, 0), (True, 0), (0, True), (np.True_, 2),
        (t.astype(float), nu), (t, nu.astype(float)), (t > 1, nu), (t, [0.0, 1.0, 2.0, 3.0]),
    ):
        with pytest.raises(InvalidParameters, match="must be integers"):
            assemble_system(qp, Z, G, bad_t, bad_nu, S.T)
    for good_t, good_nu in ((np.int32(1), np.uint8(2)), (t.astype(np.int16), nu.astype(np.uint16))):
        assert assemble_system(qp, Z, G, good_t, good_nu, S.T).residual(G) < 1e-12


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
