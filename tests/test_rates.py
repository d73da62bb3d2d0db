"""Rate diagnostics: necessary bound, bunched plans, dead-time accounting."""

import numpy as np
import pytest

from opsample import (
    CellSupport,
    IdentifierTrain,
    InvalidParameters,
    NoPrimeInRange,
    SparkTargetUnmet,
    Window,
    apply_channel,
    bandwidth,
    build_gabor_matrix,
    bunched_window_plan,
    check_necessary,
    generate_window,
    random_spreading,
    rate_report,
    recover_eta_known_support,
    refine_support,
    sampling_rate,
    zak_transform,
)


def _train(T, weights):
    return IdentifierTrain(T=T, weights=Window(L=len(weights), weights=np.asarray(weights)))


def test_sampling_rate_counts_support():
    assert sampling_rate(_train(1.0, [1, 1, 1])) == 1.0
    assert sampling_rate(_train(1.0, [1, 0, 0])) == pytest.approx(1.0 / 3.0)
    # scaling the nonzero weights never moves the rate
    g = _train(0.5, [2.0, 0, 1j, 0, 0.25])
    assert sampling_rate(g) == sampling_rate(_train(0.5, [14.0, 0, 7j, 0, 1.75]))
    # a chirp reweights by unimodular phases, same support count
    chirped = IdentifierTrain(T=0.5, weights=g.weights, chirp_a=0.4)
    assert sampling_rate(chirped) == sampling_rate(g)
    # a tiny weight still counts: the train's own rate is the exact-nonzero count
    tiny = _train(1.0, [1, 1e-13, 0])
    assert tiny.weights.support_size() == 2
    assert tiny.rate == sampling_rate(tiny) == pytest.approx(2.0 / 3.0)


def test_dense_train_rate_is_L_times_omega():
    # 1/T = L*Omega: a dense period-3 train samples at three times the cell height
    L, T = 3, 1.0
    omega = 1.0 / (L * T)
    g = IdentifierTrain(T=T, weights=generate_window(L, seed=30))
    assert sampling_rate(g) == pytest.approx(3 * omega)


def test_check_necessary():
    L, P, T = 3, 4, 1.0
    omega = 1.0 / (L * T)
    # staircase-like support two cells high: B(S) = 2*Omega < 3*Omega = 1/T
    S = CellSupport(T=T, L=L, P=P, cells=[(0, 0), (0, 1), (2, 2)])
    assert bandwidth(S) == pytest.approx(2 * omega)
    dense = IdentifierTrain(T=T, weights=generate_window(L, seed=31))
    assert check_necessary(dense, S)

    # full-height column: B(S) = 1/T; a single delta per period falls short
    tall = CellSupport(T=T, L=L, P=P, cells=[(1, 0), (1, 1), (1, 2)])
    assert not check_necessary(_train(T, [1, 0, 0]), tall)

    # time-invariant channel: one subcell row of nu-extent, B at the grid floor
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[:, 0] = True
    flat = CellSupport(T=T, L=L, P=P, mask=mask)
    assert bandwidth(flat) == pytest.approx(flat.dnu)
    assert check_necessary(_train(T, [1]), flat)


def test_rate_report_fields():
    L, P, T = 3, 4, 1.0
    S = CellSupport(T=T, L=L, P=P, cells=[(0, 0), (1, 1)])
    g = _train(T, [1, 1, 0])
    rep = rate_report(g, S, eps=0.5)
    assert rep.rate == pytest.approx(2.0 / 3.0)
    assert rep.area == pytest.approx(2.0 / 3.0)  # two cells of area 1/L each
    assert rep.necessary_ok
    assert rep.sufficient_margin == pytest.approx(S.area * 1.5 - 2.0 / 3.0)
    # memory K = right edge of cell q=1 -> 2T; dead time 1 - (2T + 2T)/(3T)
    assert rep.dead_time_fraction == pytest.approx(1.0 - 4.0 / 3.0)
    assert rate_report(g, S).sufficient_margin is None


def test_refine_support_preserves_region():
    L, P, T = 3, 2, 0.5
    S = CellSupport(T=T, L=L, P=P, cells=[(0, 1), (2, 0)])
    R = refine_support(S, 7)
    assert (R.L, R.P) == (7, 6)
    assert R.area == pytest.approx(S.area)
    assert R.dt == pytest.approx(S.dt / L)
    # nu-span of both grids is 1/T; the refined mask tiles each old pixel
    assert R.mask.sum() == S.mask.sum() * L * 7
    assert refine_support(S, 3) is S
    with pytest.raises(InvalidParameters):
        refine_support(S, 2)


def test_bunched_plan_small_strip():
    # one t-column, nu-extent Omega/3: area 1/9.  The first prime whose cell
    # cover beats (1/9)(1.1) is 17 (2/11 and 2/13 both miss), with 2 cells.
    L, P, T = 3, 6, 1.0
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[0:P, 0:2] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    window, rep = bunched_window_plan(S, eps=0.1, seed=5)
    assert window.L == 17
    k = np.count_nonzero(window.weights)
    assert k == 2
    assert np.count_nonzero(window.weights[k:]) == 0  # bunched at the start
    assert k <= int(np.ceil(window.L * S.area * 1.1))
    assert rep.rate == pytest.approx(k / (T * window.L))
    assert rep.rate < 0.2 / T
    assert rep.sufficient_margin == pytest.approx(S.area * 1.1 - k / window.L)
    assert rep.sufficient_margin > 0
    assert rep.necessary_ok
    # memory K = T (support ends at the first cell edge)
    assert rep.dead_time_fraction == pytest.approx(1.0 - (2 * T + T) / (17 * T))


def test_bunched_plan_round_trip():
    L, P, T = 3, 6, 1.0
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[0:P, 0:2] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    window, _ = bunched_window_plan(S, eps=0.1, seed=5)
    refined = refine_support(S, window.L)
    eta = random_spreading(refined, seed=9)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=T, weights=window)))
    report = recover_eta_known_support(Z, build_gabor_matrix(window), refined, eta_true=eta)
    assert report.relative_l2_error <= 1e-9


def test_bunched_plan_near_full_area():
    # |S| = 4/5 leaves little headroom: the plan degenerates to a near-full
    # window on the support's own (prime) modulus with a thin margin
    S = CellSupport(T=1.0, L=5, P=2, cells=[(0, 0), (1, 2), (2, 4), (3, 1)])
    window, rep = bunched_window_plan(S, eps=0.1, seed=11)
    assert window.L == 5
    assert np.count_nonzero(window.weights) == 4
    assert 0 < rep.sufficient_margin < 0.1
    # response occupies the whole period: no dead time left
    assert rep.dead_time_fraction <= 0.0


def test_bunched_plan_regrids_composite_modulus():
    # L = 4 is not prime; the single cell re-covers at the first workable prime
    S = CellSupport(T=1.0, L=4, P=2, cells=[(0, 0)])
    window, rep = bunched_window_plan(S, eps=0.5, seed=13)
    assert window.L == 7  # 2/5 and 2/7: only 2/7 < (1/4)(1.5)
    assert np.count_nonzero(window.weights) == 2
    assert rep.sufficient_margin > 0


def test_bunched_plan_gates():
    S = CellSupport(T=1.0, L=5, P=2, cells=[(0, 0), (1, 2), (2, 4), (3, 1)])
    with pytest.raises(InvalidParameters):
        bunched_window_plan(S, eps=0.0)
    with pytest.raises(InvalidParameters):
        bunched_window_plan(S, eps=0.3)  # 0.8 * 1.3 >= 1
    small = CellSupport(T=1.0, L=4, P=2, cells=[(0, 0)])
    with pytest.raises(NoPrimeInRange):
        bunched_window_plan(small, eps=0.5, modulus_cap=5)
    with pytest.raises(SparkTargetUnmet):
        bunched_window_plan(small, eps=0.5, max_draws=1, tol=2.0)
