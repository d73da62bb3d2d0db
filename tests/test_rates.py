"""Rate diagnostics: necessary bound, bunched plans, dead-time accounting."""

import time

import numpy as np
import pytest

from opsample import gabor, rates
from opsample import (
    CellSupport,
    GenerationFailed,
    IdentifierTrain,
    InvalidParameters,
    NoPrimeInRange,
    Window,
    apply_channel,
    bandwidth,
    build_gabor_matrix,
    bunched_window_plan,
    generate_window,
    random_spreading,
    rate_report,
    recover_eta_known_support,
    refine_support,
    relative_l2_error,
    zak_transform,
)


def _train(T, weights):
    return IdentifierTrain(T=T, weights=Window(L=len(weights), weights=np.asarray(weights)))


def test_sampling_rate_counts_support():
    assert _train(1.0, [1, 1, 1]).rate == 1.0
    assert _train(1.0, [1, 0, 0]).rate == pytest.approx(1.0 / 3.0)
    # scaling the nonzero weights never moves the rate
    g = _train(0.5, [2.0, 0, 1j, 0, 0.25])
    assert g.rate == _train(0.5, [14.0, 0, 7j, 0, 1.75]).rate
    # a chirp reweights by unimodular phases, same support count
    chirped = IdentifierTrain(T=0.5, weights=g.weights, chirp_a=0.4)
    assert chirped.rate == g.rate
    # a tiny weight still counts: the train's own rate is the exact-nonzero count
    tiny = _train(1.0, [1, 1e-13, 0])
    assert tiny.weights.support_size() == 2
    assert tiny.rate == pytest.approx(2.0 / 3.0)


def test_dense_train_rate_is_L_times_omega():
    # 1/T = L*Omega: a dense period-3 train samples at three times the cell height
    L, T = 3, 1.0
    omega = 1.0 / (L * T)
    g = IdentifierTrain(T=T, weights=generate_window(L, seed=30))
    assert g.rate == pytest.approx(3 * omega)


def test_check_necessary():
    L, P, T = 3, 4, 1.0
    omega = 1.0 / (L * T)
    # staircase-like support two cells high: B(S) = 2*Omega < 3*Omega = 1/T
    S = CellSupport(T=T, L=L, P=P, cells=[(0, 0), (0, 1), (2, 2)])
    assert bandwidth(S) == pytest.approx(2 * omega)
    dense = IdentifierTrain(T=T, weights=generate_window(L, seed=31))
    assert rate_report(dense, S).necessary_ok

    # full-height column: B(S) = 1/T; a single delta per period falls short
    tall = CellSupport(T=T, L=L, P=P, cells=[(1, 0), (1, 1), (1, 2)])
    assert not rate_report(_train(T, [1, 0, 0]), tall).necessary_ok

    # time-invariant channel: one subcell row of nu-extent, B at the grid floor
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[:, 0] = True
    flat = CellSupport(T=T, L=L, P=P, mask=mask)
    assert bandwidth(flat) == pytest.approx(flat.dnu)
    assert rate_report(_train(T, [1]), flat).necessary_ok


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
    for eps in (np.nan, np.inf, -np.inf):  # a margin JSON cannot hold
        with pytest.raises(InvalidParameters):
            rate_report(g, S, eps=eps)


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
    for L_new in (3.0, 5.0, True, np.float64(7)):
        with pytest.raises(InvalidParameters, match="must be an integer"):
            refine_support(S, L_new)
    assert refine_support(S, np.int64(7)).mask.tobytes() == R.mask.tobytes()


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
    report = recover_eta_known_support(Z, build_gabor_matrix(window), refined)
    assert relative_l2_error(report.eta_hat, eta) <= 1e-9


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


def test_bunched_plan_gates(monkeypatch):
    S = CellSupport(T=1.0, L=5, P=2, cells=[(0, 0), (1, 2), (2, 4), (3, 1)])
    with pytest.raises(InvalidParameters):
        bunched_window_plan(S, eps=0.0)
    with pytest.raises(InvalidParameters):
        bunched_window_plan(S, eps=0.3)  # 0.8 * 1.3 >= 1
    small = CellSupport(T=1.0, L=4, P=2, cells=[(0, 0)])
    builds = []
    build = rates.build_gabor_matrix
    monkeypatch.setattr(rates, "build_gabor_matrix", lambda c: builds.append(c) or build(c))
    monkeypatch.setattr(gabor, "DEFAULT_TOL", 2.0)  # every class block is dependent
    with pytest.raises(GenerationFailed, match=f"in {gabor.MAX_DRAWS} draws"):
        bunched_window_plan(small, eps=0.5)
    assert len(builds) == gabor.MAX_DRAWS  # one G(c) per draw, the whole budget spent


def _corner(L, P, rows, cols):
    mask = np.zeros((L * P, L * P), dtype=bool)
    mask[:rows, :cols] = True
    return CellSupport(T=1.0, L=L, P=P, mask=mask)


def _counting_refinements(monkeypatch):
    calls = []
    refine = rates.refine_support
    monkeypatch.setattr(rates, "refine_support", lambda S, L: calls.append(L) or refine(S, L))
    return calls


def test_bunched_plan_refuses_a_hull_above_the_target_at_once(monkeypatch):
    # a 2 x 3 corner at L = 3, P = 4: area 0.125, but its cell column fills half of the
    # T-wide column and 3 of 12 nu-subcells, so every cover has |Gamma'|/L' >= 0.25
    calls = _counting_refinements(monkeypatch)
    small = _corner(3, 4, 2, 3)
    with pytest.raises(NoPrimeInRange, match="cell-column hull 0.25, not below .* 0.1875"):
        bunched_window_plan(small, eps=0.5, seed=4)
    assert calls == []
    window, _ = bunched_window_plan(small, eps=1.5, seed=4)  # 0.3125 clears the hull
    assert window.L == 7 and calls == [3, 5, 7]


def test_bunched_plan_stops_at_the_grid_budget(monkeypatch):
    # a full-T strip a quarter of the nu-range high: the hull is 1/4 and every cover
    # ratio is above it, so eps = 0.001 needs L' > 3000; the search stops at the largest
    # L' whose refined grid L' * L * P fits MAX_LP (here 4096 // 96 = 42)
    calls = _counting_refinements(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NoPrimeInRange, match=r"in \[3, 42\] .* grid budget"):
        bunched_window_plan(_corner(3, 32, 32, 24), eps=0.001, seed=4)
    assert time.perf_counter() - start < 1.0
    assert calls == [p for p in range(3, 43) if gabor.is_prime(p)]
    assert max(calls) * 3 * 32 <= rates.MAX_LP
    # at P = 2 the grid would hold L' = 682: MAX_L ends the search first
    calls.clear()
    with pytest.raises(NoPrimeInRange, match=rf"in \[3, {gabor.MAX_L}\]"):
        bunched_window_plan(_corner(3, 2, 2, 1), eps=0.001, seed=4)
    assert max(calls) <= gabor.MAX_L
