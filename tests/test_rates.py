"""Rate diagnostics: necessary bound, bunched plans, dead-time accounting."""

import dataclasses
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
    NotIdentifiable,
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
    rectify,
    relative_l2_error,
    zak_transform,
)

from test_gabor import count_entries_builds


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


def test_rate_report_reads_the_bandwidth_once_and_the_support_keeps_its_area(monkeypatch):
    S = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (1, 1)])
    calls = []
    monkeypatch.setattr(rates, "bandwidth", lambda S: calls.append(S) or bandwidth(S))
    rep = rate_report(_train(1.0, [1, 1, 0]), S, eps=0.5)
    assert calls == [S] and rep.bandwidth == bandwidth(S)
    assert S.__dict__["area"] == rep.area == float(S.mask.sum()) / (3 * 4**2)


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


def test_an_empty_support_has_no_memory_and_no_plan():
    spilled = np.zeros((12, 16), dtype=bool)
    for empty in (CellSupport(T=1.0, L=3, P=4, cells=[]),
                  CellSupport(T=1.0, L=3, P=4, mask=spilled, shift=(2.0, 0.0))):
        rep = rate_report(_train(1.0, [1, 1, 0]), empty)
        assert (rep.bandwidth, rep.area, rep.necessary_ok) == (0.0, 0.0, True)
        assert rep.dead_time_fraction == 1.0 - 2.0 / 3.0  # K = 0: only the weights' T*||c||_0
        with pytest.raises(InvalidParameters, match="cannot plan for an empty support"):
            bunched_window_plan(empty, eps=0.5, seed=1)


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
    assert "entries" in vars(window)  # the plan returns the window whose G(c) it checked
    assert build_gabor_matrix(window) is window
    refined = refine_support(S, window.L)
    eta = random_spreading(refined, seed=9)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=T, weights=window)))
    report = recover_eta_known_support(Z, window, refined)
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
    builds = count_entries_builds(monkeypatch)
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
    assert window.L == 7 and calls == [7]  # the covers at 3 and 5 are 1/3 and 2/5


def test_bunched_plan_stops_at_the_grid_budget(monkeypatch):
    # a full-T strip a quarter of the nu-range high: the hull is 1/4 and every cover
    # ratio is above it, so eps = 0.001 needs L' > 3000; the search stops at the largest
    # L' whose refined grid L' * L * P fits MAX_LP (here 4096 // 96 = 42), and every
    # prime's cover ceil(L'/4)/L' misses the target, so none is refined
    calls = _counting_refinements(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(NoPrimeInRange, match=r"in \[3, 42\] .* grid budget"):
        bunched_window_plan(_corner(3, 32, 32, 24), eps=0.001, seed=4)
    assert time.perf_counter() - start < 1.0
    assert calls == []
    # at P = 2 the grid would hold L' = 682: MAX_L ends the search first.  A strip on
    # nu-subcells 1 and 2 has a cover of 2 cells at L' = 3, which misses 2/3 * 1.001
    # cells per L', and of at least (L' + 1)/3 at every larger prime below 1000, which
    # misses too: none is refined
    mask = np.zeros((6, 6), dtype=bool)
    mask[0:2, 1:3] = True
    with pytest.raises(NoPrimeInRange, match=rf"in \[3, {gabor.MAX_L}\]"):
        bunched_window_plan(CellSupport(T=1.0, L=3, P=2, mask=mask), eps=0.001, seed=4)
    assert calls == []


def test_bunched_plan_skips_primes_whose_column_bound_misses(monkeypatch):
    # the full-T strip of 3 of 12 nu-subcells: |S| = 1/4 = the hull, and every prime
    # L' < 1000 has ceil(L'/4)/L' >= 1/4 + 1/(4L') > |S|(1 + 0.001): refused unrefined
    calls = _counting_refinements(monkeypatch)
    with pytest.raises(NoPrimeInRange, match=rf"in \[3, {gabor.MAX_L}\]"):
        bunched_window_plan(_corner(3, 4, 4, 3), eps=0.001, seed=4)
    assert calls == []


def _first_prime_by_refinement(S, eps):
    """(L', |Gamma'|) of the plan's search without its bounds: every prime in turn."""
    budget = max(S.L, min(gabor.MAX_L, rates.MAX_LP // (S.L * S.P)))
    for L_new in filter(gabor.is_prime, range(S.L, budget + 1)):
        try:
            report = rectify(refine_support(S, L_new))
        except NotIdentifiable:
            continue
        if len(report.gamma) / L_new < S.area * (1.0 + eps):
            return L_new, len(report.gamma)
    return None


def test_bunched_plan_picks_the_prime_of_the_search_by_refinement():
    # the count skips only primes whose cover misses: every plan keeps its prime,
    # and so its window (a draw from the prime, the cover and the seed)
    cases = [
        (_corner(3, 6, 6, 2), 0.1), (_corner(3, 4, 2, 3), 1.5),
        (CellSupport(T=1.0, L=4, P=2, cells=[(0, 0)]), 0.5),
        (CellSupport(T=1.0, L=5, P=2, cells=[(0, 0), (1, 2), (2, 4), (3, 1)]), 0.1),
        (CellSupport(T=0.5, L=11, P=8, cells=[(2, 5), (7, 1)]), 1.5),
    ]
    rng = np.random.default_rng(27)
    for _ in range(30):  # sparse masks at P = 2, shifted in t: most are planned at once
        L = rng.integers(2, 6)
        mask = rng.random((2 * L, 2 * L)) < 0.04
        mask[rng.integers(2 * L), rng.integers(2 * L)] = True
        S = CellSupport(T=1.0, L=L, P=2, mask=mask, shift=(rng.integers(4) / 2, 0.0))
        if S.area * 3 < 1:
            cases.append((S, 2.0))
    planned = 0
    for S, eps in cases:
        want = _first_prime_by_refinement(S, eps)
        try:
            window, _ = bunched_window_plan(S, eps, seed=4)
        except NoPrimeInRange:
            assert want is None, (S.cells, eps)
            continue
        assert (window.L, np.count_nonzero(window.weights)) == want, (S.cells, eps)
        planned += 1
    assert planned >= 20


def _cover_census():
    """Seeded supports with their t-rows within L*P: shifted masks, spilled rows and columns,
    one that spans L+1 cell columns and one whose fold covers a point twice."""
    rng = np.random.default_rng(38)
    for _ in range(24):
        L, P = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        LP = L * P
        mask = np.zeros((LP + int(rng.integers(P + 1)), LP + int(rng.integers(LP + 1))), dtype=bool)
        first = mask.shape[0] - LP  # the rows above it stay empty: the stored rows span < L*P
        mask[first:] = rng.random((LP, mask.shape[1])) < rng.uniform(0.01, 0.1)
        mask[first + int(rng.integers(LP)), int(rng.integers(mask.shape[1]))] = True
        shift = (int(rng.integers(-2 * P, 2 * P + 1)) / P, int(rng.integers(-LP, LP + 1)) / LP)
        yield CellSupport(T=1.0, L=L, P=P, mask=mask, shift=shift if rng.random() < 0.5 else (0, 0))
    wide = np.zeros((14, 12), dtype=bool)
    wide[2, 0] = wide[13, 5] = True  # t-rows 2 and 13: cell columns 0 and 3, one column mod 3
    yield CellSupport(T=1.0, L=3, P=4, mask=wide)
    yield _folded_twice()


def _folded_twice():
    """nu-columns 0 and 6 of one t-row at L = 3, P = 2 fold onto one point."""
    mask = np.zeros((6, 12), dtype=bool)
    mask[0:2, 0] = mask[0:2, 6] = True
    return CellSupport(T=1.0, L=3, P=2, mask=mask)


def test_the_cover_count_is_the_cell_cover_of_the_refined_support(monkeypatch):
    # _cover counts |Gamma'| from S's subcells; the oracle refines S and rectifies it, at every
    # prime up to the budget that MAX_LP = 512 would give (so each refinement stays small)
    compared = 0
    for S in _cover_census():
        rows, cols, _, _, j = S.subcells
        t_cells = (S.offsets[0] + rows) // S.P
        twice = S.fold_counts().max() > 1
        for L_new in filter(gabor.is_prime, range(S.L, max(S.L, 512 // (S.L * S.P)) + 1)):
            count = rates._cover(t_cells, j[cols], S.L * S.P, L_new)
            refined = refine_support(S, L_new)
            assert count == len(refined.cells), (S.cells, L_new)
            try:
                gamma = rectify(refined).gamma
            except NotIdentifiable:  # only S's own double fold, or a cover of more than L' cells
                assert twice or count > L_new, (S.cells, L_new)
                continue
            assert not twice and count == len(gamma), (S.cells, L_new)
            compared += 1
    assert compared >= 300
    calls = _counting_refinements(monkeypatch)
    with pytest.raises(NoPrimeInRange, match="grid budget"):  # the hull is 1/6, |S| = 1/3
        bunched_window_plan(_folded_twice(), eps=0.5, seed=1)
    assert calls == []


def test_bunched_plan_refuses_occupied_rows_beyond_L_times_P():
    # the cover count needs the t's within L*T: rows 0:2 and 14:16 are 16 > 12 rows apart
    m = np.zeros((24, 12), dtype=bool)
    m[0:2, 0:2] = m[14:16, 0:2] = True
    with pytest.raises(InvalidParameters, match="within L\\*P = 12 rows, got 16"):
        bunched_window_plan(CellSupport(T=1.0, L=3, P=4, mask=m), eps=0.5, seed=1)


def test_bunched_plan_of_a_mask_of_any_extent_is_the_plan_of_its_padded_mask():
    padded = np.zeros((12, 12), dtype=bool)
    padded[0:4, 0:1] = True
    window, report = bunched_window_plan(CellSupport(T=1.0, L=3, P=4, mask=padded), 0.5, seed=1)
    for shape in ((4, 1), (12, 8), (12, 16), (24, 12)):  # t-rows 0:4 within L*P in each
        mask = np.zeros(shape, dtype=bool)
        mask[0:4, 0:1] = True
        S = CellSupport(T=1.0, L=3, P=4, mask=mask)
        R = refine_support(S, 5)  # old pixel (i, j) is new block (3i, 5j); at least 60 x 60
        assert R.mask.shape == (max(60, 3 * shape[0]), max(60, 5 * shape[1]))
        assert R.area == S.area and R.mask.sum() == 4 * 15
        got, got_report = bunched_window_plan(S, 0.5, seed=1)
        assert got.weights.tobytes() == window.weights.tobytes() and got_report == report


def _python_scalars(report):
    """The fields of a RateReport that are not a Python float, bool or None, with their types."""
    values = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {name: type(v) for name, v in values.items()
            if not (v is None or type(v) in (float, bool))}


def test_rate_report_fields_are_python_scalars():
    shifted = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (1, 1)], shift=(0.25, 0.0))
    for S in (CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (1, 1)]), shifted):
        for eps in (None, 0.5):
            assert _python_scalars(rate_report(_train(1.0, [1, 1, 0]), S, eps=eps)) == {}
    for S, eps in ((_strip(), 0.1), (CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)]), 1.5)):
        _, report = bunched_window_plan(S, eps, seed=3)
        assert _python_scalars(report) == {}
        assert type(report.dead_time_fraction) is float


def _strip():
    """One t-column of nu-extent Omega/3 at L = 3, P = 6: planned at L' = 17."""
    mask = np.zeros((18, 18), dtype=bool)
    mask[0:6, 0:2] = True
    return CellSupport(T=1.0, L=3, P=6, mask=mask)


def test_bunched_plan_searches_once_per_support_and_eps(monkeypatch):
    calls = _counting_refinements(monkeypatch)
    S = _strip()
    first, _ = bunched_window_plan(S, eps=0.1, seed=5)
    searched = len(calls)
    assert first.L == 17 and calls[-1] == 17
    second, _ = bunched_window_plan(S, eps=0.1, seed=6)
    assert len(calls) == searched and second.L == 17  # the kept search: no refinement
    kept = S._plans[("bunched", 0.1)]
    assert kept.L == 17 and rectify(kept) is kept._plans["rectify"]
    bunched_window_plan(S, eps=0.2, seed=5)  # a new eps searches again
    assert len(calls) > searched
    searched = len(calls)
    bunched_window_plan(_strip(), eps=0.1, seed=5)  # and so does a fresh support
    assert len(calls) > searched
    # a plan at L' = S.L keeps a copy of S, not S: no plan refers back to its support
    certify = CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)])
    bunched_window_plan(certify, eps=1.5, seed=5)
    kept = certify._plans[("bunched", 1.5)]
    assert kept is not certify and kept.L == 11 and kept.mask.tobytes() == certify.mask.tobytes()


def test_a_remembered_bunched_plan_keeps_the_bits_of_a_fresh_one():
    def fresh_certify():
        return CellSupport(T=0.5, L=11, cells=[(2, 5), (7, 1)])

    for make, eps in ((_strip, 0.1), (fresh_certify, 1.5), (lambda: _corner(3, 4, 2, 3), 1.5)):
        S = make()
        bunched_window_plan(S, eps, seed=0)  # the search, kept on S
        for seed in (1, 2, 3):
            window, report = bunched_window_plan(S, eps, seed=seed)
            cold_window, cold_report = bunched_window_plan(make(), eps, seed=seed)
            assert window.weights.tobytes() == cold_window.weights.tobytes()
            assert (window.L, window.seed, window.draws) == (
                cold_window.L, cold_window.seed, cold_window.draws)
            assert report == cold_report


def test_a_refused_bunched_search_keeps_nothing(monkeypatch):
    calls = _counting_refinements(monkeypatch)
    hull = _corner(3, 4, 2, 3)  # refused by its cell-column hull, unrefined
    for _ in range(2):
        with pytest.raises(NoPrimeInRange, match="hull"):
            bunched_window_plan(hull, eps=0.5, seed=4)
    assert hull._plans == {} and calls == []
    mask = np.zeros((6, 6), dtype=bool)  # refused at the budget, each cover counted unrefined
    mask[0:2, 1:3] = True
    budget = CellSupport(T=1.0, L=3, P=2, mask=mask)
    for _ in range(2):
        with pytest.raises(NoPrimeInRange, match="grid budget"):
            bunched_window_plan(budget, eps=0.001, seed=4)
    assert calls == [] and budget._plans == {}
    rows = np.zeros((24, 12), dtype=bool)
    rows[0:2, 0:2] = rows[14:16, 0:2] = True
    spread = CellSupport(T=1.0, L=3, P=4, mask=rows)
    with pytest.raises(InvalidParameters, match="within L\\*P"):
        bunched_window_plan(spread, eps=0.5, seed=1)
    assert spread._plans == {}
    for eps in (np.array(0.5), "0.5", 0.0, np.nan):  # refused before any search is kept
        with pytest.raises(InvalidParameters, match="eps must be finite and positive"):
            bunched_window_plan(hull, eps=eps)
    assert hull._plans == {}
