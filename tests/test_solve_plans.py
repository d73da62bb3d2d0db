"""Solve plans: the tables a support or a window keeps for its recoveries keep the bits of a
cold solve, and neither keeps the other alive.

Every "cold" solve runs on fresh Window(L, weights) and CellSupport objects built
from the same inputs, so no kept table can reach it.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from opsample import (
    CellSupport,
    DiscreteSpreadingFunction,
    IdentifierTrain,
    InvalidParameters,
    NotIdentifiable,
    RankDeficient,
    ShearNotRectifiable,
    Window,
    apply_channel,
    generate_window,
    random_spreading,
    zak_transform,
)
from opsample import channel, reconstruct, sparse
from opsample.presets import (
    seven_cell_support,
    sheared_parallelogram_support,
    stacked_cover_violation,
    staircase_support,
    translate_collision_support,
)
from opsample.gabor import _plan
from opsample.support import rectify
from opsample.reconstruct import (
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    reconstruct_h_sharp,
)

from test_support import _near_whole_cell_supports, _whole_cell_supports


def _fresh_window(G):
    return Window(G.L, G.weights)


def _fresh_support(S):
    return CellSupport(S.T, S.L, S.P, mask=S.mask, shift=S.shift)


def _zak(S, window, seed, chirp_a=0.0):
    eta = random_spreading(S, seed=seed)
    return eta, zak_transform(apply_channel(eta, IdentifierTrain(S.T, window, chirp_a)))


def _shifted_staircase():
    """The staircase moved back 5 rows and up 7 columns: its fold wraps on both axes."""
    stairs = staircase_support(P=8)
    return CellSupport(T=1.0, L=3, P=8, mask=stairs.mask, shift=(-5 * stairs.dt, 7 * stairs.dnu))


def _counting(monkeypatch, module, name, *importers):
    """The list of calls of module.name from here on, also where importers imported it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in (module, *importers):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


def _phase_tables(calls, *denominators):
    """How many reconstruct._unit_phase calls built a table of one of these denominators."""
    return sum(args[1] in denominators for args in calls)


@pytest.mark.parametrize(
    "make_support, classes",
    [
        (lambda: seven_cell_support(P=8), 3),
        (_shifted_staircase, 4),
        (lambda: sheared_parallelogram_support(P=8), 2),
    ],
    ids=["seven-cell", "shifted-staircase", "parallelogram"],
)
def test_solves_on_one_support_share_one_plan_and_keep_the_cold_bits(
    monkeypatch, make_support, classes
):
    S, G = make_support(), generate_window(3, seed=70)
    rectified = _counting(monkeypatch, reconstruct, "rectify")
    inverted = _counting(monkeypatch, reconstruct, "left_inverse")
    phases = _counting(monkeypatch, reconstruct, "_unit_phase")
    Zs = [_zak(S, G, seed)[1] for seed in (71, 72, 73)]
    reports = [recover_eta_known_support(Z, G, S) for Z in Zs]
    smooth = recover_eta_smooth(Zs[0], G, S, S.dt)
    # every solve rectifies; the classes are inverted and the read-off phases built once
    assert len(rectified) == 4 and len(inverted) == classes
    assert _phase_tables(phases, S.L * S.P, S.P) == 2
    for Z, report in zip(Zs, reports):
        cold = recover_eta_known_support(Z, _fresh_window(G), _fresh_support(S))
        assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()
        assert report.per_class_conditioning == cold.per_class_conditioning
        assert report.formula == cold.formula
    assert smooth.eta_hat.values.tobytes() == reports[0].eta_hat.values.tobytes()
    # each report owns its conditioning list
    reports[0].per_class_conditioning.append(0.0)
    assert [len(r.per_class_conditioning) for r in reports[1:] + [smooth]] == [classes] * 3
    assert reports[1].per_class_conditioning is not reports[2].per_class_conditioning


def test_a_second_window_reuses_the_read_off_tables_and_keeps_its_own_inverses(monkeypatch):
    S = seven_cell_support(P=8)
    windows = generate_window(3, seed=89), generate_window(3, seed=90)
    inverted = _counting(monkeypatch, reconstruct, "left_inverse")
    phases = _counting(monkeypatch, reconstruct, "_unit_phase")
    for seed in (91, 92):
        for G in windows:
            Z = _zak(S, G, seed)[1]
            report = recover_eta_known_support(Z, G, S)
            cold = recover_eta_known_support(Z, _fresh_window(G), _fresh_support(S))
            assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()
            assert report.per_class_conditioning == cold.per_class_conditioning
    # 3 inverses per window, and 3 for each of the four cold solves
    assert [args[0] for args in inverted[:3]] == [windows[0]] * 3
    assert [args[0] for args in inverted[6:9]] == [windows[1]] * 3
    assert len(inverted) == 3 * 2 + 3 * 4
    assert _phase_tables(phases, S.L * S.P, S.P) == 2 + 2 * 4  # once for S, once per cold one
    # each window keeps its own 3 inverses; S keeps none, only what it alone determines
    assert [len(G._plans) for G in windows] == [3, 3]
    assert sorted(S._plans) == ["read-off", "rectify"]


def test_fresh_supports_with_the_same_classes_share_the_window_s_inverse(monkeypatch):
    G = generate_window(3, seed=96)
    inverted = _counting(monkeypatch, reconstruct, "left_inverse")
    for seed in (97, 98):
        S = staircase_support(P=4)  # a fresh support each time, one class of three cells
        Z = _zak(S, G, seed)[1]
        report = recover_eta_known_support(Z, G, S)
        cold = recover_eta_known_support(Z, _fresh_window(G), _fresh_support(S))
        assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()
        assert report.per_class_conditioning == cold.per_class_conditioning
    assert [args[0] for args in inverted].count(G) == 1 and len(G._plans) == 1


@pytest.mark.parametrize("kappa", [1, 2])  # kappa*L odd (s = P/2), then even (s = 0)
def test_symplectic_builds_the_sheared_support_once(monkeypatch, kappa):
    S, G = sheared_parallelogram_support(P=8, shear=kappa), generate_window(3, seed=75)
    a = kappa * S.omega
    built = _counting(monkeypatch, reconstruct, "CellSupport")
    chirps = _counting(monkeypatch, reconstruct, "_chirp_phase")
    rectified = _counting(monkeypatch, reconstruct, "rectify")
    spreading = _counting(monkeypatch, reconstruct, "_fresh_spreading")
    for seed in (76, 77):
        eta, Z = _zak(S, G, seed, chirp_a=a)
        report = recover_symplectic(Z, G, S, a)
        cold = recover_symplectic(Z, _fresh_window(G), _fresh_support(S), a)
        assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()
        assert report.formula == "symplectic" and report.eta_hat.support is S
        assert report.per_class_conditioning == cold.per_class_conditioning
        assert np.max(np.abs(report.eta_hat.values - eta.values)) <= 1e-12
    assert len(built) == len(chirps) == 1 + 2  # S~ once for S, once per cold support
    assert len(rectified) == 4  # every solve asks rectify for S~'s classes
    assert len(spreading) == 4  # one spreading function per public call


def test_fresh_spreading_functions_vanish_off_the_mask_and_stay_finite():
    S, G = sheared_parallelogram_support(P=8), generate_window(3, seed=93)
    eta, Z = _zak(S, G, 94, chirp_a=S.omega)
    made = [eta, recover_symplectic(Z, G, S, S.omega).eta_hat,
            recover_eta_known_support(_zak(S, G, 95)[1], G, S).eta_hat]
    for fresh in made:
        assert fresh.support is S and not fresh.values.flags.writeable
        assert fresh.values.shape == S.mask.shape and not fresh.values[~S.mask].any()
        assert np.all(fresh.values[S.mask] != 0)
    with pytest.raises(InvalidParameters, match="finite"):
        channel._fresh_spreading(S, np.where(S.mask, np.nan, 0j))
    with np.errstate(all="ignore"), pytest.raises(InvalidParameters, match="finite"):
        recover_eta_known_support(np.full((24, 8), 1.7e308 + 1.7e308j), G, S)


def test_apply_channel_and_h_sharp_on_a_reused_support_keep_the_cold_bits():
    collision = translate_collision_support(P=8)
    translate = collision.mask.copy()
    translate[:8] = False  # rows without an active subcell
    for S in (CellSupport(T=1.0, L=3, P=8, mask=translate), seven_cell_support(P=8),
              _shifted_staircase()):
        G = generate_window(3, seed=78)
        for seed in (79, 80):
            eta, Z = _zak(S, G, seed, chirp_a=S.omega)
            cold_S, cold_G = _fresh_support(S), _fresh_window(G)
            cold_eta = DiscreteSpreadingFunction(cold_S, eta.values)
            cold_Z = zak_transform(apply_channel(cold_eta, IdentifierTrain(S.T, cold_G, S.omega)))
            assert Z.tobytes() == cold_Z.tobytes()
            _, Z = _zak(S, G, seed)
            h = reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
            cold_h = reconstruct_h_sharp(recover_eta_known_support(Z, cold_G, cold_S))
            assert h.tobytes() == cold_h.tobytes()


def test_refusals_are_not_remembered(monkeypatch):
    rectified = _counting(monkeypatch, reconstruct, "rectify")
    bad, G = stacked_cover_violation(P=4), generate_window(3, seed=81)
    for _ in range(2):
        with pytest.raises(NotIdentifiable):
            recover_eta_known_support(np.zeros((12, 4)), G, bad)
    assert len(rectified) == 2 and bad._plans == {}
    # c = (1, 0, 0): cells (0, 0) and (0, 1) have parallel columns
    parallel = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (0, 1)])
    degenerate = Window(L=3, weights=np.array([1.0, 0, 0]))
    for _ in range(2):
        with pytest.raises(RankDeficient):
            recover_eta_known_support(np.zeros((12, 4)), degenerate, parallel)
    # S keeps what it alone determines; the refusal is a fact of the window: no (G, cells) key.
    # S is whole cells, solved by cell blocks: no "read-off" tables, no fold table
    assert len(rectified) == 4 and sorted(parallel._plans) == ["rectify"]
    assert "read-off" not in parallel._plans and "subcells" not in vars(parallel)
    assert degenerate._plans == {}
    unrectifiable = CellSupport(T=1.0, L=3, P=8, cells=[(0, 0), (0, 1), (0, 2), (1, 0)])
    for _ in range(2):
        with pytest.raises(ShearNotRectifiable):
            recover_symplectic(np.zeros((24, 8)), G, unrectifiable, a=unrectifiable.omega)
    assert len(rectified) == 6


def _plan_arrays(S, kappa, *windows):
    """The arrays S keeps after every path (S~'s included), and the inverses of windows.
    S~ of the parallelogram is whole cells: it keeps no read-off tables."""
    S_tilde, *shear = S._plans[kappa]
    yield from S._plans["read-off"]
    for G in windows:
        yield from (inv.coefficients for inv in G._plans.values())
    yield from shear
    yield S_tilde.mask


def test_remembered_arrays_are_read_only():
    S, G = sheared_parallelogram_support(P=8), generate_window(3, seed=82)
    eta, Z = _zak(S, G, 83, chirp_a=S.omega)
    recover_symplectic(Z, G, S, S.omega)
    reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
    arrays = list(_plan_arrays(S, 1, G))
    assert "read-off" not in S._plans[1][0]._plans  # S~ is solved by cell blocks
    # read-off 3 for S, G's inverses of S's 2 classes and S~'s 1, shear 4 (the chirp, its
    # conjugate and two gathers), the mask of S~
    assert len(arrays) == 3 + 3 + 4 + 1
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def _per_subcell(Zv, G, S):
    """The per-subcell reference of a solve: X filled class by class as the general path
    fills it, read off at every stored subcell by reconstruct._read_off(S)."""
    L, P = S.L, S.P
    X = np.zeros((L * L, P * P), dtype=complex)
    conds = []
    for cls in rectify(S).classes:
        if cls.cells:
            inv = reconstruct.left_inverse(G, cls.cells, S.omega)
            conds.append(inv.condition_number)
            q, m = np.array(inv.gamma).T
            X[(q * L + m)[:, None], cls.index] = inv.coefficients @ np.take(Zv, cls.index, axis=1)
    flat, row_phase, col_phase = reconstruct._read_off(S)
    values = np.zeros(S.mask.shape, dtype=complex)
    values[S.mask] = row_phase * X.ravel()[flat] * col_phase
    return values, conds


def _solved_like_the_reference(S, G, seed):
    """Solve a response on S (simulated on a copy, so S has made no fold table), then an
    all-zero grid, whose signed zeros pin every factor, and hold both reports to the
    per-subcell reference of the same Z-vectors.  What S kept after the first solve."""
    kept = None
    for Z in (_zak(_fresh_support(S), G, seed)[1], np.zeros((S.L * S.P, S.P), dtype=complex)):
        report = recover_eta_known_support(Z, G, S)
        kept = kept or (sorted(S._plans), "subcells" in vars(S))
        values, conds = _per_subcell(reconstruct._ZakVectors(Z, G, S).Y, G, S)
        assert report.eta_hat.values.tobytes() == values.tobytes()
        assert report.per_class_conditioning == conds
        assert report.formula == ("sharp" if len(conds) <= 1 else "multiclass")
    return kept


def _two_cell_supports():
    """20 seeded 2-cell supports at L=5, P=16, then the same cells given as explicit masks."""
    rng = np.random.default_rng(103)
    cells = [rng.choice(25, size=2, replace=False) for _ in range(20)]
    pairs = [CellSupport(T=1.0, L=5, P=16, cells=[divmod(int(b), 5) for b in c]) for c in cells]
    return pairs + [CellSupport(T=1.0, L=5, P=16, mask=S.mask) for S in pairs]


def test_whole_cell_supports_are_solved_by_cell_blocks_with_the_per_subcell_bits():
    windows = {3: generate_window(3, seed=104), 5: generate_window(5, seed=105)}
    supports = _whole_cell_supports() + _two_cell_supports()
    for n, S in enumerate(supports):
        assert rectify(S).whole_cells
        # no fold table and no read-off tables: the support keeps only its rectification
        assert _solved_like_the_reference(S, windows[S.L], 1000 + n) == (["rectify"], False)
    # one step from the one-class rule: the general path, its read-off tables and fold table
    for n, S in enumerate(_near_whole_cell_supports()):
        assert not rectify(S).whole_cells
        kept = _solved_like_the_reference(S, windows[3], 2000 + n)
        assert kept == (["read-off", "rectify"], True)


def test_the_sheared_support_is_solved_by_cell_blocks_with_the_per_subcell_bits():
    S, G = sheared_parallelogram_support(P=8), generate_window(3, seed=106)
    eta, Z = _zak(S, G, 107, chirp_a=S.omega)
    report = recover_symplectic(Z, G, S, S.omega)
    S_tilde, chirp, dechirp, gather, back = S._plans[1]
    assert rectify(S_tilde).whole_cells and not rectify(S).whole_cells
    assert sorted(S_tilde._plans) == ["rectify"] and "subcells" not in vars(S_tilde)
    assert dechirp.tobytes() == chirp.conj().tobytes()
    # the kept conjugate, multiplied in place, gives the bits of a fresh product
    Zv = channel._zak_vectors(chirp.conj() * np.ravel(Z)[gather], S.L, S.P)
    values, conds = _per_subcell(Zv, G, S_tilde)
    assert report.eta_hat.values.tobytes() == (np.ravel(values)[back] * chirp).tobytes()
    assert report.per_class_conditioning == conds and report.formula == "symplectic"
    assert np.max(np.abs(report.eta_hat.values - eta.values)) <= 1e-12


def test_an_empty_support_and_an_all_zero_grid_give_a_zero_eta():
    G = generate_window(3, seed=108)
    empty = CellSupport(T=1.0, L=3, P=4, cells=())
    report = recover_eta_known_support(np.zeros((12, 4)), G, empty)
    assert (report.formula, report.per_class_conditioning) == ("sharp", [])
    assert not report.eta_hat.values.any() and G._plans == {}
    R = CellSupport(T=1.0, L=3, P=4, cells=[(q, m) for q in range(3) for m in range(3)])
    decoded = sparse.recover_unknown_support(np.zeros((12, 4)), G, R, k_max=2, tol=1e-9)
    assert decoded.support_estimate.gamma_hat == () and decoded.eta_hat.support.cells == ()
    assert (decoded.formula, decoded.per_class_conditioning) == ("sharp", [])
    assert not decoded.eta_hat.values.any() and G._plans == {}


def _every_path(S, G):
    eta, Z = _zak(S, G, 84, chirp_a=S.omega)
    reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
    recover_symplectic(Z, G, S, S.omega)


def test_a_dead_support_takes_its_tables_with_it():
    G = generate_window(3, seed=85)
    first = sheared_parallelogram_support(P=4)
    _every_path(first, G)
    assert "read-off" not in first._plans[1][0]._plans  # S~ is solved by cell blocks
    tables = [weakref.ref(a) for a in _plan_arrays(first, 1)]
    support = weakref.ref(first)
    del first
    gc.collect()
    assert support() is None and all(ref() is None for ref in tables)


def test_a_window_solved_with_a_live_support_dies_with_its_last_reference():
    S = sheared_parallelogram_support(P=4)
    G = generate_window(3, seed=99)
    _every_path(S, G)
    window = weakref.ref(G)
    del G
    gc.collect()
    assert window() is None and len(S._plans) == 3  # rectify, read-off and S~ for kappa = 1


def test_a_dead_window_takes_its_inverses_with_it():
    S = sheared_parallelogram_support(P=4)
    G = generate_window(3, seed=100)
    _every_path(S, G)
    inverses = [weakref.ref(inv.coefficients) for inv in G._plans.values()]
    assert len(inverses) == 3  # S's two classes and S~'s one
    del G
    gc.collect()
    assert all(ref() is None for ref in inverses)


def test_an_unknown_support_decode_checks_and_gathers_its_grid_once(monkeypatch):
    L, P = 3, 4
    S, G = CellSupport(T=1.0, L=L, P=P, cells=[(0, 1), (2, 2)]), generate_window(L, seed=101)
    Z = _zak(S, G, 102)[1]
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    checked = _counting(monkeypatch, reconstruct, "_validate_grids", sparse)
    gathered = _counting(monkeypatch, channel, "_zak_vectors", reconstruct, sparse)
    report = sparse.recover_unknown_support(Z, G, R, k_max=2, tol=1e-10)
    assert len(checked) == len(gathered) == 1
    assert report.eta_hat.support.cells == S.cells and report.formula == "sharp"
    cold = recover_eta_known_support(Z, _fresh_window(G), _fresh_support(report.eta_hat.support))
    assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()


def test_threads_sharing_the_plans_get_the_cold_bits():
    G = generate_window(3, seed=87)
    supports = [sheared_parallelogram_support(P=4) for _ in range(6)]
    cases = [(S, *_zak(S, G, 88)) for S in supports]
    want = [recover_eta_known_support(Z, _fresh_window(G), _fresh_support(S)).eta_hat.values
            for S, _, Z in cases]
    errors = []

    def work(offset):
        try:
            for n in range(60):
                k = (offset + n) % len(cases)
                S, _, Z = cases[k]
                got = recover_eta_known_support(Z, G, S).eta_hat.values
                if got.tobytes() != want[k].tobytes():
                    errors.append(f"support {k} changed its bits")
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


def test_a_plan_built_by_two_callers_keeps_the_first_result():
    S = staircase_support(P=4)
    first = []

    def late():  # another caller builds and keeps the same plan while this build runs
        first.append(_plan(S, "plan", lambda: ["first"]))
        return ["late"]

    assert _plan(S, "plan", late) is first[0] and S._plans["plan"] == ["first"]
    with pytest.raises(ZeroDivisionError):  # a build that raises keeps nothing
        _plan(S, "raises", lambda: 1 / 0)
    assert "raises" not in S._plans
