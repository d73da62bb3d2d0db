"""Solve plans: the tables a support keeps for its recoveries keep the bits of a cold solve.

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
from opsample import channel, reconstruct
from opsample.presets import (
    seven_cell_support,
    sheared_parallelogram_support,
    stacked_cover_violation,
    staircase_support,
    translate_collision_support,
)
from opsample.support import _plan
from opsample.reconstruct import (
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    reconstruct_h_sharp,
)


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


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
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
    # 3 inverses per window on S, and 3 for each of the four cold solves
    assert [args[0] for args in inverted[:3]] == [windows[0]] * 3
    assert [args[0] for args in inverted[6:9]] == [windows[1]] * 3
    assert len(inverted) == 3 * 2 + 3 * 4
    assert _phase_tables(phases, S.L * S.P, S.P) == 2 + 2 * 4  # once for S, once per cold one
    assert sum(isinstance(key, tuple) and key[0] is windows[1] for key in S._plans) == 3


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
    # S keeps what it alone determines; the refusal is a fact of the window: no (G, cells) key
    assert len(rectified) == 4 and sorted(parallel._plans) == ["read-off", "rectify"]
    unrectifiable = CellSupport(T=1.0, L=3, P=8, cells=[(0, 0), (0, 1), (0, 2), (1, 0)])
    for _ in range(2):
        with pytest.raises(ShearNotRectifiable):
            recover_symplectic(np.zeros((24, 8)), G, unrectifiable, a=unrectifiable.omega)
    assert len(rectified) == 6


def _plan_arrays(S, kappa):
    S_tilde, *shear = S._plans[kappa]
    for support in (S, S_tilde):
        yield from support._plans["read-off"]
        yield from (plan.coefficients for key, plan in support._plans.items()
                    if isinstance(key, tuple))
    yield from shear
    yield S_tilde.mask


def test_remembered_arrays_are_read_only():
    S, G = sheared_parallelogram_support(P=8), generate_window(3, seed=82)
    eta, Z = _zak(S, G, 83, chirp_a=S.omega)
    recover_symplectic(Z, G, S, S.omega)
    reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
    arrays = list(_plan_arrays(S, 1))
    # read-off 3 + 2 classes for S, 3 + 1 class for S~, shear 3, the mask of S~
    assert len(arrays) == 5 + 4 + 3 + 1
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def _every_path(S, G):
    eta, Z = _zak(S, G, 84, chirp_a=S.omega)
    reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
    recover_symplectic(Z, G, S, S.omega)


def test_a_dead_support_takes_its_tables_with_it():
    G = generate_window(3, seed=85)
    first = sheared_parallelogram_support(P=4)
    _every_path(first, G)
    tables = [weakref.ref(a) for a in _plan_arrays(first, 1)]
    support = weakref.ref(first)
    del first
    gc.collect()
    assert support() is None and all(ref() is None for ref in tables)


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
