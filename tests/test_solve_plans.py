"""Solve plans: the tables a recovery remembers per support keep the bits of a cold solve.

Every "cold" solve runs on fresh Window(L, weights) and CellSupport objects built
from the same inputs, so no remembered table can reach it.
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
    NotIdentifiable,
    RankDeficient,
    ShearNotRectifiable,
    Window,
    apply_channel,
    generate_window,
    random_spreading,
    zak_transform,
)
from opsample import reconstruct
from opsample.presets import (
    seven_cell_support,
    sheared_parallelogram_support,
    stacked_cover_violation,
    staircase_support,
    translate_collision_support,
)
from opsample.reconstruct import (
    PLAN_CACHE,
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


@pytest.mark.parametrize("kappa", [1, 2])  # kappa*L odd (s = P/2), then even (s = 0)
def test_symplectic_builds_the_sheared_support_once(monkeypatch, kappa):
    S, G = sheared_parallelogram_support(P=8, shear=kappa), generate_window(3, seed=75)
    a = kappa * S.omega
    built = _counting(monkeypatch, reconstruct, "CellSupport")
    chirps = _counting(monkeypatch, reconstruct, "_chirp_phase")
    rectified = _counting(monkeypatch, reconstruct, "rectify")
    spreading = _counting(monkeypatch, reconstruct, "DiscreteSpreadingFunction")
    for seed in (76, 77):
        eta, Z = _zak(S, G, seed, chirp_a=a)
        report = recover_symplectic(Z, G, S, a)
        cold = recover_symplectic(Z, _fresh_window(G), _fresh_support(S), a)
        assert report.eta_hat.values.tobytes() == cold.eta_hat.values.tobytes()
        assert report.formula == "symplectic" and report.eta_hat.support is S
        assert report.per_class_conditioning == cold.per_class_conditioning
        assert np.max(np.abs(report.eta_hat.values - eta.values)) <= 1e-12
    assert len(built) == len(chirps) == 1 + 2  # S~ once for S, once per cold support
    assert len(rectified) == 4  # S~ is rectified on every solve
    assert len(spreading) == 4  # one spreading function per public call


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
    assert len(rectified) == 2
    # c = (1, 0, 0): cells (0, 0) and (0, 1) have parallel columns
    parallel = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (0, 1)])
    degenerate = Window(L=3, weights=np.array([1.0, 0, 0]))
    for _ in range(2):
        with pytest.raises(RankDeficient):
            recover_eta_known_support(np.zeros((12, 4)), degenerate, parallel)
    assert len(rectified) == 4 and reconstruct._known_plan(parallel, degenerate)[-1] == {}
    unrectifiable = CellSupport(T=1.0, L=3, P=8, cells=[(0, 0), (0, 1), (0, 2), (1, 0)])
    for _ in range(2):
        with pytest.raises(ShearNotRectifiable):
            recover_symplectic(np.zeros((24, 8)), G, unrectifiable, a=unrectifiable.omega)
    assert len(rectified) == 6


def _plan_arrays(S, G, kappa):
    S_tilde, *shear = reconstruct._shear_plan(S, kappa)
    for plan in (reconstruct._known_plan(S, G), reconstruct._known_plan(S_tilde, G)):
        *read_off, inverses = plan
        yield from read_off
        yield from (inv.coefficients for inv in inverses.values())
    yield from shear
    yield S_tilde.mask


def test_remembered_arrays_are_read_only():
    S, G = sheared_parallelogram_support(P=8), generate_window(3, seed=82)
    eta, Z = _zak(S, G, 83, chirp_a=S.omega)
    recover_symplectic(Z, G, S, S.omega)
    reconstruct_h_sharp(recover_eta_known_support(Z, G, S))
    arrays = list(_plan_arrays(S, G, 1))
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
    tables = [weakref.ref(a) for a in _plan_arrays(first, G, 1)]
    support = weakref.ref(first)
    del first
    gc.collect()
    assert support() is None and all(ref() is None for ref in tables)


def test_the_plans_hold_the_last_PLAN_CACHE_supports():
    G = generate_window(3, seed=86)
    supports = [staircase_support(P=4) for _ in range(PLAN_CACHE + 1)]
    plans = [reconstruct._known_plan(S, G) for S in supports[:PLAN_CACHE]]
    assert reconstruct._known_plan(supports[0], G) is plans[0]  # a hit makes it the most recent
    reconstruct._known_plan(supports[PLAN_CACHE], G)  # pushes out supports[1], the least recent
    assert reconstruct._known_plan(supports[0], G) is plans[0]
    assert reconstruct._known_plan(supports[1], G) is not plans[1]


def test_threads_sharing_the_plans_get_the_cold_bits():
    G = generate_window(3, seed=87)
    supports = [sheared_parallelogram_support(P=4) for _ in range(PLAN_CACHE + 3)]
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
