import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from opsample import support
from opsample.channel import ChannelResponse
from opsample.errors import InvalidParameters, NotIdentifiable
from opsample.presets import (
    seven_cell_support,
    sheared_parallelogram_support,
    staircase_support,
    stacked_cover_violation,
    translate_collision_support,
)
from opsample.support import (
    CellSupport,
    bandwidth,
    check_identifiable,
    periodization_count,
    rectify,
)
from opsample.rates import refine_support

from oracles import fold_count_oracle, occupancy_oracle, rectify_oracle


def test_cell_support_builds_full_cell_mask():
    S = CellSupport(T=1.0, L=2, P=4, cells=((0, 0), (1, 1)))
    assert S.mask.shape == (8, 8)
    assert S.mask[0:4, 0:4].all() and S.mask[4:8, 4:8].all()
    assert S.mask.sum() == 32
    assert S.cells == ((0, 0), (1, 1))
    assert S.area == pytest.approx(1.0)  # 2 cells of area 1/2 each


def test_cell_support_derives_cells_from_mask():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    mask[5, 5] = True
    S = CellSupport(T=2.0, L=2, P=3, mask=mask)
    assert S.cells == ((0, 0), (1, 1))


def test_cell_support_rejects_inconsistent_cells():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = True
    with pytest.raises(InvalidParameters):
        CellSupport(T=1.0, L=2, P=3, cells=((1, 1),), mask=mask)


def test_cell_support_shift_must_be_grid_aligned():
    with pytest.raises(InvalidParameters):
        CellSupport(T=1.0, L=2, P=4, cells=((0, 0),), shift=(0.1, 0.0))
    S = CellSupport(T=1.0, L=2, P=4, cells=((0, 0),), shift=(0.25, 0.0))
    assert S.offsets == (1, 0)


def test_cell_support_rejects_non_finite_T():
    for T in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InvalidParameters):
            CellSupport(T=T, L=2, P=4, cells=((0, 0),))


def test_cell_support_takes_integer_L_and_P():
    for L, P in ((2.0, 4), (2, 4.0), (True, 4), (2, True), (np.float64(2), 4), (2, "4")):
        with pytest.raises(InvalidParameters, match="[LP] must be an integer >= 1"):
            CellSupport(T=1.0, L=L, P=P, cells=((0, 0),))
    S = CellSupport(T=1.0, L=np.int64(2), P=np.uint8(4), cells=((0, 0),))
    assert S.mask.shape == (8, 8)


def test_cell_support_rejects_an_infinite_or_vanishing_grid():
    # T itself finite and positive, but Omega = 1/(L*T) or a grid step is not
    for T, L, P in ((1e-320, 3, 8), (1e308, 3, 8), (5e-324, 1, 2)):
        with pytest.raises(InvalidParameters, match="Omega"):
            CellSupport(T=T, L=L, P=P, cells=((0, 0),))


def test_cell_support_rejects_non_finite_shift():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for shift in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(InvalidParameters):
                CellSupport(T=1.0, L=2, P=4, cells=((0, 0),), shift=shift)


def test_shifted_cells_are_the_folded_footprint():
    # cells= label the unshifted mask; the shift moves them onto more cells
    shift = (3 / 8, 2 / 24)
    S = CellSupport(T=1.0, L=3, P=8, cells=((0, 0), (1, 0), (2, 1)), shift=shift)
    same = CellSupport(T=1.0, L=3, P=8, mask=S.mask, shift=shift)
    assert len(S.cells) == 8
    assert S.cells == same.cells
    rep = rectify(S)
    assert rep.gamma == S.cells == tuple(sorted({c for cls in rep.classes for c in cls.cells}))


def test_cell_built_labels_are_the_folded_footprint():
    # with a zero shift the declared labels are taken as the cells; a shift re-folds
    L, P = 4, 3
    omega = 1.0 / L
    rng = np.random.default_rng(5)
    for _ in range(12):
        cells = [divmod(int(c), L) for c in rng.choice(L * L, rng.integers(1, L * L), False)]
        as_numpy = [(np.int64(q), np.intp(m)) for q, m in cells]
        for labels in (cells, np.array(cells), as_numpy, cells[::-1] + cells):
            for i0, j0 in ((0, 0), (1, -5), (-7, 2), (L * P, 0)):
                shift = (i0 / P, j0 * omega / P)
                S = CellSupport(T=1.0, L=L, P=P, cells=labels, shift=shift)
                assert S.cells == CellSupport(T=1.0, L=L, P=P, mask=S.mask, shift=shift).cells
                assert all(type(x) is int for cell in S.cells for x in cell)
    S = CellSupport(T=1.0, L=2, P=2, cells=[(True, False), (0, True), (1, 0)])
    assert S.cells == ((0, 1), (1, 0))
    assert all(type(x) is int for cell in S.cells for x in cell)
    for labels in ([(2, 0)], np.array([[0, -1]])):
        with pytest.raises(InvalidParameters, match="outside"):
            CellSupport(T=1.0, L=2, P=2, cells=labels)


def test_derived_quantities():
    S = CellSupport(T=0.5, L=4, P=8, cells=((0, 0),))
    assert S.omega == pytest.approx(1 / 2.0)
    assert S.dt == pytest.approx(0.0625)
    assert S.dnu == pytest.approx(1 / 16.0)
    assert S.T * S.omega * S.L == pytest.approx(1.0)


def test_fold_counts_match_oracle():
    rng = np.random.default_rng(5)
    mask = rng.random((13, 17)) < 0.3
    # odd extent plus negative/positive offsets, then an identity fold (a uint8 view)
    shifted = CellSupport(T=1.0, L=3, P=4, mask=mask, shift=(-2 * 0.25, 3 * (1 / 12.0)))
    plain = CellSupport(T=1.0, L=3, P=4, mask=rng.random((12, 12)) < 0.3)
    for S in (shifted, plain):
        np.testing.assert_array_equal(
            S.fold_counts(), fold_count_oracle(S.mask, S.offsets, 12, 12)
        )
        count = periodization_count(S)
        assert count.dtype == np.int64
        np.testing.assert_array_equal(count, fold_count_oracle(S.mask, S.offsets, 4, 4))


def test_unshifted_fold_makes_no_widening_copy():
    S = CellSupport(T=1.0, L=4, P=512, cells=((0, 0), (1, 2), (3, 1)))
    assert S.mask.shape == (2048, 2048)
    tracemalloc.start()
    try:
        S.fold_counts() > 0
        fold_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert check_identifiable(S)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(fold_peak, check_peak) < 2 * S.mask.nbytes
    small = CellSupport(T=1.0, L=3, P=4, mask=np.random.default_rng(6).random((12, 12)) < 0.3)
    np.testing.assert_array_equal(
        small.fold_counts(), fold_count_oracle(small.mask, (0, 0), 12, 12)
    )


def test_fundamental_domain_all_cells():
    for L in (2, 3):
        S = CellSupport(T=1.0, L=L, P=4, cells=tuple((q, m) for q in range(L) for m in range(L)))
        assert S.fold_counts().max() <= 1
        assert periodization_count(S).min() == L * L
        assert periodization_count(S).max() == L * L


def test_fundamental_domain_overflow_collision():
    S = translate_collision_support()
    assert S.fold_counts().max() > 1
    assert check_identifiable(S) is False


def test_single_cell_counts():
    S = CellSupport(T=1.0, L=3, P=8, cells=((2, 1),))
    counts = periodization_count(S)
    assert counts.min() == 1 and counts.max() == 1


def test_staircase_identifiable_single_class():
    S = staircase_support()
    assert S.fold_counts().max() <= 1
    assert check_identifiable(S) is True
    rep = rectify(S)
    assert rep.gamma == ((0, 0), (1, 0), (2, 1))
    assert rep.max_cover == 3
    assert len(rep.classes) == 1
    assert rep.classes[0].cells == ((0, 0), (1, 0), (2, 1))
    assert rep.classes[0].points.all()
    assert bandwidth(S) == pytest.approx(S.omega)
    assert S.area == pytest.approx(1.0)


def test_seven_cell_instance():
    S = seven_cell_support()
    assert len(S.cells) == 7
    assert S.area == pytest.approx(1.0)
    counts = periodization_count(S)
    assert counts.max() == 3 and counts.min() == 3  # exact L-cover
    rep = rectify(S)
    assert len(rep.classes) == 3
    for cls in rep.classes:
        assert len(cls.cells) == 3
    # classes partition the base rectangle
    total = sum(cls.points.sum() for cls in rep.classes)
    assert total == S.P * S.P
    # B(S) = 2*Omega to within one subcell height
    assert abs(bandwidth(S) - 2 * S.omega) <= S.dnu + 1e-12


def test_seven_cell_matches_occupancy_oracle():
    S = seven_cell_support()
    occ = occupancy_oracle(S.mask, S.offsets, S.L, S.P)
    rep = rectify(S)
    for cls in rep.classes:
        for u, v in zip(*np.nonzero(cls.points)):
            assert occ[(u, v)] == frozenset(cls.cells)


def _random_identifiable_mask(rng, L, P):
    """(L*P)^2 mask whose base points each take one of a few patterns of at
    most L cells, so the fold conditions hold and classes repeat."""
    pool = [rng.choice(L * L, size=rng.integers(0, L + 1), replace=False) for _ in range(6)]
    mask = np.zeros((L * P, L * P), dtype=bool)
    for u in range(P):
        for v in range(P):
            for b in pool[rng.integers(len(pool))]:
                mask[u + (b // L) * P, v + (b % L) * P] = True
    return mask


def _whole_cell_supports():
    """Every set of at most L whole cells at L=3, P=4 (the empty set included)
    and seeded sets at L=5, P=16."""
    sets = [(3, 4, c) for n in range(4) for c in itertools.combinations(range(9), n)]
    rng = np.random.default_rng(19)
    sets += [(5, 16, rng.choice(25, size=rng.integers(0, 6), replace=False)) for _ in range(8)]
    return [CellSupport(T=1.0, L=L, P=P, cells=[divmod(int(b), L) for b in c]) for L, P, c in sets]


def _near_whole_cell_supports():
    """Whole cells one step from the one-class rule: a subcell removed, a shift
    by one subcell, and (L*P + P, L*P) masks, spilled and not."""
    L, P = 3, 4
    LP = L * P
    whole = CellSupport(T=1.0, L=L, P=P, cells=((0, 1), (1, 0)))
    dented = whole.mask.copy()
    dented[P + 1, 2] = False  # one subcell of cell (1, 0) removed
    spilled = np.zeros((LP + P, LP), dtype=bool)
    spilled[:LP] = whole.mask
    spilled[LP:, :P] = True  # the L*T translate of the empty cell (0, 0)
    return [
        CellSupport(T=1.0, L=L, P=P, mask=dented),
        CellSupport(T=1.0, L=L, P=P, mask=whole.mask, shift=(whole.dt, 0.0)),
        CellSupport(T=1.0, L=L, P=P, mask=whole.mask, shift=(0.0, -whole.dnu)),
        CellSupport(T=1.0, L=L, P=P, mask=spilled),
        CellSupport(T=1.0, L=L, P=P, mask=np.vstack([whole.mask, np.zeros((P, LP), dtype=bool)])),
    ]


def test_rectify_class_order_matches_oracle():
    rng = np.random.default_rng(91)
    supports = [
        CellSupport(T=1.0, L=L, P=P, mask=_random_identifiable_mask(rng, L, P))
        for L in (1, 2, 3, 5, 9)  # L = 9: 81-bit patterns, keys span bytes with padding
        for P in (1, 3, 4)
    ]
    stairs = staircase_support().cells
    supports += [
        CellSupport(T=1.0, L=3, P=8, cells=stairs, shift=(3 / 8, 2 / 24)),
        CellSupport(T=1.0, L=3, P=8, cells=stairs, shift=(-5 / 8, -3 / 24)),
        CellSupport(
            T=1.0, L=5, P=3, mask=_random_identifiable_mask(rng, 5, 3), shift=(-2 / 3, 4 / 15)
        ),
        seven_cell_support(),
        sheared_parallelogram_support(),
    ]
    supports += _whole_cell_supports() + _near_whole_cell_supports()
    for S in supports:
        rep = rectify(S)
        want = rectify_oracle(S.mask, S.offsets, S.L, S.P)
        assert [cls.cells for cls in rep.classes] == [cells for cells, _ in want]
        for cls, (_, points) in zip(rep.classes, want):
            np.testing.assert_array_equal(cls.points, points)
        assert rep.max_cover == periodization_count(S).max()
        assert rep.gamma == S.cells


def test_whole_cell_supports_are_one_class_without_a_fold(monkeypatch):
    folded = []
    folds = support._folds
    monkeypatch.setattr(support, "_folds", lambda S: folded.append(S) or folds(S))
    whole = _whole_cell_supports()
    assert len(whole) == 130 + 8
    for S in whole:
        (one,) = rectify(S).classes
        assert one.cells == S.cells and one.points.all()
        assert all(type(x) is int for cell in one.cells for x in cell)
    assert folded == []
    near = _near_whole_cell_supports()
    for S in near:
        rectify(S)
    assert folded == near
    too_many = CellSupport(T=1.0, L=3, P=4, cells=((0, 0), (0, 1), (1, 0), (2, 2)))
    with pytest.raises(NotIdentifiable):  # L + 1 whole cells: the general path's one raise
        rectify(too_many)
    assert folded[-1] is too_many


def test_parallelogram_instance():
    S = sheared_parallelogram_support()
    assert len(S.cells) == 6
    assert S.area == pytest.approx(1.0)
    counts = periodization_count(S)
    assert counts.max() == 3 and counts.min() == 3
    rep = rectify(S)
    assert len(rep.classes) == 2
    for shear in (1.5, np.nan, np.inf):  # not an integer multiple of Omega
        with pytest.raises(InvalidParameters):
            sheared_parallelogram_support(shear=shear)
    patterns = {cls.cells for cls in rep.classes}
    assert patterns == {((0, 0), (1, 1), (2, 2)), ((0, 1), (1, 2), (2, 0))}


def test_cover_violation_rejected():
    S = stacked_cover_violation()
    assert S.fold_counts().max() <= 1
    assert periodization_count(S).max() == 4
    assert check_identifiable(S) is False
    with pytest.raises(NotIdentifiable):
        rectify(S)


def test_rectify_monotone_under_cell_removal():
    S = seven_cell_support()
    base_max = periodization_count(S).max()
    mask = S.mask.copy()
    # drop one active cell's subcells entirely
    q, m = S.cells[0]
    P = S.P
    mask[q * P : (q + 1) * P, m * P : (m + 1) * P] = False
    S2 = CellSupport(T=S.T, L=S.L, P=S.P, mask=mask)
    assert periodization_count(S2).max() <= base_max
    assert check_identifiable(S2) is True


def test_bandwidth_empty_and_full():
    S = CellSupport(T=1.0, L=3, P=8, mask=np.zeros((24, 24), dtype=bool), cells=())
    assert bandwidth(S) == 0.0
    full = CellSupport(T=1.0, L=3, P=8, cells=tuple((q, m) for q in range(3) for m in range(3)))
    assert bandwidth(full) == pytest.approx(1.0)  # 1/T


def test_shifted_support_counts_are_translation_invariant():
    S = staircase_support()
    shifted = CellSupport(
        T=S.T, L=S.L, P=S.P, mask=S.mask, shift=(3 * S.dt, -2 * S.dnu)
    )
    np.testing.assert_array_equal(
        np.sort(periodization_count(S), axis=None),
        np.sort(periodization_count(shifted), axis=None),
    )
    assert check_identifiable(shifted) is True


def test_a_support_keeps_its_mask_after_the_caller_edits_it():
    m = np.zeros((16, 16), dtype=bool)
    m[0:8, 0:8] = True
    S = CellSupport(T=1.0, L=2, P=8, mask=m)
    m[8:16, 8:16] = True
    assert S.cells == ((0, 0),)
    assert S.mask.sum() == 64 and S.fold_counts().sum() == 64 and len(S.subcells[0]) == 64
    assert [cls.cells for cls in rectify(S).classes] == [((0, 0),)]


def test_a_support_is_a_read_only_value():
    plain = CellSupport(T=1.0, L=2, P=4, cells=[(0, 0)])
    assert not plain.fold_counts().flags.writeable  # the identity fold: a view of the mask
    shifted = CellSupport(T=1.0, L=3, P=4, cells=[(0, 1)], shift=(0.25, 0.0))
    for S in (plain, shifted, translate_collision_support()):
        assert not any(a.flags.writeable for a in (S.mask, *S.subcells))
        with pytest.raises(ValueError, match="read-only"):
            S.mask[0, 0] = not S.mask[0, 0]
        for name in ("mask", "cells", "T", "offsets"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(S, name, getattr(S, name))
        assert S.subcells is S.subcells  # computed once


def test_subcells_table_is_the_nonzero_points_and_the_per_axis_fold():
    rng = np.random.default_rng(9)
    collision = translate_collision_support(L=3, P=4)
    spilled = rng.random((15, 14)) < 0.4
    supports = [
        CellSupport(T=1.0, L=3, P=4, mask=rng.random((12, 12)) < 0.4, shift=(-5 * 0.25, 7 / 12)),
        CellSupport(T=1.0, L=3, P=4, mask=spilled),
        CellSupport(T=1.0, L=3, P=4, mask=spilled, shift=(3 * 0.25, -2 / 12)),
        collision,
        CellSupport(T=1.0, L=3, P=4, mask=collision.mask, shift=(-5 * 0.25, 7 / 12)),
    ]
    for S in supports:
        LP = S.L * S.P
        n_rows, n_cols = S.mask.shape
        rows, cols, k, i, j = S.subcells
        want_rows, want_cols = np.nonzero(S.mask)
        want_k, want_i = np.divmod(S.offsets[0] + np.arange(n_rows), LP)
        for got, want in zip(
            (rows, cols, k, i, j),
            (want_rows, want_cols, want_k, want_i, (S.offsets[1] + np.arange(n_cols)) % LP),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _refused_peak(build):
    """The tracemalloc peak of build(), which must refuse its grid by the L*P bound."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameters, match="exceeds the grid limit MAX_LP = 4096"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_grid_over_max_lp_is_refused_before_anything_is_allocated():
    # a bare numpy ValueError ("array is too big") from the mask or the fold before, and a
    # MemoryError from the refinement's np.kron
    S = CellSupport(T=1.0, L=2, P=4, cells=[(0, 1)])
    one = np.ones((1, 1), dtype=bool)
    builds = (
        lambda: CellSupport(T=1.0, L=10**6, P=10**6, cells=[(0, 0)]),
        lambda: CellSupport(T=1.0, L=10**6, P=10**6, mask=one),
        lambda: refine_support(S, 10**15),
        lambda: ChannelResponse(samples=one, T=1.0, L=17, P=241),  # L*P = 4097
    )
    for build in builds:
        assert _refused_peak(build) < 64 * 1024
    # L*P = MAX_LP itself builds
    assert CellSupport(T=1.0, L=64, P=64, cells=[(0, 0)]).mask.shape == (4096, 4096)
    assert ChannelResponse(samples=np.zeros(4096), T=1.0, L=4096, P=1).samples.size == 4096
    assert refine_support(S, 512).mask.shape == (4096, 4096)


def _assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a.flat[0] = a.flat[0]


@pytest.mark.parametrize(
    "make_support",
    [seven_cell_support, staircase_support, sheared_parallelogram_support,
     lambda: CellSupport(T=1.0, L=3, P=4, cells=[(0, 0), (1, 2)])],  # one class, no fold
    ids=["seven-cell", "staircase", "parallelogram", "whole-cells"],
)
def test_rectify_keeps_one_frozen_report_on_the_support(make_support):
    S = make_support()
    rep = rectify(S)
    assert rectify(S) is rep and S._plans == {"rectify": rep}
    fresh = rectify(make_support())  # a cold rectification of the same mask
    assert fresh is not rep and isinstance(rep.classes, tuple)
    assert [c.cells for c in rep.classes] == [c.cells for c in fresh.classes]
    for cls, cold in zip(rep.classes, fresh.classes, strict=True):
        assert cls.points.tobytes() == cold.points.tobytes()
        np.testing.assert_array_equal(cls.index, np.flatnonzero(cls.points))
        _assert_read_only(cls.points)
        _assert_read_only(cls.index)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls.points = np.ones_like(cls.points)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.classes = ()


def test_a_refused_rectification_keeps_nothing():
    bad = stacked_cover_violation(P=4)
    for _ in range(2):
        with pytest.raises(NotIdentifiable):
            rectify(bad)
    assert bad._plans == {}
