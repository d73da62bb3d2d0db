import numpy as np
import pytest

from opsample.errors import GridMismatch, InvalidParameters, NotIdentifiable
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
    check_fundamental_domain,
    check_identifiable,
    jordan_rectification_bound,
    periodization_count,
    rectify,
    union_supports,
)

from oracles import fold_count_oracle, jordan_bound_oracle, occupancy_oracle


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


def test_derived_quantities():
    S = CellSupport(T=0.5, L=4, P=8, cells=((0, 0),))
    assert S.omega == pytest.approx(1 / 2.0)
    assert S.dt == pytest.approx(0.0625)
    assert S.dnu == pytest.approx(1 / 16.0)
    assert S.T * S.omega * S.L == pytest.approx(1.0)


def test_fold_counts_match_oracle():
    rng = np.random.default_rng(5)
    mask = rng.random((13, 17)) < 0.3
    # odd extent plus negative/positive offsets
    S = CellSupport(T=1.0, L=3, P=4, mask=mask, shift=(-2 * 0.25, 3 * (1 / 12.0)))
    for pi, pj in ((4, 4), (12, 12), (5, 7)):
        np.testing.assert_array_equal(
            S.fold_counts(pi, pj), fold_count_oracle(mask, S.offsets, pi, pj)
        )


def test_fundamental_domain_all_cells():
    for L in (2, 3):
        S = CellSupport(T=1.0, L=L, P=4, cells=tuple((q, m) for q in range(L) for m in range(L)))
        assert check_fundamental_domain(S) is True
        assert periodization_count(S).min() == L * L
        assert periodization_count(S).max() == L * L


def test_fundamental_domain_overflow_collision():
    S = translate_collision_support()
    assert check_fundamental_domain(S) is False
    assert check_identifiable(S) is False


def test_single_cell_counts():
    S = CellSupport(T=1.0, L=3, P=8, cells=((2, 1),))
    counts = periodization_count(S)
    assert counts.min() == 1 and counts.max() == 1


def test_staircase_identifiable_single_class():
    S = staircase_support()
    assert check_fundamental_domain(S) is True
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


def test_parallelogram_instance():
    S = sheared_parallelogram_support()
    assert len(S.cells) == 6
    assert S.area == pytest.approx(1.0)
    counts = periodization_count(S)
    assert counts.max() == 3 and counts.min() == 3
    rep = rectify(S)
    assert len(rep.classes) == 2
    patterns = {cls.cells for cls in rep.classes}
    assert patterns == {((0, 0), (1, 1), (2, 2)), ((0, 1), (1, 2), (2, 0))}


def test_cover_violation_rejected():
    S = stacked_cover_violation()
    assert check_fundamental_domain(S) is True
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


def test_jordan_bound_matches_oracle_and_validates():
    assert jordan_rectification_bound(1, 1, 0.04, 1, 1.0) == jordan_bound_oracle(
        1, 1, 0.04, 1, 1.0
    )
    assert jordan_rectification_bound(1, 1, 0.04, 1, 1.0) == 5
    assert jordan_rectification_bound(3, 2, 1.0, 2, 0.5) == jordan_bound_oracle(
        3, 2, 1.0, 2, 0.5
    )
    with pytest.raises(InvalidParameters):
        jordan_rectification_bound(1, 1, 0.04, 1, 1.0, sigma=0.0)
    with pytest.raises(InvalidParameters):
        jordan_rectification_bound(1, 1, 0.04, 1, 1.0, sigma=1.5)
    with pytest.raises(InvalidParameters):
        jordan_rectification_bound(-1, 1, 0.04, 1, 1.0)


def test_union_supports():
    S1 = CellSupport(T=1.0, L=3, P=4, cells=((0, 0),))
    S2 = CellSupport(T=1.0, L=3, P=4, cells=((1, 1),))
    U = union_supports(S1, S2)
    assert U.cells == ((0, 0), (1, 1))
    with pytest.raises(GridMismatch):
        union_supports(S1, CellSupport(T=2.0, L=3, P=4, cells=((0, 0),)))
