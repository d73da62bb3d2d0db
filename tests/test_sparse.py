"""Joint-sparse support estimation and the unknown-support pipeline."""

import numpy as np
import pytest

from opsample import (
    CellSupport,
    GridMismatch,
    IdentifierTrain,
    InvalidParameters,
    NoConvergence,
    RankDeficient,
    Window,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    random_spreading,
    zak_transform,
)
from opsample.sparse import mmv_omp, recover_unknown_support, verify_uniqueness_class
from opsample.channel import DiscreteSpreadingFunction


def _measurements(S, window, seed):
    """Zak grid and stacked Z-vectors for a random eta on S."""
    eta = random_spreading(S, seed=seed)
    g = IdentifierTrain(T=S.T, weights=window)
    Z = zak_transform(apply_channel(eta, g))
    L, P = S.L, S.P
    u = np.repeat(np.arange(P), P)
    v = np.tile(np.arange(P), P)
    p = np.arange(L)[:, None]
    Y = Z[u[None, :] + p * P, v[None, :]] * np.exp(
        -2j * np.pi * ((v[None, :] * p) % (L * P)) / (L * P)
    )
    return eta, Z, Y


def test_single_cell_single_iteration():
    S = CellSupport(T=1.0, L=3, P=4, cells=[(1, 1)])
    window = generate_window(3, seed=70)
    _, _, Y = _measurements(S, window, seed=71)
    est = mmv_omp(Y, build_gabor_matrix(window), k_max=1, tol=1e-10)
    assert est.gamma_hat == ((1, 1),)
    assert len(est.residual_history) == 1
    assert est.residual_history[-1] <= 1e-10
    assert est.converged


@pytest.mark.filterwarnings("error")
def test_validation():
    G = build_gabor_matrix(generate_window(3, seed=72))
    with pytest.raises(GridMismatch):
        mmv_omp(np.zeros((4, 2)), G, 1, 1e-9)
    with pytest.raises(InvalidParameters):
        mmv_omp(np.zeros((3, 2)), G, 0, 1e-9)
    with pytest.raises(InvalidParameters):
        mmv_omp(np.zeros((3, 2)), G, 4, 1e-9)
    with pytest.raises(InvalidParameters):
        mmv_omp(np.zeros((3, 2)), G, 1, -1.0)
    # an all-zero window has zero dictionary columns
    zero = build_gabor_matrix(Window(L=3, weights=np.zeros(3)))
    for Y in (np.ones((3, 4)), np.zeros((3, 4))):
        with pytest.raises(RankDeficient):
            mmv_omp(Y, zero, 1, 1e-9)
    # non-finite measurements are refused, not reported as a NaN residual
    R = CellSupport(T=1.0, L=3, P=4, cells=[(q, m) for q in range(3) for m in range(3)])
    for x in (np.nan, np.inf):
        Y = np.ones((3, 4), dtype=complex)
        Y[0, 0] = x
        with pytest.raises(InvalidParameters):
            mmv_omp(Y, G, 1, 1e-9)
        Z = np.zeros((12, 4), dtype=complex)
        Z[0, 0] = x
        with pytest.raises(InvalidParameters):
            recover_unknown_support(Z, G, R, 1, 1e-9)


def test_zero_measurements():
    G = build_gabor_matrix(generate_window(3, seed=73))
    est = mmv_omp(np.zeros((3, 7)), G, 1, 1e-9)
    assert est.gamma_hat == ()
    assert est.residual_history == [0.0]
    assert est.converged


def test_scaling_invariance_and_subsampling_determinism():
    S = CellSupport(T=1.0, L=3, P=4, cells=[(0, 1), (2, 2)])
    window = generate_window(3, seed=74)
    G = build_gabor_matrix(window)
    _, _, Y = _measurements(S, window, seed=75)
    wide = np.hstack([Y] * 8)  # 128 columns > 4 L^2 = 36: subsampling kicks in
    a = mmv_omp(wide, G, 2, 1e-9, seed=5)
    b = mmv_omp(1e6 * wide, G, 2, 1e-9, seed=5)
    assert a.gamma_hat == b.gamma_hat == ((0, 1), (2, 2))
    np.testing.assert_allclose(a.residual_history, b.residual_history, atol=1e-12)


def test_residual_monotone_and_tie_break():
    # c = delta: all columns (0, m) are parallel, so scores tie and the lowest
    # linear index (0, 0) must win; the joint re-fit then zeroes the residual
    window = Window(L=3, weights=np.array([1.0, 0.0, 0.0]))
    S = CellSupport(T=1.0, L=3, P=4, cells=[(0, 2)])
    _, _, Y = _measurements(S, window, seed=76)
    est = mmv_omp(Y, build_gabor_matrix(window), k_max=3, tol=0.0)
    assert est.gamma_hat[0] == (0, 0)
    hist = est.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
    assert hist[-1] <= 1e-12


def test_half_sparse_recovery_rate():
    # floor(L/2)-sparse supports with a full-spark window: greedy recovery is
    # exact in nearly every trial, and every zero-residual estimate of that
    # size must equal the truth (uniqueness).  Seed 235 is a full-spark draw
    # whose dictionary coherence is low (~0.53); sloppier windows drag the
    # hit rate of correlation-based selection well below the target.
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    rng = np.random.default_rng(78)
    exact = 0
    trials = 30
    for trial in range(trials):
        picks = rng.choice(L * L, size=2, replace=False)
        cells = [(int(c) // L, int(c) % L) for c in picks]
        S = CellSupport(T=1.0, L=L, P=P, cells=cells)
        _, _, Y = _measurements(S, window, seed=1000 + trial)
        est = mmv_omp(Y, G, k_max=2, tol=1e-10, gamma_true=cells)
        if est.exact_match:
            exact += 1
        if est.converged and len(est.gamma_hat) <= L // 2:
            assert set(est.gamma_hat) == set(cells)
    assert exact >= int(0.9 * trials)


def test_near_full_sparsity_rate():
    # |Gamma| = L - 1 is past the floor(L/2) uniqueness cap: the sparse
    # solution is still unique for almost every random eta, but greedy
    # correlation selection has no guarantee of finding it and mostly does
    # not at this density.  Run the Monte Carlo, log the failures, report
    # the rate, and check the estimator stays honest either way.
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    rng = np.random.default_rng(80)
    trials = 20
    failures = []
    exact = 0
    for trial in range(trials):
        picks = rng.choice(L * L, size=L - 1, replace=False)
        cells = [(int(c) // L, int(c) % L) for c in picks]
        S = CellSupport(T=1.0, L=L, P=P, cells=cells)
        _, _, Y = _measurements(S, window, seed=2000 + trial)
        est = mmv_omp(Y, G, k_max=L - 1, tol=1e-10, gamma_true=cells)
        assert est.exact_match == (set(est.gamma_hat) == set(cells))
        hist = est.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
        if est.exact_match:
            assert est.converged
            exact += 1
        else:
            failures.append((trial, hist[-1]))
    print(f"near-full sparsity recovery rate: {exact}/{trials}")
    for trial, residual in failures:
        print(f"  trial {trial}: wrong support, residual {residual:.3e}")
    assert exact + len(failures) == trials
    assert exact >= 1


def test_verify_uniqueness_class():
    # disjoint single cells: union is a trivial 2-cover
    A = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0)])
    B = CellSupport(T=1.0, L=3, P=4, cells=[(2, 1)])
    assert verify_uniqueness_class(A, B, 1.0 / 3.0)

    # same cell twice, one copy shifted a full t-superperiod: the union
    # violates the fundamental-domain condition though each side is fine alone
    D = CellSupport(T=1.0, L=3, P=4, cells=[(0, 0)], shift=(3.0, 0.0))
    assert not verify_uniqueness_class(A, D, 1.0 / 3.0)

    # stacked covers: each side needs Delta*L >= 3, past the theorem's range
    L = 5
    S1 = CellSupport(T=1.0, L=L, P=4, cells=[(0, 0), (1, 0), (2, 0)])
    S2 = CellSupport(T=1.0, L=L, P=4, cells=[(0, 1), (1, 1), (2, 1)])
    assert not verify_uniqueness_class(S1, S2, 0.5)
    # the boundary Delta = 1/2 + 1/(2L) itself is excluded
    assert not verify_uniqueness_class(S1, S2, 0.5 + 1.0 / (2 * L))


def test_recover_unknown_support_end_to_end():
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    cells = [(1, 3), (4, 0)]
    S = CellSupport(T=0.5, L=L, P=P, cells=cells)
    eta, Z, _ = _measurements(S, window, seed=82)
    R = CellSupport(T=0.5, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    report = recover_unknown_support(
        Z, G, R, k_max=2, tol=1e-10, eta_true=eta, gamma_true=cells
    )
    assert report.support_estimate.exact_match
    assert report.relative_l2_error <= 1e-9
    assert set(report.eta_hat.support.cells) == set(cells)


def test_recover_unknown_support_nonconvergence():
    L, P = 5, 4
    window = generate_window(L, seed=83)
    G = build_gabor_matrix(window)
    S = CellSupport(T=1.0, L=L, P=P, cells=[(0, 2), (3, 1)])
    _, Z, _ = _measurements(S, window, seed=84)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    with pytest.raises(NoConvergence) as exc:
        recover_unknown_support(Z, G, R, k_max=1, tol=1e-10)
    est = exc.value.estimate
    assert len(est.gamma_hat) == 1
    assert est.residual_history[-1] > 1e-10


def test_full_estimate_is_not_certified():
    # any L columns of a full-spark G span C^L: an L-cell fit certifies nothing
    L, P = 3, 4
    window = generate_window(L, seed=85)
    G = build_gabor_matrix(window)
    S = CellSupport(T=1.0, L=L, P=P, cells=[(0, 0), (1, 0), (2, 1)])
    _, Z, _ = _measurements(S, window, seed=89)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    with pytest.raises(NoConvergence) as exc:
        recover_unknown_support(Z, G, R, k_max=L, tol=1e-10)
    est = exc.value.estimate
    assert len(est.gamma_hat) == L
    assert est.converged


def test_candidate_restriction():
    L, P = 3, 4
    window = generate_window(L, seed=85)
    G = build_gabor_matrix(window)
    S = CellSupport(T=1.0, L=L, P=P, cells=[(2, 2)])
    _, Z, _ = _measurements(S, window, seed=86)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(2, 2), (1, 1), (0, 2)])
    report = recover_unknown_support(Z, G, R, k_max=1, tol=1e-10)
    assert set(report.eta_hat.support.cells) <= set(R.cells)
    assert report.eta_hat.support.cells == ((2, 2),)


def test_k_subdivided_class_structure():
    # one full cell plus one half-filled cell: the occupancy pattern splits a
    # class in two at subcell level, yet the union support is the same two
    # cells and the end-to-end recovery stays exact
    L, P = 5, 4
    window = generate_window(L, seed=87)
    G = build_gabor_matrix(window)
    LP = L * P
    mask = np.zeros((LP, LP), dtype=bool)
    mask[1 * P : 2 * P, 2 * P : 3 * P] = True  # cell (1, 2), full
    mask[3 * P : 4 * P, 0 : P // 2] = True  # cell (3, 0), left half
    S = CellSupport(T=1.0, L=L, P=P, mask=mask)
    rng = np.random.default_rng(88)
    values = rng.standard_normal((LP, LP)) + 1j * rng.standard_normal((LP, LP))
    values[~mask] = 0
    eta = DiscreteSpreadingFunction(support=S, values=values)
    Z = zak_transform(apply_channel(eta, IdentifierTrain(T=1.0, weights=window)))
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    report = recover_unknown_support(
        Z, G, R, k_max=2, tol=1e-10, eta_true=values, gamma_true=[(1, 2), (3, 0)]
    )
    assert report.support_estimate.exact_match
    assert report.relative_l2_error <= 1e-9
