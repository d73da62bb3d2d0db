"""Joint-sparse support estimation and the unknown-support pipeline."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsample import (
    CellSupport,
    GridMismatch,
    IdentifierTrain,
    InvalidParameters,
    NoConvergence,
    RankDeficient,
    SearchBudgetExceeded,
    Window,
    apply_channel,
    build_gabor_matrix,
    generate_window,
    random_spreading,
    relative_l2_error,
    zak_transform,
)
from opsample import sparse
from opsample.sparse import mmv_omp, recover_unknown_support
from opsample.channel import DiscreteSpreadingFunction

from test_gabor import count_level_reads


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


def _omp(Y, G, k_max, tol):
    """mmv_omp with every cell of G's grid as a candidate."""
    return mmv_omp(Y, G, k_max, tol, [(q, m) for q in range(G.L) for m in range(G.L)])


def test_single_cell_single_iteration():
    S = CellSupport(T=1.0, L=3, P=4, cells=[(1, 1)])
    window = generate_window(3, seed=70)
    _, _, Y = _measurements(S, window, seed=71)
    est = _omp(Y, build_gabor_matrix(window), k_max=1, tol=1e-10)
    assert est.gamma_hat == ((1, 1),)
    assert len(est.residual_history) == 1
    assert est.residual_history[-1] <= 1e-10
    assert est.converged


@pytest.mark.filterwarnings("error")
def test_validation():
    G = build_gabor_matrix(generate_window(3, seed=72))
    for Y in (np.zeros((4, 2)), np.zeros(3), np.zeros((3, 2, 1))):  # (L, n) matrices only
        with pytest.raises(GridMismatch):
            _omp(Y, G, 1, 1e-9)
    with pytest.raises(InvalidParameters):
        _omp(np.zeros((3, 2)), G, 0, 1e-9)
    with pytest.raises(InvalidParameters):
        _omp(np.zeros((3, 2)), G, 4, 1e-9)
    for k_max in (1.5, 2.0, True, "2"):  # an integer in [1, L] only
        with pytest.raises(InvalidParameters, match="k_max must be an integer"):
            _omp(np.zeros((3, 2)), G, k_max, 1e-9)
    assert _omp(np.ones((3, 2)), G, np.int64(2), 1e-9).k_max == 2
    for tol in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameters):
            _omp(np.zeros((3, 2)), G, 1, tol)
    # an all-zero window has zero dictionary columns
    zero = build_gabor_matrix(Window(L=3, weights=np.zeros(3)))
    for Y in (np.ones((3, 4)), np.zeros((3, 4))):
        with pytest.raises(RankDeficient):
            _omp(Y, zero, 1, 1e-9)
    # an empty search domain is refused
    with pytest.raises(InvalidParameters):
        mmv_omp(np.ones((3, 4)), G, 1, 1e-9, candidates=[])
    empty = CellSupport(T=1.0, L=3, P=4, cells=[])
    with pytest.raises(InvalidParameters):
        recover_unknown_support(np.ones((12, 4)), G, empty, 1, 1e-9)
    # non-finite measurements are refused, not reported as a NaN residual
    R = CellSupport(T=1.0, L=3, P=4, cells=[(q, m) for q in range(3) for m in range(3)])
    for x in (np.nan, np.inf):
        Y = np.ones((3, 4), dtype=complex)
        Y[0, 0] = x
        with pytest.raises(InvalidParameters):
            _omp(Y, G, 1, 1e-9)
        Z = np.zeros((12, 4), dtype=complex)
        Z[0, 0] = x
        with pytest.raises(InvalidParameters):
            recover_unknown_support(Z, G, R, 1, 1e-9)


def test_zero_measurements():
    G = build_gabor_matrix(generate_window(3, seed=73))
    est = _omp(np.zeros((3, 7)), G, 1, 1e-9)
    assert est.gamma_hat == ()
    assert est.residual_history == [0.0]
    assert est.converged
    assert est.rank == 0


def test_compression_and_scaling_invariance():
    # the decoder sees Y only through its exact compression R^H (Y^H = QR):
    # duplicated Z-vectors and a rescaled Y give the same decision and history
    S = CellSupport(T=1.0, L=3, P=4, cells=[(0, 1), (2, 2)])
    window = generate_window(3, seed=74)
    G = build_gabor_matrix(window)
    _, _, Y = _measurements(S, window, seed=75)
    a, b, c = (_omp(Z, G, 2, 1e-9) for Z in (Y, np.hstack([Y, Y]), 1e6 * Y))
    assert a.gamma_hat == b.gamma_hat == c.gamma_hat == ((0, 1), (2, 2))
    np.testing.assert_allclose(b.residual_history, a.residual_history, atol=1e-12)
    np.testing.assert_allclose(c.residual_history, a.residual_history, atol=1e-12)
    # and the history is the least-squares residual of the uncompressed Y
    one = _omp(Y, G, 1, 1e-9)
    A = G.entries[:, [G.column_index(q, m) for q, m in one.gamma_hat]]
    misfit = Y - A @ np.linalg.lstsq(A, Y, rcond=None)[0]
    expected = np.linalg.norm(misfit) / np.linalg.norm(Y)
    assert one.residual_history == [pytest.approx(expected, rel=1e-12)]


def test_residual_monotone_and_tie_break():
    # c = delta: all columns (0, m) are parallel, so scores tie and the lowest
    # linear index (0, 0) must win; the joint re-fit then zeroes the residual
    window = Window(L=3, weights=np.array([1.0, 0.0, 0.0]))
    S = CellSupport(T=1.0, L=3, P=4, cells=[(0, 2)])
    _, _, Y = _measurements(S, window, seed=76)
    est = _omp(Y, build_gabor_matrix(window), k_max=3, tol=0.0)
    assert est.gamma_hat[0] == (0, 0)
    hist = est.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
    assert hist[-1] <= 1e-12


def test_half_sparse_recovery_rate():
    # floor(L/2)-sparse supports with a full-spark window: rank-aware
    # selection is exact in every trial, and every zero-residual estimate of
    # that size must equal the truth (uniqueness).
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
        est = _omp(Y, G, k_max=2, tol=1e-10)
        assert est.rank == 2  # generic data: rank Y = |Gamma|
        if set(est.gamma_hat) == set(cells):
            exact += 1
        if est.converged and len(est.gamma_hat) <= L // 2:
            assert set(est.gamma_hat) == set(cells)
    assert exact == trials


def test_near_full_sparsity_rate():
    # |Gamma| = L - 1 is past the floor(L/2) single-vector uniqueness cap, but
    # rank Y = L - 1 puts it inside the MMV rank bound |Gamma| < L: rank-aware
    # selection certifies it in every trial.  Log any failure and check the
    # estimator stays honest either way.
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
        est = _omp(Y, G, k_max=L - 1, tol=1e-10)
        assert est.rank == L - 1  # generic data: rank Y = |Gamma|
        exact_match = set(est.gamma_hat) == set(cells)
        hist = est.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))
        if exact_match:
            assert est.converged
            exact += 1
        else:
            failures.append((trial, hist[-1]))
    print(f"near-full sparsity recovery rate: {exact}/{trials}")
    for trial, residual in failures:
        print(f"  trial {trial}: wrong support, residual {residual:.3e}")
    assert exact + len(failures) == trials
    assert exact == trials


def test_no_column_is_picked_twice():
    # a one-cell domain that misses the support: after its one cell no
    # candidate is left, so k_max = 2 stops at one pick, not converged (also
    # at tol = 0, where the picked column's rounding-level remainder is not 0)
    L, P = 3, 4
    window = generate_window(L, seed=85)
    G = build_gabor_matrix(window)
    _, _, Y = _measurements(CellSupport(T=1.0, L=L, P=P, cells=[(1, 1)]), window, seed=91)
    for tol in (1e-10, 0.0):
        est = mmv_omp(Y, G, k_max=2, tol=tol, candidates=[(0, 2)])
        assert est.gamma_hat == ((0, 2),)
        assert len(est.residual_history) == 1
        assert not est.converged


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    L=st.integers(2, 5),
    P=st.integers(2, 6),
    T=st.sampled_from([0.5, 1.0, 2.0]),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    data=st.data(),
)
def test_every_support_below_L_cells_is_certified(L, P, T, seeds, data):
    # the MMV rank bound: with a full-spark window, any k < L whole cells are
    # found and certified exactly; k = L cells fit any data and are refused
    k = data.draw(st.integers(1, L), label="k")
    flat = data.draw(
        st.lists(st.integers(0, L * L - 1), min_size=k, max_size=k, unique=True), label="cells"
    )
    cells = [(c // L, c % L) for c in flat]
    window = generate_window(L, seed=seeds[0])
    G = build_gabor_matrix(window)
    eta, Z, _ = _measurements(CellSupport(T=T, L=L, P=P, cells=cells), window, seed=seeds[1])
    R = CellSupport(T=T, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    if k == L:
        with pytest.raises(NoConvergence):
            recover_unknown_support(Z, G, R, k_max=k, tol=1e-10)
        return
    report = recover_unknown_support(Z, G, R, k_max=k, tol=1e-10)
    assert set(report.support_estimate.gamma_hat) == set(cells)
    assert set(report.eta_hat.support.cells) == set(cells)
    assert relative_l2_error(report.eta_hat, eta) <= 1e-12


def test_weak_cell_is_found():
    # one cell carries 1e-8 of the amplitude: its residual direction stands
    # far above rounding (rank cut at tol times the norm of Y), so it is
    # still found and certified
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    rng = np.random.default_rng(92)
    for trial in range(10):
        cells = [(int(c) // L, int(c) % L) for c in rng.choice(L * L, size=3, replace=False)]
        S = CellSupport(T=1.0, L=L, P=P, cells=cells)
        values = random_spreading(S, seed=3000 + trial).values.copy()
        q, m = cells[0]
        values[q * P : (q + 1) * P, m * P : (m + 1) * P] *= 1e-8
        eta = DiscreteSpreadingFunction(support=S, values=values)
        Z = zak_transform(apply_channel(eta, IdentifierTrain(T=1.0, weights=window)))
        report = recover_unknown_support(Z, G, R, k_max=3, tol=1e-10)
        assert set(report.support_estimate.gamma_hat) == set(cells), trial


def test_recover_unknown_support_end_to_end():
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    cells = [(1, 3), (4, 0)]
    S = CellSupport(T=0.5, L=L, P=P, cells=cells)
    eta, Z, _ = _measurements(S, window, seed=82)
    R = CellSupport(T=0.5, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    report = recover_unknown_support(Z, G, R, k_max=2, tol=1e-10)
    assert set(report.support_estimate.gamma_hat) == set(cells)
    assert relative_l2_error(report.eta_hat, eta) <= 1e-9
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
    report = recover_unknown_support(Z, G, R, k_max=2, tol=1e-10)
    assert set(report.support_estimate.gamma_hat) == {(1, 2), (3, 0)}
    assert relative_l2_error(report.eta_hat, eta) <= 1e-9


def test_spark3_window_never_certifies_a_wrong_support():
    # census: every two-cell support at P = 8 under a spark-3 L = 5 window.  The L
    # columns of one q share the window's two rows, so any two of them span the same
    # plane and a zero-residual fit can pick the wrong pair.  Level 3 is dependent,
    # so no two-cell estimate is provable and none is certified.
    L, P = 5, 8
    window = generate_window(L, target="spark_k", k=2, seed=0)
    G = build_gabor_matrix(window)
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    certified = []
    for flat in itertools.combinations(range(L * L), 2):
        cells = [divmod(c, L) for c in flat]
        _, Z, _ = _measurements(CellSupport(T=1.0, L=L, P=P, cells=cells), window, seed=7)
        try:
            report = recover_unknown_support(Z, G, R, k_max=4, tol=1e-10)
        except NoConvergence as exc:
            assert exc.estimate.converged, cells  # refused by the bound, not the residual
            continue
        certified.append((cells, report.support_estimate.gamma_hat))
    assert certified == []


RANK_ONE_CELLS = [(0, 1), (2, 3), (4, 0)], [(1, 2), (3, 4), (0, 3)]


def rank_one_zak(G, P):
    """A Zak grid whose Z-vectors are multiples of one y in the span of both cell
    sets of RANK_ONE_CELLS, so each set fits it exactly: rank Y = 1."""
    L = G.L
    A = G.entries[:, [G.column_index(q, m) for q, m in sum(RANK_ONE_CELLS, [])]]
    x = np.linalg.svd(np.hstack([A[:, :3], -A[:, 3:]]))[2][-1].conj()
    np.testing.assert_allclose(A[:, :3] @ x[:3], A[:, 3:] @ x[3:], atol=1e-14)
    amplitude = np.random.default_rng(94).standard_normal(P * P)
    u, v = np.divmod(np.arange(P * P), P)
    p = np.arange(L)[:, None]
    Z = np.zeros((L * P, P), dtype=complex)  # the inverse of the Z-vector gather
    Z[u[None, :] + p * P, v[None, :]] = np.outer(A[:, :3] @ x[:3], amplitude) * np.exp(
        2j * np.pi * ((v[None, :] * p) % (L * P)) / (L * P)
    )
    return Z


def test_rank_one_data_is_not_certified():
    # full-spark L = 5 window (spark 6): both three-cell sets give the same Zak
    # grid, and a three-cell fit at rank 1 needs level 2*3 - 1 + 1 = 6 > L
    L, P = 5, 8
    G = build_gabor_matrix(generate_window(L, seed=0))
    R = CellSupport(T=1.0, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    with pytest.raises(NoConvergence, match="level s = 6") as exc:
        recover_unknown_support(rank_one_zak(G, P), G, R, k_max=3, tol=1e-10)
    est = exc.value.estimate
    assert est.converged and est.rank == 1
    assert set(est.gamma_hat) in tuple(map(set, RANK_ONE_CELLS))


def test_decoder_refuses_L_above_the_search_limit(monkeypatch):
    # level tables use int64 bitmasks over L^2 columns: L = 8 is refused before decoding
    L, P = 8, 2
    G = build_gabor_matrix(np.exp(2j * np.pi * np.arange(L) / 7))
    R = CellSupport(T=1.0, L=L, P=P, cells=[(0, 0), (3, 5)])
    decodes = []
    monkeypatch.setattr(sparse, "mmv_omp", lambda *args, **kw: decodes.append(args))
    with pytest.raises(SearchBudgetExceeded):
        recover_unknown_support(np.ones((L * P, P)), G, R, k_max=1, tol=1e-10)
    assert decodes == []


def test_the_certificate_level_is_read_once_per_matrix(monkeypatch):
    L, P = 5, 4
    window = generate_window(L, seed=235)
    G = build_gabor_matrix(window)
    S = CellSupport(T=0.5, L=L, P=P, cells=[(1, 3), (4, 0)])
    _, Z, _ = _measurements(S, window, seed=82)
    R = CellSupport(T=0.5, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    reads = count_level_reads(monkeypatch)
    for _ in range(3):
        report = recover_unknown_support(Z, G, R, k_max=2, tol=1e-10)
    assert report.support_estimate.rank == 2
    assert reads == []  # s = 2*2 - 2 + 1, settled by the draw's clean level L


def test_norm_helpers_keep_the_bits_of_numpy_norm():
    # mmv_omp's dictionary, projection and score columns, and its Y, b and residual norms
    rng = np.random.default_rng(42)
    for shape in ((5, 25), (5, 1), (7, 3), (1, 4)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for a in (x, x.conj().T, x[:, ::2], 1e-200 * x):
            assert sparse._column_norms(a).tobytes() == np.linalg.norm(a, axis=0).tobytes()
            for v in (a, a[:, 0]):
                assert sparse._norm(v).tobytes() == np.linalg.norm(v).tobytes()
