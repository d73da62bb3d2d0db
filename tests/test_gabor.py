import numpy as np
import pytest

from opsample.errors import (
    GenerationFailed,
    InvalidParameters,
    NoPrimeInRange,
    SearchBudgetExceeded,
)
from opsample.gabor import (
    GaborMatrix,
    Window,
    build_gabor_matrix,
    generate_window,
    minors_nonzero,
    modulate,
    spark,
    translate,
)

from oracles import gabor_matrix_oracle, spark_oracle


def test_translate_wraps():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(translate(x, 1), [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(translate(x, 0), x)
    # period L: shifting by L is the identity
    np.testing.assert_array_equal(translate(x, 3), x)


def test_modulate_roots_of_unity():
    x = np.ones(4)
    m1 = modulate(x, 1)
    np.testing.assert_allclose(m1, [1, 1j, -1, -1j], atol=1e-15)
    # modulating by L is the identity
    np.testing.assert_allclose(modulate(x, 4), x, atol=1e-14)


def test_build_matrix_L1():
    G = build_gabor_matrix(np.array([1.0 + 0j]))
    np.testing.assert_array_equal(G.entries, [[1.0 + 0j]])


def test_build_matrix_L2_worked_example():
    G = build_gabor_matrix(np.array([1.0, 0.0], dtype=complex))
    block0 = G.entries[:, :2]
    block1 = G.entries[:, 2:]
    np.testing.assert_allclose(block0, [[1, 1], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(block1, [[0, 0], [1, -1]], atol=1e-15)


def test_matrix_matches_oracle_and_phase_relation():
    rng = np.random.default_rng(7)
    L = 3
    c = rng.normal(size=L) + 1j * rng.normal(size=L)
    G = build_gabor_matrix(c)
    np.testing.assert_allclose(G.entries, gabor_matrix_oracle(c), atol=1e-13)
    # column (q,m) = exp(+2*pi*i*q*m/L) * translate(modulate(c, m), q)
    for q in range(L):
        for m in range(L):
            expected = np.exp(2j * np.pi * q * m / L) * translate(modulate(c, m), q)
            np.testing.assert_allclose(G.column(q, m), expected, atol=1e-13)


def test_column_norms_and_tight_frame():
    rng = np.random.default_rng(7)
    for L in (2, 3, 5):
        c = (rng.uniform(0.5, 1, L)) * np.exp(2j * np.pi * rng.uniform(size=L))
        G = build_gabor_matrix(c)
        norms = np.linalg.norm(G.entries, axis=0)
        np.testing.assert_allclose(norms, np.linalg.norm(c), rtol=1e-12)
        gram = G.entries @ G.entries.conj().T
        np.testing.assert_allclose(
            gram, L * np.linalg.norm(c) ** 2 * np.eye(L), atol=1e-10
        )


def test_column_index_bijection():
    G = build_gabor_matrix(np.array([1.0, 2.0, 3.0], dtype=complex))
    seen = {G.column_index(q, m) for q in range(3) for m in range(3)}
    assert seen == set(range(9))
    with pytest.raises(InvalidParameters):
        G.column_index(3, 0)


def test_spark_parallel_columns():
    # c = (1,0,0): all columns are multiples of standard basis vectors
    G = build_gabor_matrix(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert spark(G) == 2


def test_spark_generic_L3_full():
    w = generate_window(3, seed=11)
    G = build_gabor_matrix(w)
    assert spark(G) == 4
    assert spark_oracle(G.entries) == 4


def test_spark_first_two_indices_L5():
    w = generate_window(5, target="spark_k", k=2, seed=3)
    assert w.weights[2] == 0 and w.weights[3] == 0 and w.weights[4] == 0
    G = build_gabor_matrix(w)
    assert spark(G) == 3
    assert spark_oracle(G.entries) == 3


def test_spark_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        G = build_gabor_matrix(c)
        assert spark(G) == spark_oracle(G.entries)


def test_spark_search_limit():
    G = GaborMatrix(L=8, entries=np.ones((8, 64), dtype=complex))
    with pytest.raises(SearchBudgetExceeded):
        spark(G)


def test_generate_window_records_metadata():
    w = generate_window(5, seed=1)
    assert isinstance(w, Window)
    assert w.seed == 1
    assert w.draws >= 1
    assert w.support_size() == 5
    assert np.all(np.abs(w.weights) >= 0.5) and np.all(np.abs(w.weights) <= 1.0)
    assert spark(build_gabor_matrix(w)) == 6


def test_window_validation():
    for L, weights in ((0, []), (-1, []), (2, [1.0]), (2, [1.0, np.nan]), (2, [np.inf, 0])):
        with pytest.raises(InvalidParameters):
            Window(L=L, weights=np.asarray(weights, dtype=complex))


def test_generate_window_spark_k_requires_prime():
    with pytest.raises(NoPrimeInRange):
        generate_window(4, target="spark_k", k=2, seed=0)


def test_generate_window_spark_k_equals_L_is_full():
    w = generate_window(3, target="spark_k", k=3, seed=5)
    assert spark(build_gabor_matrix(w)) == 4


def test_generate_window_bad_target():
    with pytest.raises(InvalidParameters):
        generate_window(3, target="nonsense")


def test_generate_window_budget_failure():
    with pytest.raises(GenerationFailed):
        generate_window(3, seed=0, max_draws=0)


def test_minors_nonzero_generic_L3():
    w = generate_window(3, seed=2)
    assert minors_nonzero(build_gabor_matrix(w)) is True


def test_minors_nonzero_zero_entry():
    G = build_gabor_matrix(np.array([1.0, 0.0, 1.0], dtype=complex))
    assert minors_nonzero(G) is False


def test_minors_vanish_for_nonprime_L4():
    # L = 4 is the smallest non-prime period; some minor always vanishes
    rng = np.random.default_rng(123)
    for _ in range(3):
        c = rng.uniform(0.5, 1, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
        assert minors_nonzero(build_gabor_matrix(c)) is False


def test_minors_limit():
    G = GaborMatrix(L=6, entries=np.ones((6, 36), dtype=complex))
    with pytest.raises(SearchBudgetExceeded):
        minors_nonzero(G)


def test_full_spark_density():
    # engineering proxy for density: 20 seeded draws at L=3 all full spark
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        if spark(build_gabor_matrix(c)) == 4:
            hits += 1
    assert hits >= 19
