import dataclasses
import functools
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from opsample import gabor
from opsample.errors import (
    GenerationFailed,
    InvalidParameters,
    NoPrimeInRange,
    SearchBudgetExceeded,
)
from opsample.gabor import (
    _orbit_table,
    Window,
    build_gabor_matrix,
    generate_window,
    spark,
)

from oracles import (
    column_dets_oracle,
    gabor_matrix_oracle,
    orbit_count_oracle,
    orbit_oracle,
    spark_oracle,
)


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
    # column (q,m) = exp(+2*pi*i*q*m/L) * T^q M^m c, (M^m c)_p = exp(2*pi*i*p*m/L) c_p
    for q in range(L):
        for m in range(L):
            modulated = c * np.exp(2j * np.pi * m * np.arange(L) / L)
            expected = np.exp(2j * np.pi * q * m / L) * np.roll(modulated, q)
            np.testing.assert_allclose(G.entries[:, G.column_index(q, m)], expected, atol=1e-13)


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


def _block_by_block(c):
    """Reference build: one np.diag(T^q c) @ W product per block, side by side."""
    c = np.asarray(c, dtype=complex)
    L = len(c)
    W = np.exp(2j * np.pi * np.outer(np.arange(L), np.arange(L)) / L)
    return np.hstack([np.diag(np.roll(c, q)) @ W for q in range(L)])


def test_build_is_bit_identical_to_the_block_by_block_product():
    # an elementwise c * W build moves last bits, and with them --matrix-out and eta files
    rng = np.random.default_rng(11)
    for L in range(1, 12):
        for scale in (2.0**-1060, 1e-300, 1e-6, 1.0, 1e6, 1e300):
            c = scale * (rng.normal(size=L) + 1j * rng.normal(size=L))
            c[rng.random(L) < 0.3] = 0  # zero weights
            for weights in (c, c.real, Window(L=L, weights=c)):
                want = _block_by_block(getattr(weights, "weights", weights))
                got = build_gabor_matrix(weights).entries
                assert got.tobytes() == want.tobytes(), (L, scale)
    for weights in ([1, 0, 2], [True, False]):  # integer and boolean vectors
        assert build_gabor_matrix(weights).entries.tobytes() == _block_by_block(weights).tobytes()


def test_building_g_of_c_peaks_near_twice_its_size():
    # D and G(c) are the only L^3 arrays: the product is written straight into G(c)'s layout
    window = Window(L=64, weights=np.exp(2j * np.pi * np.arange(64) / 61))
    tracemalloc.start()
    try:
        entries = window.entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * entries.nbytes


@pytest.mark.parametrize(
    "bad", [3.0, None, [], ["a", "b"], np.ones((2, 2)), np.ones((1, 3)), [[1, 2]]],
    ids=["scalar", "none", "empty", "strings", "square", "row", "nested"],
)
def test_build_refuses_what_is_not_a_weight_vector(bad):
    with pytest.raises(InvalidParameters, match="non-empty 1-D numeric vector"):
        build_gabor_matrix(bad)


@pytest.mark.filterwarnings("error")
def test_build_refuses_non_finite_weights_and_an_overflowing_matrix():
    for c in ([1.0, np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0, -np.inf)]):
        with pytest.raises(InvalidParameters, match="weights must be finite"):
            build_gabor_matrix(c)
    near_overflow = Window(3, np.full(3, 1.7e308 + 1.7e308j))  # finite weights are a Window
    with pytest.raises(InvalidParameters, match="overflows"):  # and no RuntimeWarning
        build_gabor_matrix(near_overflow)
    with pytest.raises(InvalidParameters, match="overflows"):  # refused again, never cached
        near_overflow.entries


def test_window_keeps_a_read_only_copy_of_its_weights():
    c = np.array([1.0, 2.0, 3.0], dtype=complex)
    w = Window(L=3, weights=c)
    assert w.weights is not c and not w.weights.flags.writeable
    c[0] = np.nan  # an edit of the caller's array cannot bypass the finiteness check
    assert np.isfinite(w.weights).all()
    with pytest.raises(ValueError, match="read-only"):
        w.weights[0] = np.nan


def test_window_is_frozen_and_refuses_non_numeric_weights():
    w = Window(L=3, weights=[1.0, 2.0, 3.0])
    for name, value in (("weights", np.full(3, np.nan)), ("L", 9), ("seed", 1), ("draws", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(w, name, value)
    assert w.L == 3 and w.seed is None and w.draws is None and w.weights[0] == 1.0
    for bad in (["a", "b"], [None, None], np.array([1, "x"], dtype=object)):
        with pytest.raises(InvalidParameters, match="non-empty 1-D numeric vector"):
            Window(L=2, weights=bad)


def count_entries_builds(monkeypatch):
    """The list of Windows whose G(c) (Window.entries) is built from here on."""
    builds = []
    build = Window.entries.func
    entries = functools.cached_property(lambda w: builds.append(w) or build(w))
    entries.__set_name__(Window, "entries")
    monkeypatch.setattr(Window, "entries", entries)
    return builds


def test_a_drawn_window_keeps_its_gabor_matrix_and_levels(monkeypatch):
    for seed in range(3):
        w = generate_window(5, seed=seed)
        assert build_gabor_matrix(w) is w
        builds = count_entries_builds(monkeypatch)
        reads = count_level_reads(monkeypatch)
        assert spark(w) == 6
        assert reads == [] and builds == []  # G(c) and level 5, which settles 2, are the draw's
        monkeypatch.undo()


def count_level_reads(monkeypatch):
    """The list of levels k that gabor._has_dependent reads from here on."""
    reads = []
    read = gabor._has_dependent
    monkeypatch.setattr(gabor, "_has_dependent", lambda A, k: reads.append(k) or read(A, k))
    return reads


def test_a_gabor_matrix_reads_each_level_once(monkeypatch):
    reads = count_level_reads(monkeypatch)
    full = build_gabor_matrix(generate_window(4, seed=1))
    assert reads == [4]  # the draw's acceptance, on the G(c) it built
    reads.clear()
    assert spark(full) == spark(full) == 5
    assert reads == []  # the draw's clean level L settles level 2 for both calls
    reads.clear()
    ones = build_gabor_matrix(np.ones(4))  # spark 2: level 2 is dependent
    assert [spark(ones) for _ in range(2)] == [2, 2] and reads == [2]


def test_spark_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        G = build_gabor_matrix(c)
        assert spark(G) == spark_oracle(G.entries)


def test_spark_search_limit():
    G = build_gabor_matrix(np.ones(8))
    with pytest.raises(SearchBudgetExceeded):
        spark(G)


def test_generate_window_refuses_the_search_limit_before_building(monkeypatch):
    builds = count_entries_builds(monkeypatch)
    for L, target, k in ((8, "full_spark", None), (11, "spark_k", 2)):
        with pytest.raises(SearchBudgetExceeded):
            generate_window(L, target=target, k=k, seed=0)
    assert builds == []


def test_generate_window_builds_one_gabor_matrix_per_draw(monkeypatch):
    # accept() reads the G(c) of the Window it is given, and the last one is returned
    builds = count_entries_builds(monkeypatch)
    for L, target, k in ((5, "full_spark", None), (7, "spark_k", 2), (3, "spark_k", 3)):
        builds.clear()
        w = generate_window(L, target=target, k=k, seed=4)
        assert len(builds) == w.draws and builds[-1] is w


def test_gabor_matrix_is_read_only_and_built_from_its_weights():
    rng = np.random.default_rng(9)
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    G = build_gabor_matrix(c)
    assert G.L == 3
    np.testing.assert_allclose(G.entries, gabor_matrix_oracle(c), atol=1e-13)
    entries = G.entries.tobytes()
    c[0] = 0  # the matrix holds its own copy of the weights
    assert G.weights[0] != 0 and G.entries.tobytes() == entries
    for array in (G.entries, G.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1e-6
    for name in ("entries", "L", "weights"):
        with pytest.raises(AttributeError):  # frozen: no attribute can be rebound
            setattr(G, name, np.ones((3, 9)))
    with pytest.raises(TypeError):  # no Window is built from entries
        Window(L=3, weights=c, entries=np.ones((3, 9)))


def test_gabor_matrix_refuses_L_above_MAX_L_before_allocating(monkeypatch):
    allocations = []
    monkeypatch.setattr(gabor.np, "zeros", lambda *a, **kw: allocations.append(a))
    with pytest.raises(InvalidParameters, match=f"L must be an integer in \\[1, {gabor.MAX_L}\\]"):
        build_gabor_matrix(np.ones(gabor.MAX_L + 1))
    assert allocations == []


def test_spark_builds_no_gabor_matrix(monkeypatch):
    # a Window's G(c) is true by construction: spark reads it as given
    G = build_gabor_matrix(generate_window(5, seed=0))
    builds = count_entries_builds(monkeypatch)
    monkeypatch.setattr(Window, "__post_init__", lambda self: builds.append(self))
    assert spark(G) == 6
    assert builds == []


def test_generate_window_records_metadata():
    w = generate_window(5, seed=1)
    assert isinstance(w, Window)
    assert w.seed == 1
    assert w.draws >= 1
    assert w.support_size() == 5
    assert np.all(np.abs(w.weights) >= 0.5) and np.all(np.abs(w.weights) <= 1.0)
    assert spark(build_gabor_matrix(w)) == 6


def test_window_validation(monkeypatch):
    for L, weights in ((0, []), (-1, []), (2, [1.0]), (2, [1.0, np.nan]), (2, [np.inf, 0]),
                       (3.0, [1, 1, 1]), (True, [1]), (np.float64(2), [1, 1]),
                       (gabor.MAX_L + 1, np.ones(gabor.MAX_L + 1))):  # G(c) could not be built
        with pytest.raises(InvalidParameters):
            Window(L=L, weights=np.asarray(weights, dtype=complex))
    assert Window(L=np.int8(2), weights=[1, 1]).L == 2
    # Python and numpy integers are accepted, and give the same draw
    want = generate_window(3, seed=1)
    got = generate_window(np.int64(3), seed=np.uint32(1))
    assert got.weights.tobytes() == want.weights.tobytes() and got.draws == want.draws
    # a float, bool or negative argument is refused before any draw reaches G(c)
    builds = count_entries_builds(monkeypatch)
    bad = [
        dict(L=5.0), dict(L=True), dict(L="5"),
        dict(L=5, target="spark_k", k=2.0), dict(L=5, target="spark_k", k=True),
        dict(L=5, seed=-1), dict(L=5, seed=1.5), dict(L=5, seed=True), dict(L=5, seed="1"),
    ]
    for kwargs in bad:
        with pytest.raises(InvalidParameters):
            generate_window(**kwargs)
    with pytest.raises(InvalidParameters):  # the bunched plan draws through the same gate
        gabor._draw_window(3, 2, -1, lambda c: True, "")
    assert builds == []


def test_generate_window_spark_k_requires_prime():
    with pytest.raises(NoPrimeInRange):
        generate_window(4, target="spark_k", k=2, seed=0)


def test_generate_window_spark_k_equals_L_is_full():
    w = generate_window(3, target="spark_k", k=3, seed=5)
    assert spark(build_gabor_matrix(w)) == 4


def test_generate_window_bad_target():
    with pytest.raises(InvalidParameters):
        generate_window(3, target="nonsense")
    with pytest.raises(InvalidParameters):  # k belongs to the spark_k target only
        generate_window(3, k=7)


def test_generate_window_budget_failure(monkeypatch):
    # the budget is the constant MAX_DRAWS: each target spends exactly that many draws,
    # one G(c) build each
    builds = count_entries_builds(monkeypatch)
    monkeypatch.setattr(gabor, "DEFAULT_TOL", 2.0)  # every block is dependent
    for L, target, k in ((3, "full_spark", None), (5, "spark_k", 2)):
        builds.clear()
        with pytest.raises(GenerationFailed, match=f"in {gabor.MAX_DRAWS} draws"):
            generate_window(L, target=target, k=k, seed=0)
        assert len(builds) == gabor.MAX_DRAWS


def test_full_spark_density():
    # engineering proxy for density: 20 seeded draws at L=3 all full spark
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        if spark(build_gabor_matrix(c)) == 4:
            hits += 1
    assert hits >= 19


def _structured_windows(L):
    """Zeros, roots of unity, {-1, 0, 1}, chirps, ones and a delta at period L."""
    rng = np.random.default_rng(L)
    p = np.arange(L)
    yield np.ones(L)
    yield np.eye(L)[0]
    for j in range(1, L):
        yield np.exp(2j * np.pi * j * p / L)  # roots of unity
        yield np.exp(1j * np.pi * j * p * (p + L % 2) / L)  # chirp
    for signs in ((1, -1, 0, 1), (1, 0, -1, 0), (0, 1, 1, -1), (-1, -1, 1, 1)):
        yield np.array(signs[:L], dtype=float)
    for k in range(1, L + 1):  # zeros: generic weights on k random indices
        c = np.zeros(L, dtype=complex)
        c[rng.choice(L, k, replace=False)] = rng.normal(size=k) + 1j * rng.normal(size=k)
        yield c


@pytest.mark.parametrize("L", [2, 3, 4])
def test_spark_matches_oracle_on_structured_windows(L):
    seen = set()
    for c in _structured_windows(L):
        G = build_gabor_matrix(np.asarray(c, dtype=complex))
        value = spark(G)
        assert value == spark_oracle(G.entries), c
        seen.add(value)
    assert seen == set(range(2, L + 2))


@pytest.mark.parametrize("L", [3, 4])
def test_spark_matches_oracle_near_tolerance(L):
    # shrinking the last weight toward zero flips the level-L decision near tol,
    # where an unsound determinant screen would drop a dependent subset
    rng = np.random.default_rng(40 + L)
    seen = set()
    for _ in range(2):
        base = rng.uniform(0.5, 1, L) * np.exp(2j * np.pi * rng.uniform(size=L))
        for delta in (1e-7, 3e-9, 1e-9, 3e-10, 1e-12):
            c = base.copy()
            c[-1] *= delta
            G = build_gabor_matrix(c)
            value = spark(G)
            assert value == spark_oracle(G.entries), delta
            seen.add(value)
    assert L + 1 in seen and len(seen) > 1


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_orbit_table_holds_one_subset_per_translation_orbit(L):
    for k in range(1, L + 1):
        table = _orbit_table(L, k)
        assert table.dtype == np.uint8 and table.shape[1] == k
        assert not table.flags.writeable
        rows = {tuple(int(col) for col in row) for row in table}
        assert len(rows) == len(table) and all(0 in row for row in rows)
        orbits = orbit_oracle(L, k)
        assert [len(orbit & rows) for orbit in orbits] == [1] * len(orbits)
        assert len(table) == len(orbits)


@pytest.mark.parametrize("L, k", [(L, k) for L in range(1, 7) for k in range(1, L + 1)]
                         + [(7, k) for k in range(1, 7)] + [(11, 4)])
def test_orbit_table_rows_are_the_least_translates_one_per_orbit(L, k):
    # rows are distinct, ascending, hold column 0, come in lexicographic order and are each
    # <= every translate taking a member to column 0; Burnside counts the orbits
    table = _orbit_table(L, k).astype(int)
    assert len(table) == orbit_count_oracle(L, k)
    assert np.all(table[:, 0] == 0) and np.all(np.diff(table, axis=1) > 0)

    def lex_less(a, b):  # a < b row by row, lexicographically
        d = b - a
        first = np.argmax(d != 0, axis=1)
        return d[np.arange(len(d)), first] > 0

    assert np.all(lex_less(table[:-1], table[1:]))  # sorted, so distinct
    q, m = np.divmod(table, L)
    for t in range(k):  # the translate (q, m) -> (q - q_t, m - m_t) moves member t to 0
        moved = np.sort((q - q[:, t : t + 1]) % L * L + (m - m[:, t : t + 1]) % L, axis=1)
        assert not np.any(lex_less(moved, table)), t


def test_spark_of_the_all_ones_window_matches_oracle():
    G = build_gabor_matrix(np.ones(3))
    assert spark(G) == spark_oracle(G.entries) == 2


def _spark_by_levels(G):
    """Reference: the level-by-level scan, levels 1, 2, ..., L in turn."""
    for k in range(1, G.L + 1):
        if gabor._has_dependent(G.entries, k):
            return k
    return G.L + 1


def _windows_of_every_spark(L):
    """Zero, spark_k draws for each k at prime L, structured and generic windows."""
    yield np.zeros(L)
    if gabor.is_prime(L):
        for k in range(1, L + 1):
            yield generate_window(L, target="spark_k", k=k, seed=k).weights
    yield from (c for c in _structured_windows(L) if len(c) == L)  # sign rows stop at 4
    for seed in range(3):
        yield generate_window(L, seed=seed).weights


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_spark_by_levels_matches_the_level_scan(L):
    # level L decides full spark alone, the rest is bisected: same answer as the scan
    seen = set()
    for c in _windows_of_every_spark(L):
        G = build_gabor_matrix(np.asarray(c, dtype=complex))
        value = spark(G)
        assert value == _spark_by_levels(G), c
        if L <= 4:
            assert value == spark_oracle(G.entries), c
        seen.add(value)
        for scale in (2.0**-1060, 1e-300, 1e300):
            scaled = build_gabor_matrix(scale * np.asarray(c, dtype=complex))
            assert spark(scaled) == _spark_by_levels(scaled), (c, scale)
            if scale != 2.0**-1060:  # subnormal weights keep only a few bits
                assert spark(scaled) == value, (c, scale)
    assert seen == set(range(1, L + 2))


def test_spark_at_the_ends_of_the_float_range():
    # dividing by the largest |entry| overflowed the screen (NaN dets were dropped) and
    # the unscaled SVD overflowed: these gave 4, 2, 1 and 2
    for c, want in (
        ((1e-320, 2e-320, 0), 3),
        ((1e308, 1e308, -1e308), 4),
        ((1.7e308, 1.7e308, -1.7e308), 4),
        ((1e308, -1e308, 0, 1e308), 4),
    ):
        unit = np.array(c) / max(np.abs(c))
        assert spark_oracle(build_gabor_matrix(unit.astype(complex)).entries) == want
        assert spark(build_gabor_matrix(np.array(c, dtype=complex))) == want, c
    w = generate_window(5, seed=3).weights
    for scale in (2.0**-1060, 1e-300, 1.0, 1e300):
        assert spark(build_gabor_matrix(scale * w)) == 6, scale


def _reference_draw(L, target, k, seed):
    """generate_window with its acceptance replaced by the level scan."""
    support = L if target == "full_spark" else k

    def accept(c):
        return _spark_by_levels(build_gabor_matrix(c)) == support + 1

    return gabor._draw_window(L, support, seed, accept, "reference draw failed")


@pytest.mark.parametrize(
    "L, target, ks",
    [(2, "full_spark", [None]), (3, "full_spark", [None]), (4, "full_spark", [None]),
     (5, "full_spark", [None]), (5, "spark_k", [1, 2, 3, 4, 5]), (7, "spark_k", [1, 2, 3])],
)
def test_generate_window_matches_the_level_scan_acceptance(L, target, ks):
    for k in ks:
        for seed in range(50):
            got = generate_window(L, target=target, k=k, seed=seed)
            want = _reference_draw(L, target, k, seed)
            assert got.weights.tobytes() == want.weights.tobytes(), (k, seed)
            assert got.draws == want.draws, (k, seed)


def test_spark_by_levels_at_L6():
    w = generate_window(6, seed=0)
    assert spark(build_gabor_matrix(w)) == 7
    c = np.zeros(6, dtype=complex)
    c[:3] = w.weights[:3]
    G = build_gabor_matrix(c)
    assert spark(G) == _spark_by_levels(G)


def test_spark_decisions_read_only_the_levels_they_name(monkeypatch):
    requested = []
    table = gabor._orbit_table

    def recording(L, k):
        requested.append((L, k))
        return table(L, k)

    monkeypatch.setattr(gabor, "_orbit_table", recording)
    bunched = build_gabor_matrix(generate_window(7, target="spark_k", k=2, seed=0))
    assert set(requested) == {(7, 2)}  # level k alone: never (7, 3), never the (7, 7) table
    requested.clear()
    assert spark(bunched) == 3  # its zero weights make level 7 dependent: bisected at once
    assert requested == []  # to level 2 alone, which the draw read
    requested.clear()
    assert spark(build_gabor_matrix(generate_window(5, seed=0))) == 6
    assert set(requested) == {(5, 5)}  # the draw's level L, which settles level 2
    # a dependent level 2 is spark 2: the all-ones window never builds the (7, 7) table
    requested.clear()
    assert spark(build_gabor_matrix(np.ones(7))) == 2
    assert requested and max(k for _, k in requested) <= 2
    # weights on 4 consecutive indices make level 5 dependent: levels 5 and 6 stay unread
    four = build_gabor_matrix(generate_window(7, target="spark_k", k=4, seed=0))
    requested.clear()
    assert spark(four) == 5
    assert max((k for _, k in requested), default=0) <= 4  # the draw's level 4 settles 2, 3
    # the same run wrapped around index 0 caps the bisection the same way
    requested.clear()
    assert spark(build_gabor_matrix(np.roll(four.entries[:, 0], 5))) == 5
    assert max(k for _, k in requested) <= 4


def _implied_census(L):
    """The zero window, drawn full-spark and spark_k windows, then zero-heavy (k nonzeros),
    rounded and near-tolerance weights; at L = 7 only k <= 3 nonzeros, on a cyclic run."""
    top = 3 if L == 7 else L
    yield np.zeros(L)
    if L < 7:
        yield from (generate_window(L, seed=seed).weights for seed in range(3))
    if gabor.is_prime(L):
        for k in range(1, top + 1):
            yield generate_window(L, target="spark_k", k=k, seed=k).weights
    rng = np.random.default_rng(500 + L)
    generic = rng.uniform(0.5, 1, L) * np.exp(2j * np.pi * rng.uniform(size=L))
    for k in range(1, top + 1):
        at = np.arange(L - 1, L - 1 + k) % L if L == 7 else rng.choice(L, k, replace=False)
        c = np.zeros(L, dtype=complex)
        c[at] = generic[at]
        yield c
        yield np.round(2 * c) / 2  # rounded to halves: exact zeros and repeated values
        for delta in (1e-9, 3e-10):  # one weight shrunk to the tolerance
            near = c.copy()
            near[at[-1]] *= delta
            yield near


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
def test_the_levels_a_window_settles_match_fresh_reads(L):
    # after any one level is read first, every other level the memo answers, read or settled,
    # in rising or falling order, equals a fresh _has_dependent read, and spark equals the level
    # scan and spark on a fresh Window.  At L = 7 levels 1..4 are compared: the weights fit a
    # run of at most 3 indices, so level 4 is dependent and no spark reads above it.
    settled = 0
    for c in _implied_census(L):
        entries = Window(L, c).entries
        truth = {k: gabor._has_dependent(entries, k) for k in range(1, (4 if L == 7 else L) + 1)}
        want = spark(Window(L, c))
        assert want == next((k for k, dependent in truth.items() if dependent), L + 1), c
        reads = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gabor, "_has_dependent", lambda A, k: reads.append(k) or truth[k])
            for first, order in itertools.product(truth, (sorted, lambda ks: sorted(ks)[::-1])):
                w = Window(L, c)
                reads.clear()
                w._dependent_at(first)
                assert {k: w._dependent_at(k) for k in order(truth)} == truth, (c, first)
                settled += len(truth) - len(reads)
                assert spark(w) == want, (c, first)
    assert settled > 0


def test_threads_sharing_windows_read_their_levels_alike():
    L = 4
    census = list(_implied_census(L))
    truth = [{k: gabor._has_dependent(Window(L, c).entries, k) for k in range(1, L + 1)}
             for c in census]
    windows = [Window(L, c) for c in census]
    errors = []

    def work(offset):
        try:
            for n, w in enumerate(windows):
                levels = range(1, L + 1) if (n + offset) % 2 else range(L, 0, -1)
                if {k: w._dependent_at(k) for k in levels} != truth[n]:
                    errors.append(f"window {n} read other levels")
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


@pytest.mark.parametrize("L", [2, 3, 5])
def test_spark_capped_by_the_run_of_nonzero_weights_matches_oracle(L):
    # nonzeros in a cyclic run of r < L indices: only levels 1..r are bisected
    for k in range(1, L):
        for seed in range(2):
            c = generate_window(L, target="spark_k", k=k, seed=seed).weights
            for shift in (0, L - 1):  # the shifted run wraps around index 0
                G = build_gabor_matrix(np.roll(c, shift))
                assert gabor._run_length(G.entries[:, 0]) == k
                assert spark(G) == spark_oracle(G.entries) == k + 1, (k, seed, shift)
    c = np.zeros(L, dtype=complex)
    assert gabor._run_length(c) == 0 and spark(build_gabor_matrix(c)) == 1
    c[[0, L - 1]] = 1.0  # a run of 2 across the wrap
    assert gabor._run_length(c) == min(2, L)


@pytest.mark.parametrize("L", [2, 3, 5, 7])
def test_spark_k_draws_are_dependent_at_level_k_plus_1(L):
    # generate_window accepts a spark_k draw from level k alone (module docstring);
    # _draw_window accepting every draw returns the first draw it judges for each seed.
    # At L = 7, k = 6 would build the (7, 7) table (~13 s); k = L - 1 is covered below 7.
    for k in range(1, min(L, 6)):
        for seed in range(50):
            c = gabor._draw_window(L, k, seed, lambda c: True, "").weights
            assert gabor._has_dependent(build_gabor_matrix(c).entries, k + 1), (k, seed)


def _screen_survivors(entries, k):
    """Every block _has_dependent sends to the SVD (as bytes), with its early stop off."""
    survivors = set()
    svd = np.linalg.svd

    def recording(a, compute_uv):
        survivors.update(block.tobytes() for block in a)
        return svd(a, compute_uv=compute_uv)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording)
        patch.setattr(gabor, "_dependent", lambda s: np.zeros(s.shape[:-1], dtype=bool))
        assert not gabor._has_dependent(entries, k)
    return survivors


def _table_blocks(entries, k):
    """All blocks of the (L, k) table and the ones the rank rule calls dependent (as bytes)."""
    parts = np.ascontiguousarray(entries).view(float)  # the power-of-two scale it searches at
    unit = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(complex)
    blocks = np.transpose(unit[:, _orbit_table(math.isqrt(entries.shape[1]), k)], (1, 0, 2))
    dependent = gabor._dependent(np.linalg.svd(blocks, compute_uv=False))
    return {b.tobytes() for b in blocks}, {b.tobytes() for b in blocks[dependent]}


def _screen_windows(L):
    """Generic, all-ones, near-tolerance, zero, tiny, chirp and half-zero windows."""
    rng = np.random.default_rng(100 + L)
    p = np.arange(L)
    generic = rng.uniform(0.5, 1, L) * np.exp(2j * np.pi * rng.uniform(size=L))
    yield from (generic, np.ones(L))
    for delta in (1e-9, 3e-10):  # the last weight shrunk to the tolerance
        yield np.concatenate([generic[:-1], delta * generic[-1:]])
    yield from (np.zeros(L), 1e-300 * generic)
    yield np.exp(1j * np.pi * p * (p + L % 2) / L)  # chirp
    yield np.where(p < (L + 1) // 2, 0, generic)  # zero pivots on row subsets


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_det_screen_keeps_every_dependent_block(L):
    # the shared-pivot screen may pass a block the SVD clears, never drop one it flags;
    # every row subset is searched at its own size, and a zero column 0 skips the screen
    windows, every = _screen_windows(L), [range(L)]
    if L <= 5:
        every = [rows for r in range(1, L + 1) for rows in itertools.combinations(range(L), r)]
    else:  # the (6, 6) table has 54k blocks: generic, all-ones, near-tolerance and zero
        windows = itertools.islice(windows, 5)
    seen = {"dependent": 0, "cleared": 0, "no pivot": 0}
    for c in windows:
        G = build_gabor_matrix(np.asarray(c, dtype=complex))
        for rows in every:
            entries = G.entries[list(rows)]
            survivors = _screen_survivors(entries, len(rows))
            blocks, dependent = _table_blocks(entries, len(rows))
            assert dependent <= survivors <= blocks, (c, rows)
            if not np.any(entries[:, 0]):
                assert survivors == blocks, (c, rows)
                seen["no pivot"] += 1
            seen["dependent"] += bool(dependent)
            seen["cleared"] += len(survivors) < len(blocks)
    assert min(seen.values()) > 0, seen


def _random_blocks(rng, m, n=40, B=300):
    """A random complex m x n matrix and a (B, m) table of distinct columns, each row
    ascending as in an orbit table."""
    M = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    cols = np.array([np.sort(rng.choice(n, m, replace=False)) for _ in range(B)], dtype=np.uint8)
    return M, cols.reshape(B, m)


def _column_dets(M, rows):
    """The screen kernel's determinants on every row of an ascending column table."""
    return np.concatenate(list(gabor._column_dets(M, rows, gabor._drop_ranks(rows.T))))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_column_dets_match_numpy_det(m):
    # m = 6 is the (7, 7) table's Schur block, which no spark test builds
    rng = np.random.default_rng(500 + m)
    M, cols = _random_blocks(rng, m)
    blocks = M[:, cols].transpose(1, 0, 2)
    want = np.linalg.det(blocks)
    hadamard = np.prod(np.linalg.norm(blocks, axis=1), axis=1)  # >= |det|
    got = _column_dets(M, cols)
    assert got.shape == (len(cols),)
    assert np.all(np.abs(got - want) <= 1e-14 * hadamard), m
    # near-singular: each of the last 20 columns is a combination of columns 0..m-2 plus
    # a 1e-12 part, and every block holds columns 0..m-2 and one of them
    if m >= 2:
        M[:, -20:] = M[:, : m - 1] @ rng.normal(size=(m - 1, 20)) + 1e-12 * M[:, -20:]
        last = rng.integers(M.shape[1] - 20, M.shape[1], size=len(cols))
        cols = np.column_stack([np.tile(np.arange(m - 1), (len(cols), 1)), last]).astype(np.uint8)
        blocks = M[:, cols].transpose(1, 0, 2)
        hadamard = np.prod(np.linalg.norm(blocks, axis=1), axis=1)
        got = _column_dets(M, cols)
        assert np.all(np.abs(got - np.linalg.det(blocks)) <= 1e-14 * hadamard), m
        assert np.all(np.abs(got) <= 1e-10 * hadamard), m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_column_dets_of_zero_and_nan_columns(m):
    # a zero column gives an exact 0; a NaN entry gives NaN, which the screen keeps
    rng = np.random.default_rng(600 + m)
    M, cols = _random_blocks(rng, m, B=50)
    M[:, 0] = 0
    M[rng.integers(m), 1] = np.nan
    dets = _column_dets(M, cols)
    assert dets.tobytes() == column_dets_oracle(M, cols).tobytes(), m  # NaN bits too
    for b, row in enumerate(cols):
        if 1 in row:
            assert np.isnan(dets[b]), (m, row)
        elif 0 in row:
            assert dets[b] == 0, (m, row)
        else:
            assert np.isfinite(dets[b]) and dets[b] != 0, (m, row)
    assert {0, 1} <= set(cols.ravel().tolist())


def _screened(entries, k):
    """Every (Schur block, table rows, determinants) the level-k read of entries screens."""
    screens, kernel = [], gabor._column_dets

    def recording(M, rows, ranks):
        dets = list(kernel(M, rows, ranks))
        screens.append((M, rows, np.concatenate(dets)))
        yield from dets

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gabor, "_column_dets", recording)
        gabor._has_dependent(entries, k)
    return screens


def _per_row_kernel(M, rows, ranks):
    """The screen kernel with every determinant expanded on its own table row."""
    for start in range(0, len(rows), gabor.CHUNK):
        yield column_dets_oracle(M, rows[start : start + gabor.CHUNK])


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_screen_dets_are_bit_identical_to_the_per_row_expansion(L):
    # shared minors keep each expansion's row and term order, so every determinant
    # keeps its bits, and the module docstring's rounding bound stands
    draws = [generate_window(L, seed=seed).weights for seed in range(3)]
    for c in [*_screen_windows(L), *draws]:
        G = build_gabor_matrix(np.asarray(c, dtype=complex))
        screens = _screened(G.entries, L)
        assert len(screens) == bool(np.any(c)), c  # a zero column 0 skips the screen
        for M, rows, dets in screens:
            assert len(dets) == len(_orbit_table(L, L))
            assert dets.tobytes() == column_dets_oracle(M, rows).tobytes(), c
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gabor, "_column_dets", _per_row_kernel)
            want = spark(G)
        assert spark(G) == want, c


def _screen_rounding_constant(m):
    """C with |computed - exact| <= C * ||A||_F^k for |pivot * det B| (module docstring)."""
    k, n, u = m + 1, 13 * m + m * (m - 1) // 2, 2.0**-53
    gamma = n * u / (1 - n * u)
    return gamma * (1 + math.sqrt(m)) ** m * (m / k) ** (m / 2) * k**-0.5


def test_det_screen_rounding_stays_below_the_tolerance():
    # the screen's 2*tol*||A||_F^k threshold drops no dependent block while the
    # expansion's rounding bound is below tol*||A||_F^k; it is ~4e-12 at L = 7 and
    # first exceeds DEFAULT_TOL at L = 11, so a higher search limit must revisit it
    for L in range(1, gabor.SPARK_SEARCH_LIMIT + 1):
        assert _screen_rounding_constant(L - 1) < gabor.DEFAULT_TOL, L
    assert _screen_rounding_constant(6) == pytest.approx(4.14e-12, rel=1e-2)


def test_fourier_table_is_the_inline_formula_and_read_only():
    for L in range(1, 65):
        p = np.arange(L)
        W = gabor._fourier(L)
        assert W.tobytes() == np.exp(2j * np.pi * np.outer(p, p) / L).tobytes()
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 0
    assert gabor._fourier(11) is gabor._fourier(11)  # one table per L
