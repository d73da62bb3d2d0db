"""Finite Gabor system matrices and spark certification.

For a period-L weight vector c the (cyclic) time-frequency shifts are

    (T^q x)_p = x_{(p-q) mod L},      (M^m x)_p = w^{pm} x_p,   w = exp(2*pi*i/L),

and the full Gabor system matrix is the L x L^2 block matrix

    G(c) = [ D_0 W | D_1 W | ... | D_{L-1} W ],   D_q = diag(T^q c),  W_{p,m} = w^{pm}.

Column q*L + m equals M^m T^q c = w^{qm} * T^q M^m c; the pair (q, m) is the
(time-shift, frequency-shift) cell label shared with the support and
reconstruction modules.  The rows of G(c) are orthogonal with squared norm
L*||c||^2 (tight frame), and every column has norm ||c||.  G(c) is one batched
product matmul(D, W), D[q] = diag(T^q c): each block is the same product D_q @ W
as a block-by-block build, so the entries are bit-identical to it (an
elementwise c * W product is not).  W depends on L alone: one table per L (_fourier).

Spark is the size of the smallest dependent column subset: L+1 ("full spark")
for generic weights, k+1 for weights on their first k indices with L prime.
The exhaustive searches run over Heisenberg orbits (Lawrence-Pfander-Walnut,
JFAA 2005; Malikiosis, ACHA 2015): the unitary M^a T^b maps column (q, m) to a
unimodular multiple of column (q+b, m+a) and only permutes and phases rows, so
one column subset per translation orbit is checked: about C(L^2-1, k-1)/k of
the C(L^2, k).  It is the lexicographically least of the orbit's k sorted
translates that hold column 0 (each moves one member to column 0), (0, s1, ...).
So a translate taking any member to 0 takes every other one to a column >= s1,
and so does every prefix (0, s1, ..., s_j), with the same s1: _orbit_table grows
rows one larger column at a time under that test and prunes no representative.
This holds only for a true G(c), which a Window's entries are: built from its weights.
Every column-dependence decision in the package is one scale-free rule,
_dependent: s_min <= tol*s_1 on the block's singular values.
Square blocks are first screened by determinant: s_k <= tol*s_1 implies
|det A| = prod s_i <= tol*||A||_F^k for any matrix, so only
|det| <= 2*tol*(k*max_j ||a_j||^2)^(k/2) goes on to the SVD.  That is one
bound for the whole matrix (max over all its columns a_j), and it is at least
2*tol*||A||_F^k for every block, since a block's ||A||_F^2 is the sum of its
k squared column norms, each at most the max.  Every table row holds column 0
first, and the first elimination step, pivoting on the largest |entry| of
column 0, is taken once on the whole matrix: |det A| = |pivot * det B| for the
block's m x m Schur block B, m = k-1, and det B is a cofactor expansion
(_column_dets).  A level-r minor of B depends only on its r columns, so levels
r < m are computed once per matrix, on every r-subset of the columns in colex
order (a subset's index is its rank sum_i C(c_i, i+1)); each table row adds
only its top level, m products.  Every minor is expanded along the same row
with its terms in the same order as one expansion per table row, so each
determinant keeps its bits and the bound below stands.  The 2 is sound:
every multiplier has |l_i| <= 1, so ||b_j|| <= (1+sqrt(m))*||a_j||, and the
expansion's rounding error is at most gamma_n * per(|B|) <=
gamma_n * m^(m/2) * prod ||b_j||, with gamma_n = n*u/(1-n*u), u = 2^-53 and
n = 13m + m(m-1)/2 roundings on any one term (10 per Schur entry, 3 per
complex product, 1 per sum).  With
|pivot| <= ||a_0|| and AM-GM over the k column norms, the error on
|pivot * det B| is at most
gamma_n * (1+sqrt(m))^m * (m/k)^(m/2) * k^(-1/2) * ||A||_F^k, ~4e-12*||A||_F^k
at m = 6: far below tol*||A||_F^k.  A zero column 0 sends every block to the
SVD.

Dependence is monotone in the level k (subset size), so a spark decision reads
only the levels it needs, each once per window: a Window remembers every level it
has read (_dependent_at, the one reader of spark, generate_window and
sparse.recover_unknown_support), its draw's level too, and answers each level they
settle unread: a clean level clears every lower one, a dependent level every
higher one.  For an L x k block A, k < L, A^H A is a principal submatrix of B^H B,
B = [A a], so Cauchy interlacing gives s_1(B) >= s_1(A) and s_{k+1}(B) <= s_k(A):
a k-subset dependent under _dependent makes every superset of up to L columns
dependent.  Level 2 (a small table) is read first: dependent, it is spark 2, since
level 1 is dependent only for c = 0.  Full spark is level L clean; other sparks
are bisected.  Nonzero weights inside a cyclic run of r < L indices s..s+r-1 put
the L columns (q, m) of one q in rows q+s..q+s+r-1 mod L, exact zeros elsewhere,
so any r+1 of them are dependent under _dependent: the spark is at most r+1, and
only levels 1..r need reading.  For weights on the first k indices, r = k: spark
k+1 is level k clean, k+1 unread.
"""

import bisect
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GenerationFailed,
    InvalidParameters,
    NoPrimeInRange,
    SearchBudgetExceeded,
)

__all__ = [
    "Window",
    "build_gabor_matrix",
    "spark",
    "generate_window",
]

#: largest period of a Window: its G(c) holds L^3 = 4096^2 entries at L = 256,
#: as many as the largest grid a file may declare (support.MAX_LP)
MAX_L = 256

#: tol of the package's one rank rule, _dependent, which reads it at call time
DEFAULT_TOL = 1e-9

#: largest L of an exhaustive spark search: the (7, 7) orbit table holds 1,753,080 rows
SPARK_SEARCH_LIMIT = 7

#: rows per orbit-table growth pass, subsets per det-screen level pass, table rows
#: per batched SVD call: the (5, 5) table's 2130 rows and 2300 shared minors fit one
#: chunk, and the screen's (CHUNK,) complex vectors stay at 64 KiB (2048 to
#: 16384 ran alike at L = 5 and 6)
CHUNK = 4096

#: seeded draws a window generator spends before it raises GenerationFailed
MAX_DRAWS = 200


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _integer(x, name, lo=None, hi=None):
    """x as an int if it is a Python or numpy integer, never a bool, in [lo, hi] (None: open)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not (
            (lo is None or lo <= x) and (hi is None or x <= hi)):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise InvalidParameters(f"{name} must be an integer{bounds}, got {x!r}")
    return int(x)


def _real(x, name, positive=False):
    """x if it is a finite real: a numbers.Real (so never complex) that is not a bool, with
    |x| at most the largest float; with positive, also x > 0 (-0.0 is not)."""
    real = isinstance(x, (float, int)) or isinstance(x, numbers.Real)  # the ABC check is slow
    if isinstance(x, bool) or not real or not (
            (0 < x if positive else -sys.float_info.max <= x) and x <= sys.float_info.max):
        kind = "finite and positive" if positive else "finite"
        raise InvalidParameters(f"{name} must be {kind} (a real, not a bool), got {x!r}")
    return x


def _multiple(x, step, name, error=InvalidParameters):
    """x/step as an int for a real x (_real) within 1e-9 of a multiple of step (a float > 0),
    below 2^53 in magnitude so index arithmetic on it stays in int64; else raises error."""
    units = float(_real(x, name)) / float(step)
    if not (abs(units) < 2**53 and abs(units - round(units)) <= 1e-9):
        raise error(f"{name} must be a multiple of {step!r}, under 2^53 of them, got {x!r}")
    return round(units)


def _check_seed(seed):
    """An RNG seed as None or an int, refused unless None or a nonnegative integer (_integer)."""
    return None if seed is None else _integer(seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class Window:
    """Period-L identifier weights c and their G(c), a frozen value.

    L: period, at most MAX_L so that G(c) can be built; weights: a read-only complex
    copy of the finite length-L numeric vector given; seed: RNG seed used to draw it
    (None for hand-built windows); draws: how many draws the generator needed to meet
    its spark target; L, seed and draws are kept as the ints _integer returns.  entries,
    a read-only G(c), is built from the weights on first use; each spark level read on it
    is remembered and settles others (_dependent_at).
    _plans keeps one scaled left inverse per (Gamma, Omega) asked of it (reconstruct._solve):
    at most 325, ~0.3 MB, for the unknown-support decodes at L = 5 (every 1- and 2-cell set).
    """

    L: int
    weights: np.ndarray
    seed: int | None = None
    draws: int | None = None
    _levels: dict = field(default_factory=dict, init=False, repr=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.weights)
        if c.ndim != 1 or c.size == 0 or c.dtype.kind not in "biufc":
            raise InvalidParameters(f"need a non-empty 1-D numeric vector, got {c.dtype} {c.shape}")
        if c.shape != (L := _integer(self.L, "L", 1, MAX_L),):
            raise InvalidParameters(f"need ({L},) weights, got {c.shape}")
        draws = None if self.draws is None else _integer(self.draws, "draws", 1)
        c = c.astype(complex)  # a private copy; D takes the same complex values
        if not np.all(np.isfinite(c)):
            raise InvalidParameters("weights must be finite")
        c.flags.writeable = False
        for name, value in (("L", L), ("weights", c), ("seed", _check_seed(self.seed)),
                            ("draws", draws)):
            object.__setattr__(self, name, value)  # frozen: the ints checked, set once, here

    @functools.cached_property
    def entries(self):
        """G(c) as a read-only (L, L^2) array: one batched matmul(D, W) (module docstring)."""
        L, c = self.L, self.weights
        p = np.arange(L)
        D = np.zeros((L, L, L), dtype=complex)
        D[:, p, p] = c[(p - p[:, None]) % L]  # D[q] = diag(T^q c)
        entries = np.empty((L, L * L), dtype=complex)  # [p, q*L + m] = (D[q] @ W)[p, m]
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below, by name
            np.matmul(D, _fourier(L), out=entries.reshape(L, L, L).transpose(1, 0, 2))
        if not np.all(np.isfinite(entries)):
            raise InvalidParameters("G(c) overflows: its entries must be finite")
        entries.flags.writeable = False
        return entries

    def support_size(self):
        """||c||_0: the exact count of nonzero weights."""
        return int(np.count_nonzero(self.weights))

    def column_index(self, q, m):
        """Linear position of the column for cell (q, m), integers in [0, L) (_integer)."""
        L = self.L
        return _integer(q, "q", 0, L - 1) * L + _integer(m, "m", 0, L - 1)

    def _dependent_at(self, k):
        """_has_dependent(entries, k): read once, unless a level known settles k (monotone)."""
        if k not in self._levels:  # a copy: another thread may add a level meanwhile
            implied = [d for j, d in self._levels.copy().items() if (j > k) != d]
            self._levels[k] = implied[0] if implied else _has_dependent(self.entries, k)
        return self._levels[k]


def _plan(owner, key, build, *args):
    """A value's plan under key, built as build(*args) on first use and kept in owner._plans,
    which no plan refers back to.  A build that raises keeps nothing; two threads may both
    build a first plan, and setdefault keeps one of their results, which hold the same bits."""
    plan = owner._plans.get(key)
    return plan if plan is not None else owner._plans.setdefault(key, build(*args))


@functools.lru_cache(maxsize=16)
def _fourier(L):
    """W_{p,m} = exp(2*pi*i*p*m/L), p, m < L, as a read-only (L, L) table."""
    p = np.arange(L)
    W = np.exp(2j * np.pi * np.outer(p, p) / L)
    W.flags.writeable = False
    return W


def build_gabor_matrix(window):
    """A Window with its G(c) built: the Window given, or Window(len(c), c) for a 1-D
    numeric weight vector c.  An overflowing G(c) is refused here (InvalidParameters)."""
    if not isinstance(window, Window):
        window = Window(np.size(window), window)
    window.entries  # built now, so every caller refuses an overflow here
    return window


def _check_tol(tol):
    """Refuse a user tolerance outside [0, 1), or not a real (_real).  Every user tol bounds
    a relative residual or a relative error, and the zero estimate already scores 1, so a
    tol >= 1 cannot tell a recovery from none."""
    if not 0 <= _real(tol, "tol") < 1:
        raise InvalidParameters(f"tol must lie in [0, 1), got {tol!r}")


@functools.lru_cache(maxsize=None)  # keyed by (L, k): at most 28 tables for L <= 7
def _orbit_table(L, k):
    """One k-subset of the L^2 columns per translation orbit, as read-only uint8 rows in
    lexicographic order, each the least of its k translates holding column 0: grown from (0,)
    a column per pass, CHUNK rows at a time (module docstring); the last pass breaks ties."""
    q, m = np.divmod(np.arange(L * L), L)
    # move[t, c]: column c under the translate (q, m) -> (q-q_t, m-m_t) taking t to 0
    move = ((q - q[:, None]) % L * L + (m - m[:, None]) % L).astype(np.uint8)
    cols = np.arange(L * L, dtype=np.uint8)
    rows = np.zeros((1, 1), dtype=np.uint8)
    for size in range(1, k):
        grown = []
        for R in (rows[s : s + CHUNK] for s in range(0, len(rows), CHUNK)):
            s1 = R[:, 1:2] if size > 1 else cols  # a second column is its own s1
            fits = (move[R].min(1) >= s1) & (move.T[R].min(1) >= s1)  # moved pairs, both ways
            b, c = np.nonzero(fits & (cols > R[:, -1:]))
            R = np.column_stack([R[b], cols[c]])
            for t in range(1, k) if size == k - 1 else ():  # ties on s1: least of its k translates
                diff = np.sort(move[R[:, t : t + 1], R], axis=1).astype(np.int16) - R
                R = R[diff[np.arange(len(R)), np.argmax(diff != 0, axis=1)] >= 0]
            grown.append(R)
        rows = np.concatenate(grown)
    rows.flags.writeable = False
    return rows


def _dependent(s):
    """The rank rule on descending singular values (last axis): s_min <= DEFAULT_TOL*s_max."""
    return s[..., -1] <= DEFAULT_TOL * s[..., 0]


def _drop_ranks(members):
    """ranks[i, b]: the colex rank sum_j C(c_j, j+1) of column b of an (r, B) table of
    ascending members c_0 < ... < c_{r-1}, with member i dropped (int32, CHUNK at a time)."""
    r = len(members)
    binom = np.array([[math.comb(c, j) for j in range(r + 1)] for c in range(256)], dtype=np.int64)
    ranks = np.empty(members.shape, dtype=np.int32)
    for start in range(0, members.shape[1], CHUNK):
        c = members[:, start : start + CHUNK]
        below = binom[c, np.arange(1, r + 1)[:, None]]  # C(c_j, j+1): member j kept before i
        above = binom[c, np.arange(r)[:, None]]  # C(c_j, j): member j kept after i, one down
        rank = np.cumsum(below, axis=0) - below + above.sum(axis=0) - np.cumsum(above, axis=0)
        ranks[:, start : start + CHUNK] = rank
    return ranks


@functools.lru_cache(maxsize=None)  # keyed by (n, r): n = L^2 <= 49 columns, r <= 5
def _colex_subsets(n, r):
    """Every r-subset of range(n) in colex order, as read-only (r, C(n, r)) uint8
    members (ascending down each column) and their int32 _drop_ranks."""
    if r == 0:
        members = np.zeros((0, 1), dtype=np.uint8)  # the empty subset
    else:  # those with largest member c: the first C(c, r-1) of level r-1, then c
        below = _colex_subsets(n, r - 1)[0]
        members = np.concatenate([
            np.insert(below[:, : math.comb(c, r - 1)], r - 1, c, axis=0) for c in range(r - 1, n)
        ], axis=1)
    ranks = _drop_ranks(members)
    members.flags.writeable = ranks.flags.writeable = False
    return members, ranks


@functools.lru_cache(maxsize=None)  # keyed by (L, k), as _orbit_table
def _orbit_ranks(L, k):
    """The read-only int32 _drop_ranks of the (L, k) orbit table's rows without column 0."""
    ranks = _drop_ranks(_orbit_table(L, k)[:, 1:].T)
    ranks.flags.writeable = False
    return ranks


def _expand(row, minors, members, ranks):
    """One Laplace level: sum_i (-1)^i row[members[i]] * minors[ranks[i]] for each column
    of (r, B) member and rank tables, r >= 1, its terms in the order of i."""
    terms = row.take(members) * minors.take(ranks)  # take: faster than fancy indexing here
    acc = terms[0]
    for i in range(1, len(terms)):
        (np.subtract if i % 2 else np.add)(acc, terms[i], out=acc)
    return acc


def _column_dets(M, rows, ranks):
    """det M[:, rows[b]] for each row of a (B, m) table of ascending columns of M (m rows),
    ranks = _drop_ranks(rows.T): one array per CHUNK of rows.

    Cofactor expansion: level r holds the minors of the last r rows of M, each the
    alternating sum of row m-r's entries times level r-1 minors (along the minor's first
    row).  Levels r < m are computed once, on every r-subset of M's columns
    (_colex_subsets); only level m is expanded per table row, m products each.  Every
    product and sum runs over CHUNK subsets at once: no (B, m, m) blocks, pivots or
    divisions, and a NaN entry makes its determinant NaN.
    """
    m, n = M.shape
    minors = np.ones(1, dtype=M.dtype)  # level 0: the empty minor
    for r in range(1, m):
        members, sub = _colex_subsets(n, r)
        level = np.empty(members.shape[1], dtype=M.dtype)
        for s in range(0, len(level), CHUNK):
            cols = members[:, s : s + CHUNK]
            level[s : s + CHUNK] = _expand(M[m - r], minors, cols, sub[:, s : s + CHUNK])
        minors = level
    for s in range(0, len(rows), CHUNK):
        cols, sub = rows[s : s + CHUNK].T, ranks[:, s : s + CHUNK]
        yield _expand(M[0], minors, cols, sub) if m else minors.repeat(cols.shape[1])


def _has_dependent(entries, k):
    """True iff some k-column subset of a Gabor matrix's rows is dependent (_dependent)."""
    parts = np.ascontiguousarray(entries).view(float)  # real and imaginary parts
    # exact power-of-two scale to a largest part in [1/2, 1): screen and SVD never over/underflow
    unit = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(complex)
    L = math.isqrt(entries.shape[1])
    table = _orbit_table(L, k)
    chunks = (table[start : start + CHUNK] for start in range(0, len(table), CHUNK))
    p = np.argmax(np.abs(unit[:, 0]))  # first pivot of every square block (module docstring)
    if k == len(unit) and unit[p, 0] != 0:  # that elimination step, once on the whole matrix
        schur = np.delete(unit - np.outer(unit[:, 0] / unit[p, 0], unit[p]), p, axis=0)
        dets = _column_dets(schur, table[:, 1:], _orbit_ranks(L, k))
        # |det| = |pivot * det| of the Schur block, NaN kept, against one bound for every block
        bound = 2 * DEFAULT_TOL * (k * np.max(np.sum(np.abs(unit) ** 2, axis=0))) ** (k / 2)
        chunks = (cols[~(np.abs(unit[p, 0] * det) > bound)] for cols, det in zip(chunks, dets))
    for cols in chunks:
        for batch in (cols[: k * k], cols[k * k :]):  # a few first: low-spark windows stop early
            sub = np.transpose(unit[:, batch], (1, 0, 2))  # (B, rows, k)
            if len(batch) and np.any(_dependent(np.linalg.svd(sub, compute_uv=False))):
                return True
    return False


def _check_search_limit(L):
    if L > SPARK_SEARCH_LIMIT:
        raise SearchBudgetExceeded(
            f"exhaustive spark search is limited to L <= {SPARK_SEARCH_LIMIT}, got L={L}"
        )


def _run_length(c):
    """Length r of the shortest cyclic run of indices holding every nonzero of c
    (0 when c is zero, len(c) when no entry is zero)."""
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        return 0
    gaps = np.diff(nonzero, append=nonzero[0] + len(c))  # cyclically consecutive nonzeros
    return len(c) - int(gaps.max()) + 1


def spark(G):
    """Smallest k such that some k columns of G are dependent; L+1 if none up to size L.

    One subset per translation orbit with a det screen: level 2, then level L, then a
    bisection of levels 3..L-1 if L is dependent (module docstring).  With no level read
    yet: ~0.3 ms at full spark and L = 5, ~4 ms at L = 6 (plus a one-time ~0.06 s table
    build), ~0.15 s at L = 7 (plus ~1.9 s), ~0.1 ms for spark 2 (all ones) at any L.
    Weights c whose nonzeros fit a cyclic run of r < L indices make level r+1 dependent,
    so level L is not read and only levels up to r are; level 2 goes first only when
    2 < r.  Enforces L <= 7; a Window's G(c) is built from its weights, so the orbit
    search holds for every Window G.  Levels known on G, as its draw's, and those they
    settle are not read: a drawn full-spark window reads none.
    """
    _check_search_limit(G.L)
    dependent = G._dependent_at
    r = _run_length(G.weights)
    if 2 < r and dependent(2):  # c != 0, so no column is zero
        return 2
    if r == G.L and not dependent(G.L):
        return G.L + 1
    levels = range(1, min(r, G.L - 1) + 1)  # a clean level 2 leaves 1 and 2 clean
    return 1 + bisect.bisect_left(levels, True, lo=2 if 2 < r else 0, key=dependent)


def generate_window(L, target="full_spark", k=None, seed=None):
    """Draw random weights until the spark target is met.

    target "full_spark": spark L+1.  target "spark_k": weights supported on the
    first k indices with spark k+1; requires 1 <= k <= L and L prime.  Moduli
    are uniform on [1/2, 1] and phases uniform, so the target sets are open and
    dense and the first draw almost always succeeds; MAX_DRAWS failed draws
    raise GenerationFailed.  A draw reads level `support` of the G(c) it built:
    ~0.3 ms for full spark at L = 5, ~0.2 ms for k = 2 at L = 7.  It returns
    that Window, so its G(c) and the level read are kept.
    """
    L = _integer(L, "L", 1)
    if target == "full_spark":
        if k is not None:
            raise InvalidParameters("k applies only to the spark_k target")
        support = L
    elif target == "spark_k":
        support = _integer(k, "the spark_k target's k", 1, L)
        if not is_prime(L):
            raise NoPrimeInRange(f"spark_k target requires prime L, got {L}")
    else:
        raise InvalidParameters(f"unknown target {target!r}")
    _check_search_limit(L)  # before any draw builds G(c), an L^3 tensor
    # spark == support + 1 iff level support is clean (module docstring)
    return _draw_window(
        L, support, seed, lambda window: not window._dependent_at(support),
        f"no window with spark {support + 1} found in {MAX_DRAWS} draws (L={L}, seed={seed})",
    )


def _draw_window(L, support, seed, accept, failure):
    """The first seeded Window, weights on the first `support` indices drawn as generate_window
    says, with accept(window): with its seed and draw count.  A seed that is not None or an
    integer >= 0 is refused first; GenerationFailed(failure) once MAX_DRAWS draws are spent."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    for draw in range(1, MAX_DRAWS + 1):
        moduli = rng.uniform(0.5, 1.0, size=support)
        phases = rng.uniform(0.0, 2 * np.pi, size=support)
        c = np.zeros(L, dtype=complex)
        c[:support] = moduli * np.exp(1j * phases)
        window = Window(L, c, seed, draw)
        if accept(window):
            return window
    raise GenerationFailed(failure)
