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
the C(L^2, k).  It is the subset holding column 0 whose bitmask sum 1<<col is
least among its k translates (each moves one member to column 0).  This holds
only for a true G(c), which a Window's entries are: built from its weights.
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
import itertools
import math
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

#: exhaustive spark search is one subset per translation orbit, about
#: C(L^2, k)/L^2; enforced ceiling (L^2 <= 49 keeps a bitmask in int64)
SPARK_SEARCH_LIMIT = 7

#: subsets per orbit-table build pass and det-screen level pass; table rows per
#: batched SVD call: the (5, 5) table's 2130 rows and 2300 shared minors fit one
#: chunk, and the screen's (CHUNK,) complex vectors stay at 64 KiB (2048 to
#: 16384 ran alike at L = 5 and 6)
CHUNK = 4096

#: seeded draws a window generator spends before it raises GenerationFailed
MAX_DRAWS = 200


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _is_integer(x):
    """A Python or numpy integer; bool is refused."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_seed(seed):
    """Refuse an RNG seed that is neither None nor a nonnegative integer."""
    if not (seed is None or _is_integer(seed) and seed >= 0):
        raise InvalidParameters(f"seed must be None or a nonnegative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class Window:
    """Period-L identifier weights c and their G(c), a frozen value.

    L: period, at most MAX_L so that G(c) can be built; weights: a read-only complex
    copy of the finite length-L numeric vector given; seed: RNG seed used to draw it
    (None for hand-built windows); draws: how many draws the generator needed to meet
    its spark target.  entries, a read-only G(c), is built from the weights on first
    use; each spark level read on it is remembered and settles others (_dependent_at).
    """

    L: int
    weights: np.ndarray
    seed: int | None = None
    draws: int | None = None
    _levels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.weights)
        if c.ndim != 1 or c.size == 0 or c.dtype.kind not in "biufc":
            raise InvalidParameters(f"need a non-empty 1-D numeric vector, got {c.dtype} {c.shape}")
        if not (_is_integer(self.L) and 1 <= self.L <= MAX_L) or c.shape != (self.L,):
            raise InvalidParameters(f"need integer L in [1, {MAX_L}] and ({self.L},) weights, "
                                    f"got {c.shape}")
        c = c.astype(complex)  # a private copy; D takes the same complex values
        if not np.all(np.isfinite(c)):
            raise InvalidParameters("weights must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "weights", c)  # frozen: set once, here

    @functools.cached_property
    def entries(self):
        """G(c) as a read-only (L, L^2) array: one batched matmul(D, W) (module docstring)."""
        L, c = self.L, self.weights
        p = np.arange(L)
        D = np.zeros((L, L, L), dtype=complex)
        D[:, p, p] = c[(p - p[:, None]) % L]  # D[q] = diag(T^q c)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below, by name
            entries = np.matmul(D, _fourier(L)).transpose(1, 0, 2).reshape(L, L * L)
        if not np.all(np.isfinite(entries)):
            raise InvalidParameters("G(c) overflows: its entries must be finite")
        entries.flags.writeable = False
        return entries

    def support_size(self):
        """||c||_0: the exact count of nonzero weights."""
        return int(np.count_nonzero(self.weights))

    def column_index(self, q, m):
        """Linear position of the column for cell (q, m)."""
        L = self.L
        if not (0 <= q < L and 0 <= m < L):
            raise InvalidParameters(f"cell ({q},{m}) outside [0,{L})^2")
        return q * L + m

    def _dependent_at(self, k):
        """_has_dependent(entries, k): read once, unless a level known settles k (monotone)."""
        if k not in self._levels:  # a copy: another thread may add a level meanwhile
            implied = [d for j, d in self._levels.copy().items() if (j > k) != d]
            self._levels[k] = implied[0] if implied else _has_dependent(self.entries, k)
        return self._levels[k]


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
    """Refuse a NaN, infinite or negative user tolerance: every comparison with it would lie."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidParameters(f"tol must be finite and nonnegative, got {tol}")


@functools.lru_cache(maxsize=None)  # keyed by (L, k): at most 28 tables for L <= 7
def _orbit_table(L, k):
    """One k-subset of the L^2 columns per translation orbit, as read-only uint8 rows.

    Row r is the subset holding column 0 whose bitmask is least among its k
    translates (module docstring); rows come in lexicographic order.
    """
    q, m = np.divmod(np.arange(L * L), L)
    # bit[t, c]: the bit of column c under the translate (q, m) -> (q-q_t, m-m_t) taking t to 0
    bit = np.left_shift(1, (q - q[:, None]) % L * L + (m - m[:, None]) % L, dtype=np.int64)
    rest = itertools.combinations(range(1, L * L), k - 1)  # lexicographic
    total = math.comb(L * L - 1, k - 1)
    rows = []
    for start in range(0, total, CHUNK):
        B = min(CHUNK, total - start)
        cols = np.zeros((B, k), dtype=np.uint8)  # column 0, then k-1 others
        flat = itertools.chain.from_iterable(itertools.islice(rest, B))
        cols[:, 1:] = np.fromiter(flat, np.uint8, B * (k - 1)).reshape(B, k - 1)
        masks = bit[cols[:, :, None], cols[:, None, :]].sum(axis=2)  # (B, k), member t at 0
        rows.append(cols[masks[:, 0] == masks.min(axis=1)])
    table = np.concatenate(rows)
    table.flags.writeable = False
    return table


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
    yet: ~0.3 ms at full spark and L = 5, ~4 ms at L = 6 (plus a one-time ~0.2 s table
    build), ~0.2 s at L = 7 (plus ~10 s), ~0.1 ms for spark 2 (all ones) at any L.
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
    if not (_is_integer(L) and L >= 1):
        raise InvalidParameters(f"L must be a positive integer, got {L!r}")
    if target == "full_spark":
        if k is not None:
            raise InvalidParameters("k applies only to the spark_k target")
        support = L
    elif target == "spark_k":
        if not (_is_integer(k) and 1 <= k <= L):
            raise InvalidParameters(f"spark_k target needs an integer 1 <= k <= L, got k={k!r}")
        if not is_prime(L):
            raise NoPrimeInRange(f"spark_k target requires prime L, got {L}")
        support = k
    else:
        raise InvalidParameters(f"unknown target {target!r}")
    _check_search_limit(L)  # before any draw builds G(c), an L^3 tensor
    # spark == support + 1 iff level support is clean (module docstring)
    return _draw_window(
        L, support, seed, lambda window: not window._dependent_at(support),
        f"no window with spark {support + 1} found in {MAX_DRAWS} draws (L={L}, seed={seed})",
    )


def _draw_window(L, support, seed, accept, failure):
    """Seeded Windows with weights on the first `support` indices until accept(window).

    Moduli are uniform on [1/2, 1] and phases uniform.  Returns the first
    accepted Window (with its seed and draw count), refuses a seed that is
    neither None nor a nonnegative integer, and raises
    GenerationFailed(failure) once MAX_DRAWS draws are spent.
    """
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
