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
elementwise c * W product is not).

Spark is the size of the smallest dependent column subset: L+1 ("full spark")
for generic weights, k+1 for weights on their first k indices with L prime.
The exhaustive searches run over Heisenberg orbits (Lawrence-Pfander-Walnut,
JFAA 2005; Malikiosis, ACHA 2015): the unitary M^a T^b maps column (q, m) to a
unimodular multiple of column (q+b, m+a) and only permutes and phases rows, so
one column subset per translation orbit is checked: about C(L^2-1, k-1)/k of
the C(L^2, k).  It is the subset holding column 0 whose bitmask sum 1<<col is
least among its k translates (each moves one member to column 0).  This holds
only for a true G(c), which a GaborMatrix is: it is built from its weights.
Every column-dependence decision in the package is one scale-free rule,
_dependent: s_min <= tol*s_1 on the block's singular values.
Square blocks are first screened by determinant: s_k <= tol*s_1 implies
|det A| = prod s_i <= tol*||A||_F^k for any matrix, so only
|det| <= 2*tol*||A||_F^k goes on to the SVD.  Every table row holds column 0
first, and the first elimination step, pivoting on the largest |entry| of
column 0, is taken once on the whole matrix: |det A| = |pivot * det B| for the
block's m x m Schur block B, m = k-1, and det B is one cofactor expansion
batched over the table rows (_column_dets).  The 2 is sound: every multiplier
has |l_i| <= 1, so ||b_j|| <= (1+sqrt(m))*||a_j||, and the expansion's rounding
error is at most gamma_n * per(|B|) <= gamma_n * m^(m/2) * prod ||b_j||, with
gamma_n = n*u/(1-n*u), u = 2^-53 and n = 13m + m(m-1)/2 roundings on any one
term (10 per Schur entry, 3 per complex product, 1 per sum).  With
|pivot| <= ||a_0|| and AM-GM over the k column norms, the error on
|pivot * det B| is at most
gamma_n * (1+sqrt(m))^m * (m/k)^(m/2) * k^(-1/2) * ||A||_F^k, ~4e-12*||A||_F^k
at m = 6: far below tol*||A||_F^k.  A zero column 0 sends every block to the
SVD.

Dependence is monotone in the level k (subset size), so a spark decision reads
only the levels it needs.  For an L x k block A, k < L, A^H A is a principal
submatrix of B^H B, B = [A a], so Cauchy interlacing gives s_1(B) >= s_1(A)
and s_{k+1}(B) <= s_k(A): a k-subset dependent under _dependent makes every
superset of up to L columns dependent.  Level 2 (a small table) is read
first: dependent, it is spark 2, since level 1 is dependent only for c = 0.
Full spark is level L clean; other sparks are bisected.  Nonzero weights
inside a cyclic run of r < L indices s..s+r-1 put the L columns (q, m) of
one q in rows q+s..q+s+r-1 mod L, exact zeros elsewhere, so any r+1 of them
are dependent under _dependent: the spark is at most r+1, and only levels
1..r need reading.  For weights on the first k indices, r = k: spark k+1 is
level k clean, k+1 unread.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GenerationFailed,
    InvalidParameters,
    NoPrimeInRange,
    SearchBudgetExceeded,
)

__all__ = [
    "Window",
    "GaborMatrix",
    "build_gabor_matrix",
    "spark",
    "generate_window",
]

#: largest period of a Window or GaborMatrix: G(c) holds L^3 = 4096^2 entries at
#: L = 256, as many as the largest grid a file may declare (support.MAX_LP)
MAX_L = 256

#: tol of the package's one rank rule, _dependent, which reads it at call time
DEFAULT_TOL = 1e-9

#: exhaustive spark search is one subset per translation orbit, about
#: C(L^2, k)/L^2; enforced ceiling (L^2 <= 49 keeps a bitmask in int64)
SPARK_SEARCH_LIMIT = 7

#: subsets per orbit-table build pass; table rows per det screen and batched SVD
#: call: the (5, 5) table's 2130 rows fit one chunk, and the screen's (CHUNK,)
#: complex vectors stay at 64 KiB (8192 rows ran slower at L = 6)
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


@dataclass(eq=False)
class Window:
    """Period-L identifier weights.

    L: period, at most MAX_L so that G(c) can be built; weights: complex
    vector of length L; seed: RNG seed used to draw it (None for hand-built
    windows); draws: how many draws the generator needed to meet its spark target.
    """

    L: int
    weights: np.ndarray
    seed: int | None = None
    draws: int | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if not (_is_integer(self.L) and 1 <= self.L <= MAX_L) or self.weights.shape != (self.L,):
            raise InvalidParameters(
                f"need integer L in [1, {MAX_L}] and ({self.L},) weights, got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise InvalidParameters("weights must be finite")

    def support_size(self):
        """||c||_0: the exact count of nonzero weights."""
        return int(np.count_nonzero(self.weights))


@dataclass(frozen=True, eq=False)
class GaborMatrix:
    """G(c) = [D_0 W | ... | D_{L-1} W] of weights c, with its (q, m) -> column bijection.

    Built from c alone (L <= MAX_L, refused before any allocation), so it is
    always a true G(c).  Frozen: weights (a complex copy of c), L and entries
    are read-only and cannot be rebound.
    """

    weights: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.weights)
        if c.ndim != 1 or c.size == 0 or c.dtype.kind not in "biufc":
            raise InvalidParameters(f"need a non-empty 1-D numeric vector, got {c.dtype} {c.shape}")
        L = c.shape[0]
        if L > MAX_L:
            raise InvalidParameters(f"G(c) is limited to L <= {MAX_L}, got L={L}")
        c = c.astype(complex)  # a private copy; D takes the same complex values
        if not np.all(np.isfinite(c)):
            raise InvalidParameters("weights must be finite")
        p = np.arange(L)
        W = np.exp(2j * np.pi * np.outer(p, p) / L)
        D = np.zeros((L, L, L), dtype=complex)
        D[:, p, p] = c[(p - p[:, None]) % L]  # D[q] = diag(T^q c)
        entries = np.matmul(D, W).transpose(1, 0, 2).reshape(L, L * L)
        if not np.all(np.isfinite(entries)):
            raise InvalidParameters("G(c) overflows: its entries must be finite")
        c.flags.writeable = entries.flags.writeable = False
        for name, value in (("weights", c), ("L", L), ("entries", entries)):
            object.__setattr__(self, name, value)  # frozen: set once, here

    def column_index(self, q, m):
        """Linear position of the column for cell (q, m)."""
        L = self.L
        if not (0 <= q < L and 0 <= m < L):
            raise InvalidParameters(f"cell ({q},{m}) outside [0,{L})^2")
        return q * L + m


def build_gabor_matrix(window):
    """The GaborMatrix of a Window or of a 1-D numeric weight vector."""
    return GaborMatrix(window.weights if isinstance(window, Window) else window)


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


@functools.lru_cache(maxsize=None)  # keyed by m <= 6
def _cofactor_terms(m):
    """Per level r = 1..m, the Laplace terms of every r-subset S of range(m).

    Subsets come in lexicographic order; subset S holds one term per position
    i: (i odd, S[i], index of S without S[i] in level r-1).
    """
    levels, index = [], {(): 0}
    for r in range(1, m + 1):
        subsets = list(itertools.combinations(range(m), r))
        levels.append(tuple(
            tuple((i % 2, c, index[S[:i] + S[i + 1 :]]) for i, c in enumerate(S)) for S in subsets
        ))
        index = {S: n for n, S in enumerate(subsets)}
    return tuple(levels)


def _column_dets(M, cols):
    """det M[:, cols[b]] for every row b of a (B, m) column table, M of m rows.

    Cofactor expansion: level r holds the minors of the last r rows of M on every
    r-subset of the m column positions, each the alternating sum of row m-r's
    entries times level r-1 minors (along the minor's first row).  Every product
    and sum runs over the B rows at once: no (B, m, m) blocks, pivots or
    divisions, and a NaN entry makes its determinant NaN.
    """
    m = len(M)
    minors = [np.ones(len(cols), dtype=M.dtype)]  # level 0: the empty minor
    for r, level in enumerate(_cofactor_terms(m), start=1):
        row = M[m - r][cols.T]  # (m, B): row m-r at each column position
        nxt = []
        for (_, c, sub), *rest in level:
            acc = row[c] * minors[sub]
            for odd, c, sub in rest:
                (np.subtract if odd else np.add)(acc, row[c] * minors[sub], out=acc)
            nxt.append(acc)
        minors = nxt
    return minors[0]


def _has_dependent(entries, k):
    """True iff some k-column subset of a Gabor matrix's rows is dependent (_dependent)."""
    parts = np.ascontiguousarray(entries).view(float)  # real and imaginary parts
    # exact power-of-two scale to a largest part in [1/2, 1): screen and SVD never over/underflow
    unit = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(complex)
    sq_norms = np.sum(np.abs(unit) ** 2, axis=0)
    table = _orbit_table(math.isqrt(entries.shape[1]), k)
    p = np.argmax(np.abs(unit[:, 0]))  # first pivot of every square block (module docstring)
    screen = k == len(unit) and unit[p, 0] != 0
    if screen:  # that elimination step, taken once on the whole matrix
        schur = np.delete(unit - np.outer(unit[:, 0] / unit[p, 0], unit[p]), p, axis=0)
    for start in range(0, len(table), CHUNK):
        cols = table[start : start + CHUNK]
        if screen:  # |det| = |pivot * det| of the Schur block, NaN kept
            dets = np.abs(unit[p, 0] * _column_dets(schur, cols[:, 1:]))
            cols = cols[~(dets > 2 * DEFAULT_TOL * sq_norms[cols].sum(axis=1) ** (k / 2))]
        for batch in (cols[: k * k], cols[k * k :]):  # a few first: low-spark windows stop early
            sub = np.transpose(unit[:, batch], (1, 0, 2))  # (B, rows, k)
            if len(batch) and np.any(_dependent(np.linalg.svd(sub, compute_uv=False))):
                return True
    return False


@functools.lru_cache(maxsize=64)  # keyed by G's bytes: one window's matrices share an entry
def _level_dependent(entries, L, k):
    A = np.frombuffer(entries, dtype=complex).reshape(L, L * L)
    return _has_dependent(A, k)


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

    One subset per translation orbit with a det screen: level 2, then level L,
    then a bisection of levels 3..L-1 if L is dependent (module docstring):
    ~0.6 ms for a full-spark window at L = 5, ~20 ms at L = 6 (plus a one-time
    ~0.2 s table build), ~0.1 ms for a spark-2 window such as all ones at any
    L.  Weights c whose nonzeros fit a cyclic run of r < L indices
    make level r+1 dependent, so level L is not read and only levels up to r
    are; level 2 goes first only when 2 < r.  Enforces L <= 7; a GaborMatrix
    is a true G(c), so the orbit search holds for every G it is given.
    """
    _check_search_limit(G.L)
    dependent = functools.partial(_has_dependent, G.entries)
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
    ~0.5 ms for full spark at L = 5, ~0.2 ms for k = 2 at L = 7.
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

    def accept(c):  # spark == support + 1 iff level support is clean (module docstring)
        return not _has_dependent(build_gabor_matrix(c).entries, support)

    return _draw_window(
        L, support, seed, accept,
        f"no window with spark {support + 1} found in {MAX_DRAWS} draws (L={L}, seed={seed})",
    )


def _draw_window(L, support, seed, accept, failure):
    """Seeded draws of weights on the first `support` indices until accept(c).

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
        if accept(c):
            return Window(L=L, weights=c, seed=seed, draws=draw)
    raise GenerationFailed(failure)
