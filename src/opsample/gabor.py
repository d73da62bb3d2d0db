"""Finite Gabor system matrices and spark certification.

For a period-L weight vector c the (cyclic) time-frequency shifts are

    (T^q x)_p = x_{(p-q) mod L},      (M^m x)_p = w^{pm} x_p,   w = exp(2*pi*i/L),

and the full Gabor system matrix is the L x L^2 block matrix

    G(c) = [ D_0 W | D_1 W | ... | D_{L-1} W ],   D_q = diag(T^q c),  W_{p,m} = w^{pm}.

Column q*L + m equals M^m T^q c = w^{qm} * T^q M^m c; the pair (q, m) is the
(time-shift, frequency-shift) cell label shared with the support and
reconstruction modules.  The rows of G(c) are orthogonal with squared norm
L*||c||^2 (tight frame), and every column has norm ||c||.

Spark (the size of the smallest dependent column subset) is computed by
exhaustive subset enumeration; L = L+1 spark ("full spark") holds for generic
weights, and weights supported on their first k indices with L prime give
spark k+1.
"""

import itertools
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
    "GaborMatrix",
    "translate",
    "modulate",
    "build_gabor_matrix",
    "spark",
    "generate_window",
    "minors_nonzero",
    "is_prime",
]

#: default relative singular-value threshold for numerical rank decisions
DEFAULT_TOL = 1e-9

#: exhaustive spark search is C(L^2, k) subsets; enforced ceiling
SPARK_SEARCH_LIMIT = 7

#: minor enumeration ceiling
MINORS_LIMIT = 5


def is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def translate(x, q):
    """Cyclic shift: (T^q x)_p = x_{(p-q) mod L}."""
    return np.roll(np.asarray(x), q)


def modulate(x, m):
    """Pointwise modulation: (M^m x)_p = exp(2*pi*i*p*m/L) x_p."""
    x = np.asarray(x)
    L = x.shape[0]
    return x * np.exp(2j * np.pi * m * np.arange(L) / L)


@dataclass(eq=False)
class Window:
    """Period-L identifier weights.

    L: period; weights: complex vector of length L; seed: RNG seed used to
    draw it (None for hand-built windows); draws: how many draws the
    generator needed to meet its spark target.
    """

    L: int
    weights: np.ndarray
    seed: int | None = None
    draws: int | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.L < 1 or self.weights.shape != (self.L,):
            raise InvalidParameters(
                f"need L >= 1 and weights of shape (L,) = ({self.L},), got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise InvalidParameters("weights must be finite")

    def support_size(self):
        """||c||_0: the exact count of nonzero weights."""
        return int(np.count_nonzero(self.weights))


@dataclass(eq=False)
class GaborMatrix:
    """The L x L^2 system matrix with its (q, m) -> column bijection."""

    L: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.L, self.L * self.L):
            raise InvalidParameters(
                f"entries must have shape ({self.L}, {self.L**2}), got {self.entries.shape}"
            )

    def column_index(self, q, m):
        """Linear position of the column for cell (q, m)."""
        L = self.L
        if not (0 <= q < L and 0 <= m < L):
            raise InvalidParameters(f"cell ({q},{m}) outside [0,{L})^2")
        return q * L + m

    def column(self, q, m):
        return self.entries[:, self.column_index(q, m)]


def build_gabor_matrix(window):
    """Assemble G(c) = [D_0 W | ... | D_{L-1} W] from a Window or weight vector."""
    if isinstance(window, Window):
        c = window.weights
        L = window.L
    else:
        c = np.asarray(window, dtype=complex)
        L = c.shape[0]
    W = np.exp(2j * np.pi * np.outer(np.arange(L), np.arange(L)) / L)
    blocks = [np.diag(translate(c, q)) @ W for q in range(L)]
    return GaborMatrix(L=L, entries=np.hstack(blocks))


def _has_dependent(entries, k, tol, chunk=2048):
    """True iff some k-column subset of entries is numerically dependent."""
    subsets = itertools.combinations(range(entries.shape[1]), k)
    while batch := list(itertools.islice(subsets, chunk)):
        sub = np.transpose(entries[:, np.asarray(batch)], (1, 0, 2))  # (B, L, k)
        s = np.linalg.svd(sub, compute_uv=False)
        if np.any(s[:, k - 1] <= tol * s[:, 0]):
            return True
    return False


def spark(G, tol=DEFAULT_TOL):
    """Smallest k such that some k columns of G are dependent; L+1 if none up to size L.

    Exhaustive over the k-column subsets, k = 1, 2, ..., short-circuiting on
    the first dependent subset.  Enforces L <= 7; note the enumeration at
    L in {6, 7} is combinatorially heavy (up to C(49,7) subsets) and is only
    practical for the small L the rest of the package uses.
    """
    L = G.L
    if L > SPARK_SEARCH_LIMIT:
        raise SearchBudgetExceeded(
            f"exhaustive spark search is limited to L <= {SPARK_SEARCH_LIMIT}, got L={L}"
        )
    for k in range(1, L + 1):
        if _has_dependent(G.entries, k, tol):
            return k
    return L + 1


def generate_window(L, target="full_spark", k=None, seed=None, max_draws=200):
    """Draw random weights until the spark target is met.

    target "full_spark": spark L+1.  target "spark_k": weights supported on the
    first k indices with spark k+1; requires 1 <= k <= L and L prime.  Moduli
    are uniform on [1/2, 1] and phases uniform, so the target sets are open and
    dense and the first draw almost always succeeds.
    """
    if L < 1:
        raise InvalidParameters("L must be positive")
    if target == "full_spark":
        support = L
        goal = L + 1
    elif target == "spark_k":
        if k is None or not (1 <= k <= L):
            raise InvalidParameters("spark_k target needs 1 <= k <= L")
        if not is_prime(L):
            raise NoPrimeInRange(f"spark_k target requires prime L, got {L}")
        support = k
        goal = k + 1
    else:
        raise InvalidParameters(f"unknown target {target!r}")

    window = _draw_window(
        L, support, seed, max_draws, lambda c: spark(build_gabor_matrix(c)) == goal
    )
    if window is None:
        raise GenerationFailed(
            f"no window with spark {goal} found in {max_draws} draws (L={L}, seed={seed})"
        )
    return window


def _draw_window(L, support, seed, max_draws, accept):
    """Seeded draws of weights on the first `support` indices until accept(c).

    Moduli are uniform on [1/2, 1] and phases uniform.  Returns the first
    accepted Window (with its seed and draw count), or None once max_draws
    draws are spent.
    """
    rng = np.random.default_rng(seed)
    for draw in range(1, max_draws + 1):
        moduli = rng.uniform(0.5, 1.0, size=support)
        phases = rng.uniform(0.0, 2 * np.pi, size=support)
        c = np.zeros(L, dtype=complex)
        c[:support] = moduli * np.exp(1j * phases)
        if accept(c):
            return Window(L=L, weights=c, seed=seed, draws=draw)
    return None


def minors_nonzero(G, tol=DEFAULT_TOL):
    """True iff every square minor of every size has modulus > tol.

    Structurally vanishing minors are exactly zero in floating point up to
    rounding, while generic nonzero minors of unit-scale windows sit many
    orders of magnitude above the default tolerance.
    """
    L = G.L
    if L > MINORS_LIMIT:
        raise SearchBudgetExceeded(
            f"minor enumeration is limited to L <= {MINORS_LIMIT}, got L={L}"
        )
    A = G.entries
    n = A.shape[1]
    for r in range(1, L + 1):
        col_sets = np.asarray(list(itertools.combinations(range(n), r)))
        for rows in itertools.combinations(range(L), r):
            sub = A[np.asarray(rows)][:, col_sets]  # (r, C, r)
            sub = np.transpose(sub, (1, 0, 2))  # (C, r, r)
            dets = np.linalg.det(sub)
            if np.any(np.abs(dets) <= tol):
                return False
    return True
