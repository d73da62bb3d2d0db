"""Exception types raised across the package.

Every error that a caller can act on derives from OpSampleError; the CLI maps
subclasses onto its exit codes: MalformedFile (an input file) 4, a numerical
failure (RankDeficient, NoConvergence, GenerationFailed) 3, any other 2.
"""


class OpSampleError(Exception):
    """Base class for all package errors."""


class InvalidParameters(OpSampleError):
    """An argument violates a documented precondition."""


class MalformedFile(InvalidParameters):
    """An input file cannot be read into the expected object (the loaders in formats)."""


class SearchBudgetExceeded(OpSampleError):
    """A combinatorial search (spark) would exceed the enforced size limit."""


class GenerationFailed(OpSampleError):
    """A random window draw (spark target or bunched plan) spent its budget without success."""


class NotIdentifiable(OpSampleError):
    """The support violates the identifiability characterization (fold count conditions)."""


class GridMismatch(OpSampleError):
    """Grids/parameters of two objects that must share a discretization disagree."""


class IndexOutOfRange(OpSampleError):
    """A base-rectangle grid index lies outside [0, P)."""


class RankDeficient(OpSampleError):
    """A restricted column matrix has numerical rank below the number of unknowns."""


class InvalidOverlap(OpSampleError):
    """Smooth-window overlap eps is too large for the cell geometry."""


class ShearNotRectifiable(OpSampleError):
    """The sheared support does not admit a (T,L)-rectification/identifiable structure."""


class NonIntegerChirpPeriod(OpSampleError):
    """Chirp rate a gives non-periodic weights on the grid (L*T*a is not an integer)."""


class NoConvergence(OpSampleError):
    """Unknown-support recovery certified nothing: residual above tol, or the rank-bound level
    s = 2|Gamma| - min(rank, |Gamma|) + 1 of the estimate is above L or dependent.

    Carries the partial estimate so callers can inspect the residual history.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class NoPrimeInRange(OpSampleError):
    """No admissible prime period: spark_k at a composite L, or no bunched plan (rates)."""
