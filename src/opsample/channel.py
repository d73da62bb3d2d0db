"""Fully discrete time-varying channel model driven by weighted delta trains.

Grid conventions (shared package-wide):

    dt  = T/P,           dnu = Omega/P,        Omega = 1/(L*T),
    eta stored on the support's subcell grid (t = (i0+r)*dt, nu = (j0+s)*dnu),
    h(x, t) = dnu * sum_s eta[t, s] * exp(2*pi*i*nu_s*(x - t)),
    Hg(x)   = sum_n w_n h(x, x - n*T),   w_n = c_{n mod L} * exp(pi*i*T*a*n^2).

Sampling nu at step Omega/P makes Hg exactly periodic with period P*L*T
(= L*P^2 grid samples), so the Zak transform

    Z[i, j] = sum_{n=0}^{P-1} Hg[(i - n*L*P) mod L*P^2] * exp(2*pi*i*n*j/P)

and the quasiperiodization

    eta_qp[i, j] = sum_k,l eta(t + k*L*T, nu + l/T) * exp(-2*pi*i*nu*k*L*T)

are finite sums, and for every base point (t, nu) the vectors

    Z_p      = Z(t + p*T, nu) * exp(-2*pi*i*nu*p*T),
    eta_(q,m) = Omega * eta_qp(t + q*T, nu + m*Omega)
                * exp(-2*pi*i*nu*q*T) * exp(-2*pi*i*q*m/L)

satisfy Z_vec = G(c) * eta_vec exactly (all phases are roots of unity computed
from integer-reduced exponents, so the identity holds to rounding error).

The grid kernels are table lookups, in-order scatter-adds and FFTs: every grid
phase is read from one cached table of roots of unity (_unit_phase),
quasiperiodize scatters by np.add.at in index order, apply_channel by
row-ordered slice additions, and the lag kernel folds nu-lines by slice
additions in the order of s.  Each gives the bits of the direct exponential or
element-by-element scatter it replaces.  apply_channel skips the mask rows with
no active subcell, whose terms would all be +-0.  An IdentifierTrain is frozen
and derives its integer chirp kappa = L*T*a once, where it is made.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    IndexOutOfRange,
    InvalidParameters,
    NonIntegerChirpPeriod,
)
from .gabor import Window, _check_seed, _multiple, _real
from .support import CellSupport, _check_grid

__all__ = [
    "DiscreteSpreadingFunction",
    "IdentifierTrain",
    "ChannelResponse",
    "SystemSample",
    "random_spreading",
    "relative_l2_error",
    "impulse_response",
    "apply_channel",
    "zak_transform",
    "inverse_zak",
    "quasiperiodize",
    "assemble_system",
]


@functools.lru_cache(maxsize=16)
def _roots(d):
    """The d-th roots of unity exp(2*pi*i*k/d), k < d, as a read-only table."""
    table = np.exp(2j * np.pi * np.arange(d) / d)
    table.flags.writeable = False
    return table


def _unit_phase(numerator, denominator):
    """exp(2*pi*i*numerator/denominator) for integer numerators, the exponent
    reduced mod denominator: the bits of that np.exp, read from _roots."""
    return _roots(denominator)[np.asarray(numerator) % denominator]


def _l2_norm(x):
    """Euclidean norm by one numpy sum of re^2 + im^2: unlike np.linalg.norm's
    BLAS dot products, its bits do not depend on the BLAS thread count."""
    x = np.asarray(x)
    return float(np.sqrt(np.sum(x.real**2 + x.imag**2)))


def _dot_norm(x):
    """np.linalg.norm of each C-contiguous last-axis vector, bit for bit: re and im dots."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _zak_grid(Z, L, P):
    """Z as a complex (L*P, P) Zak grid: GridMismatch for another shape, InvalidParameters
    unless every value is finite.  The one check of a Zak grid, for integers L, P."""
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (L * P, P):
        raise GridMismatch(f"Zak grid must have shape ({L * P}, {P}), got {Z.shape}")
    if not np.isfinite(Z).all():
        raise InvalidParameters("Zak grid values must be finite")
    return Z


def _chirp_kappa(L, T, a):
    """Integer kappa = L*T*a = a/Omega; raises if the chirp is off-grid.  Its own rule, not
    _multiple's: no magnitude bound, as kappa is only used mod 2*L*P^2 (a = 1e300 is fine)."""
    # a float (NaN and inf too) meets the grid rule as it is; any other a must be a real
    kappa = L * T * (a if isinstance(a, float) else _real(a, "the chirp rate a"))
    if not (abs(kappa) < np.inf and abs(kappa - round(kappa)) <= 1e-9):  # rejects nan, inf
        raise NonIntegerChirpPeriod(
            f"L*T*a = {kappa} is not an integer; the chirped weights are aperiodic on the grid"
        )
    return int(round(kappa))


def _check_chirp_grid(kappa, L, P):
    """Period-2L chirped weights (kappa*L odd) keep the response periodic only for even P."""
    if (kappa * L) % 2 == 1 and P % 2 == 1:
        raise InvalidParameters("period-2L chirped weights need even P for a periodic response")


def _chirp_phase(n, kappa, D):
    """exp(pi*i*kappa*n^2/D) at integer n, the exponent reduced mod 2D."""
    n = np.asarray(n)
    return _unit_phase(kappa * n * n, 2 * D)


@dataclass(frozen=True, eq=False)
class DiscreteSpreadingFunction:
    """Spreading samples on a support's subcell grid, zero outside the mask: frozen, with
    values a read-only complex copy of the array given."""

    support: CellSupport
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)  # a private copy
        if values.shape != self.support.mask.shape:
            raise GridMismatch(
                f"values shape {values.shape} does not match mask {self.support.mask.shape}"
            )
        if values[~self.support.mask].any():  # NaN is truthy, -0.0 is not
            raise InvalidParameters("values must vanish outside the support mask")
        if not np.isfinite(values).all():
            raise InvalidParameters("spreading values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)  # frozen: set once, here


def _fresh_spreading(S, values):
    """DiscreteSpreadingFunction(S, values) for a complex array of S.mask's shape that the
    package has just built, zero off the mask by construction and held by nothing else: frozen
    in place, without __post_init__'s copy and off-mask scan, and refused if non-finite."""
    if not np.isfinite(values).all():
        raise InvalidParameters("spreading values must be finite")
    values.flags.writeable = False
    eta = object.__new__(DiscreteSpreadingFunction)
    object.__setattr__(eta, "support", S)
    object.__setattr__(eta, "values", values)
    return eta


def random_spreading(S, seed=None):
    """Complex standard-normal samples on the active subcells of S (seed: None or int >= 0).
    The values are zero off the mask by construction: the draw is zeroed there."""
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    shape = S.mask.shape
    values = np.empty(shape, dtype=complex)  # the bits of a + 1j*b, without 1j*b
    values.real = rng.standard_normal(shape)
    values.imag = rng.standard_normal(shape)
    values[~S.mask] = 0
    return _fresh_spreading(S, values)


def relative_l2_error(estimate, truth):
    """||estimate - truth|| / ||truth|| by BLAS-free sums (_l2_norm); 0.0 when both vanish,
    inf when only truth does.  Both are DiscreteSpreadingFunctions (InvalidParameters
    otherwise); GridMismatch when it lies on another grid (T, L, P, shift or shape)."""
    for name, x in (("estimate", estimate), ("truth", truth)):
        if not isinstance(x, DiscreteSpreadingFunction):
            raise InvalidParameters(f"{name} must be a DiscreteSpreadingFunction, got {type(x)}")
    S, values = estimate.support, estimate.values
    E, truth = truth.support, truth.values
    if (E.T, E.L, E.P, E.offsets, truth.shape) != (S.T, S.L, S.P, S.offsets, values.shape):
        raise GridMismatch("eta_true lies on another grid (T, L, P, shift or shape)")
    num = _l2_norm(values - truth)
    den = _l2_norm(truth)
    return num / den if den != 0 else (0.0 if num == 0 else float("inf"))


@dataclass(frozen=True, eq=False)
class IdentifierTrain:
    """g = sum_n c_n exp(pi*i*T*a*n^2) delta_{nT} with period-L weights c: frozen, with T a float,
    L*T finite and kappa = L*T*a = a/Omega an integer set here (else NonIntegerChirpPeriod)."""

    T: float
    weights: Window
    chirp_a: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "T", float(_real(self.T, "T", positive=True)))  # frozen: set here
        if not isinstance(self.weights, Window):
            raise InvalidParameters(f"weights must be a Window, got {type(self.weights).__name__}")
        _real(self.L * self.T, "the period L*T")  # so kappa is never L*T*a = inf*0
        object.__setattr__(self, "kappa", _chirp_kappa(self.L, self.T, self.chirp_a))  # set here

    @property
    def L(self):
        return self.weights.L

    @property
    def rate(self):
        """D(Lambda) = ||c||_0 / (T*L), with ||c||_0 the exact count of nonzero weights."""
        return self.weights.support_size() / (self.T * self.L)

    @property
    def period(self):
        """Period of the effective weights: L when kappa*L is even, else 2L."""
        return self.L if (self.kappa * self.L) % 2 == 0 else 2 * self.L

    def effective_weights(self, n):
        """w_n = c_{n mod L} * exp(pi*i*T*a*n^2) at integer n (exact phases)."""
        n = np.asarray(n)
        c = self.weights.weights[np.mod(n, self.L)]
        if self.kappa == 0:
            return c
        # the phase is 2L-periodic in kappa; reducing first keeps kappa*n^2 in int64
        return c * _chirp_phase(n, self.kappa % (2 * self.L), self.L)


@dataclass(frozen=True, eq=False)
class ChannelResponse:
    """Hg sampled on one superperiod [0, P*L*T) at step x_step = T/P (derived, not stored):
    frozen, with samples a read-only complex copy, T a float and L, P ints (support._check_grid)."""

    samples: np.ndarray
    T: float
    L: int
    P: int

    def __post_init__(self):
        for name, value in zip("TLP", _check_grid(self.T, self.L, self.P)):
            object.__setattr__(self, name, value)  # frozen: the float and ints checked, set here
        samples = np.array(self.samples, dtype=complex)  # a private copy
        if samples.shape != (self.L * self.P * self.P,):
            raise GridMismatch(f"expected {self.L * self.P**2} samples, got {samples.shape}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)  # frozen: set once, here

    @property
    def x_step(self):
        return self.T / self.P


@dataclass(eq=False)
class SystemSample:
    """The restricted linear systems z = G(c) @ eta_vec at one base point or an array of
    them: z is (L, *points) and eta_vec (L*L, *points), each vector on axis 0."""

    z: np.ndarray
    eta_vec: np.ndarray

    def residual(self, G):
        """Largest ||z - G @ eta_vec|| / (1 + ||eta_vec||) over the points, each point with the
        bits of that expression alone: one matrix-vector product and _dot_norm per point."""
        z, eta = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (self.z, self.eta_vec))
        d = z - np.matmul(G.entries, eta[..., None])[..., 0]
        return float(np.max(_dot_norm(d) / (1.0 + _dot_norm(eta))))


def _lag_kernel(S, values, lags):
    """h(t_r + d*dt, t_r) / (dnu*lags) for every stored row r at the lags
    d = n*N/lags, n < lags.

    Returns (1/lags) * sum_s values[r, s] * exp(2*pi*i*(j0+s)*n/lags),
    N = L*P^2, lags dividing N: the phase has period lags in j0+s, so the
    stored nu-lines of S fold mod lags and one exact inverse DFT of that length
    per row, taken in place, gives every lag.  The lines fold by slice
    additions, split where j0+s wraps, so colliding lines add in the order of
    s.  The caller applies the scale dnu*lags where it is cheapest.
    """
    rows, cols = values.shape
    V = np.zeros((rows, lags), dtype=complex)
    s = 0
    while s < cols:
        k = (S.offsets[1] + s) % lags
        n = min(lags - k, cols - s)
        V[:, k : k + n] += values[:, s : s + n]
        s += n
    np.fft.ifft(V, axis=1, out=V)
    return V


def _zak_vectors(Zgrid, L, P):
    """Z-vectors of every base point (u, v), as the (L, P^2) matrix whose column u*P + v is
    Z[u + p*P, v] * exp(-2*pi*i*v*p/(L*P)), p = 0..L-1: one product with an (L, P) table."""
    phase = _unit_phase(-np.multiply.outer(np.arange(L), np.arange(P)), L * P)
    return (np.reshape(Zgrid, (L, P, P)) * phase[:, None, :]).reshape(L, P * P)


def impulse_response(eta, x, t):
    """h(x, t) for finite real x (a number or array) and a grid-aligned real t (GridMismatch)."""
    x = np.asarray(x)
    if x.dtype.kind not in "iuf" or not np.all(np.isfinite(x)):
        raise InvalidParameters("x must be finite reals")
    S = eta.support
    i0, j0 = S.offsets
    r = _multiple(t, S.dt, "t", GridMismatch) - i0
    if not 0 <= r < eta.values.shape[0]:
        raise IndexOutOfRange("t outside the stored support rows")
    nus = (j0 + np.arange(eta.values.shape[1])) * S.dnu
    diff = x - np.asarray(t)
    phases = np.exp(2j * np.pi * np.multiply.outer(diff, nus))
    return S.dnu * np.sum(phases * eta.values[r], axis=-1)


def apply_channel(eta, g):
    """Hg on the superperiod grid. Exact: all phases are roots of unity.

    The response to the train g = sum_n w_n delta_{nT} is
    Hg(x) = sum_n w_n h(x, x - nT), so it reads h only at lags n*P (in dt).
    On the grid x = k*dt the inner time x - nT hits stored row r when
    k = (i0 + r + n*P) mod L*P^2; n runs over one period n < L*P of both h
    and the weights (whose period L or 2L divides L*P).  Only the rows that
    hold an active subcell are folded, transformed and scattered: other rows'
    terms are +-0, which change no bit of a sum from +0.0.  Rows of one b and
    consecutive a (i0 + r = a + P*b mod L*P^2) add as one slice, blocks in row
    order: each sample adds its terms in an element-by-element scatter's order.
    """
    S = eta.support
    if not isinstance(g, IdentifierTrain):
        raise GridMismatch("g must be an IdentifierTrain")
    if abs(g.T - S.T) > 1e-12 * S.T:
        raise GridMismatch("train period T does not match the support grid")
    if g.L != S.L:
        raise GridMismatch("train weight period L does not match the support")
    _check_chirp_grid(g.kappa, S.L, S.P)

    L, P = S.L, S.P
    N = L * P * P
    rows = np.flatnonzero(S.mask.any(axis=1))  # the rows with an active subcell
    values = eta.values if rows.size == len(S.mask) else eta.values[rows]  # all active: no copy
    h = _lag_kernel(S, values, L * P)
    h *= S.dnu * (L * P)
    terms = g.effective_weights(np.arange(L * P)) * h
    out = np.zeros((L * P, P), dtype=complex)  # out[x, a]: sample x*P + a
    start = (S.offsets[0] + rows) % N  # = a + P*b: row r's lag n lands on out[(b+n) % LP, a]
    after = np.concatenate(([-2], start[:-1])) + 1  # the start that continues the row before
    blocks = np.flatnonzero((start % P == 0) | (start != after)).tolist()
    for first, stop in zip(blocks, blocks[1:] + [len(rows)]):  # rows of one b, a run of a
        b, a = divmod(int(start[first]), P)
        out[b:, a : a + stop - first] += terms[first:stop, : L * P - b].T
        out[:b, a : a + stop - first] += terms[first:stop, L * P - b :].T
    return ChannelResponse(samples=out.reshape(N), T=S.T, L=L, P=P)


def zak_transform(f):
    """Zak transform of a ChannelResponse with period 1/Omega = L*T.

    Returns the (L*P, P) grid Z[i, j] over [0, L*T) x [0, Omega).
    """
    L, P = f.L, f.P
    f2 = f.samples.reshape(P, L * P)
    return (P * np.fft.ifft(f2[(-np.arange(P)) % P], axis=0)).T


def inverse_zak(Z, T, L, P):
    """Response samples from a Zak grid (exact inverse of zak_transform).

    One DFT along nu gives the P rows of the (P, L*P) superperiod reshape in
    the order zak_transform gathered them; one gather puts them back.
    """
    _check_grid(T, L, P)
    F = np.fft.fft(_zak_grid(Z, L, P), axis=1) / P
    f2 = F.T[(-np.arange(P)) % P]
    return ChannelResponse(samples=f2.reshape(-1), T=T, L=L, P=P)


def quasiperiodize(eta):
    """Fold eta onto [0, L*T) x [0, 1/T) with the Zak-compatible phases.

    Time translates by k*L*T pick up exp(-2*pi*i*nu*k*L*T) (an exact P-th root
    of unity on the grid); frequency translates fold without phase.
    """
    S = eta.support
    LP = S.L * S.P
    rows, cols, k, i, j = S.subcells
    k, j = k[rows], j[cols]
    terms = eta.values[rows, cols] * _unit_phase(-j * k, S.P)
    out = np.zeros(LP * LP, dtype=complex)
    np.add.at(out, (i * LP)[rows] + j, terms)  # in index order: an element-by-element add
    return out.reshape(LP, LP)


def assemble_system(eta_qp, Zgrid, G, t, nu, T):
    """Build (z, eta_vec) at base points (t, nu) in subcell indices: two integers, or
    integer index arrays that broadcast together, whose points stack after the
    vector axis.  A float or bool base point is refused (InvalidParameters).

    eta_qp: (L*P, L*P) quasiperiodization grid; Zgrid: (L*P, P) Zak grid of the
    response; T fixes the physical scaling Omega = 1/(L*T) and must be finite
    and positive (InvalidParameters).  The SystemSample satisfies
    z = G(c) @ eta_vec exactly at every point for matching inputs.
    """
    _real(T, "T", positive=True)
    L = G.L
    eta_qp = np.asarray(eta_qp)
    P = len(eta_qp) // L if eta_qp.ndim == 2 else 0
    if P < 1 or eta_qp.shape != (L * P, L * P):
        raise GridMismatch("eta_qp must be square with side L*P")
    Zgrid = _zak_grid(Zgrid, L, P)
    t, nu = np.broadcast_arrays(t, nu)
    if t.dtype.kind not in "iu" or nu.dtype.kind not in "iu":
        raise InvalidParameters(f"base points (t, nu) must be integers, not {t.dtype}, {nu.dtype}")
    if not np.all((0 <= t) & (t < P) & (0 <= nu) & (nu < P)):
        raise IndexOutOfRange(f"a base point (t, nu) lies outside [0,{P})^2")

    omega = 1.0 / (T * L)
    q, m = np.divmod(np.arange(L * L).reshape((-1,) + (1,) * t.ndim), L)
    eta_vec = omega * eta_qp[t + q * P, nu + m * P] * _unit_phase(-(nu * q + q * m * P), L * P)
    return SystemSample(z=np.take(_zak_vectors(Zgrid, L, P), t * P + nu, axis=1), eta_vec=eta_vec)
