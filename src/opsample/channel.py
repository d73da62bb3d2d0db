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
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    IndexOutOfRange,
    InvalidParameters,
    NonIntegerChirpPeriod,
    UnsupportedZakPeriod,
)
from .gabor import Window
from .support import CellSupport

__all__ = [
    "DiscreteSpreadingFunction",
    "IdentifierTrain",
    "ChannelResponse",
    "SystemSample",
    "random_spreading",
    "impulse_response",
    "apply_channel",
    "zak_transform",
    "inverse_zak",
    "quasiperiodize",
    "assemble_system",
]


def _unit_phase(numerator, denominator):
    """exp(2*pi*i*numerator/denominator) with the exponent reduced mod denominator."""
    return np.exp(2j * np.pi * (np.asarray(numerator) % denominator) / denominator)


def _chirp_kappa(L, T, a):
    """Integer kappa = L*T*a = a/Omega; raises if the chirp is off-grid."""
    kappa = L * T * a
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


def _fold_index(S):
    """Stored subcells (rows, cols) of S with their fold (i, j) onto the
    (L*P, L*P) fundamental domain and the count k of L*T time translates."""
    LP = S.L * S.P
    rows, cols = np.nonzero(S.mask)
    k, i = np.divmod(S.offsets[0] + rows, LP)
    j = (S.offsets[1] + cols) % LP
    return rows, cols, i, j, k


@dataclass(eq=False)
class DiscreteSpreadingFunction:
    """Spreading samples on a support's subcell grid; zero outside the mask."""

    support: CellSupport
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.support.mask.shape:
            raise GridMismatch(
                f"values shape {self.values.shape} does not match mask {self.support.mask.shape}"
            )
        if np.any(self.values[~self.support.mask] != 0):
            raise InvalidParameters("values must vanish outside the support mask")
        if not np.all(np.isfinite(self.values)):
            raise InvalidParameters("spreading values must be finite")

    @property
    def grid_l2(self):
        """Grid L2 norm with the subcell area weight."""
        cell_area = self.support.dt * self.support.dnu
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * cell_area))


def random_spreading(S, seed=None):
    """Complex standard-normal samples on the active subcells of S."""
    rng = np.random.default_rng(seed)
    shape = S.mask.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[~S.mask] = 0
    return DiscreteSpreadingFunction(support=S, values=values)


@dataclass(eq=False)
class IdentifierTrain:
    """g = sum_n c_n exp(pi*i*T*a*n^2) delta_{nT} with period-L weights c."""

    T: float
    weights: Window
    chirp_a: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise InvalidParameters("T must be finite and positive")

    @property
    def L(self):
        return self.weights.L

    @property
    def rate(self):
        """D(Lambda) = ||c||_0 / (T*L), with ||c||_0 the exact count of nonzero weights."""
        return self.weights.support_size() / (self.T * self.L)

    def chirp_kappa(self):
        """Integer kappa = L*T*a = a/Omega; raises if the chirp is off-grid."""
        return _chirp_kappa(self.L, self.T, self.chirp_a)

    @property
    def period(self):
        """Period of the effective weights: L when kappa*L is even, else 2L."""
        kappa = self.chirp_kappa()
        return self.L if (kappa * self.L) % 2 == 0 else 2 * self.L

    def effective_weights(self, n):
        """w_n = c_{n mod L} * exp(pi*i*T*a*n^2) at integer n (exact phases)."""
        n = np.asarray(n)
        kappa = self.chirp_kappa()
        c = self.weights.weights[np.mod(n, self.L)]
        if kappa == 0:
            return c
        return c * _chirp_phase(n, kappa, self.L)


@dataclass(eq=False)
class ChannelResponse:
    """Hg sampled on one superperiod [0, P*L*T) at step x_step = T/P."""

    samples: np.ndarray
    x_step: float
    T: float
    L: int
    P: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.shape != (self.L * self.P * self.P,):
            raise GridMismatch(
                f"expected {self.L * self.P**2} samples, got {self.samples.shape}"
            )
        if abs(self.x_step - self.T / self.P) > 1e-12 * self.x_step:
            raise GridMismatch("x_step must equal T/P")


@dataclass(eq=False)
class SystemSample:
    """The restricted linear system at one base point: z = G(c) @ eta_vec."""

    t_index: int
    nu_index: int
    z: np.ndarray
    eta_vec: np.ndarray

    def residual(self, G):
        return float(
            np.linalg.norm(self.z - G.entries @ self.eta_vec)
            / (1.0 + np.linalg.norm(self.eta_vec))
        )


def _lag_kernel(eta, lags):
    """h(t_r + d*dt, t_r) for every stored row r at the lags d = n*N/lags, n < lags.

    h[r, n] = dnu * sum_s values[r, s] * exp(2*pi*i*(j0+s)*n/lags), N = L*P^2,
    lags dividing N: the phase has period lags in j0+s, so the stored nu-lines
    fold mod lags (colliding lines add) and one exact inverse DFT of that
    length per row gives every lag.
    """
    S = eta.support
    V = np.zeros((eta.values.shape[0], lags), dtype=complex)
    slots = (S.offsets[1] + np.arange(eta.values.shape[1])) % lags
    np.add.at(V, (slice(None), slots), eta.values)
    return S.dnu * lags * np.fft.ifft(V, axis=1)


def _zak_vectors(Zgrid, u, v, L, P):
    """Z-vectors Z[u + p*P, v] * exp(-2*pi*i*v*p/(L*P)), p = 0..L-1, stacked on
    axis 0 for base points (u, v) (scalars or matching index arrays)."""
    p = np.arange(L)
    return Zgrid[np.add.outer(p * P, u), v] * _unit_phase(-np.multiply.outer(p, v), L * P)


def impulse_response(eta, x, t):
    """h(x, t) for grid-aligned t (a stored row of eta) and arbitrary x."""
    S = eta.support
    i0, j0 = S.offsets
    r_float = np.asarray(t) / S.dt - i0
    r = np.rint(r_float).astype(int)
    if np.any(np.abs(r_float - r) > 1e-9):
        raise GridMismatch("t must be an integer multiple of T/P")
    if np.any(r < 0) or np.any(r >= eta.values.shape[0]):
        raise IndexOutOfRange("t outside the stored support rows")
    nus = (j0 + np.arange(eta.values.shape[1])) * S.dnu
    diff = np.asarray(x) - np.asarray(t)
    phases = np.exp(2j * np.pi * np.multiply.outer(diff, nus))
    return S.dnu * np.sum(phases * eta.values[r], axis=-1)


def apply_channel(eta, g):
    """Hg on the superperiod grid. Exact: all phases are roots of unity.

    The response to the train g = sum_n w_n delta_{nT} is
    Hg(x) = sum_n w_n h(x, x - nT), so it reads h only at lags n*P (in dt).
    On the grid x = k*dt the inner time x - nT hits stored row r when
    k = (i0 + r + n*P) mod L*P^2; n runs over one period n < L*P of both h
    and the weights (whose period L or 2L divides L*P), and every row
    scatters its L*P terms at once.
    """
    S = eta.support
    if not isinstance(g, IdentifierTrain):
        raise GridMismatch("g must be an IdentifierTrain")
    if abs(g.T - S.T) > 1e-12 * S.T:
        raise GridMismatch("train period T does not match the support grid")
    if g.L != S.L:
        raise GridMismatch("train weight period L does not match the support")
    _check_chirp_grid(g.chirp_kappa(), S.L, S.P)

    L, P = S.L, S.P
    N = L * P * P
    n = np.arange(L * P)
    h = _lag_kernel(eta, L * P)
    rows = S.offsets[0] + np.arange(h.shape[0])
    out = np.zeros(N, dtype=complex)
    np.add.at(out, np.add.outer(rows, n * P) % N, g.effective_weights(n) * h)
    return ChannelResponse(samples=out, x_step=S.dt, T=S.T, L=L, P=P)


def zak_transform(f, a=None):
    """Zak transform of a ChannelResponse with period a = 1/Omega = L*T.

    Returns the (L*P, P) grid Z[i, j] over [0, L*T) x [0, Omega).
    """
    if a is not None and abs(a - f.L * f.T) > 1e-12 * f.L * f.T:
        raise UnsupportedZakPeriod(
            f"only the period a = 1/Omega = L*T = {f.L * f.T} is supported"
        )
    L, P = f.L, f.P
    f2 = f.samples.reshape(P, L * P)
    gathered = np.empty_like(f2)
    gathered[0] = f2[0]
    gathered[1:] = f2[:0:-1]
    return (P * np.fft.ifft(gathered, axis=0)).T


def inverse_zak(Z, T, L, P):
    """Response samples from a Zak grid (exact inverse of zak_transform).

    One DFT along nu gives the P rows of the (P, L*P) superperiod reshape in
    the order zak_transform gathered them; one gather puts them back.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (L * P, P):
        raise GridMismatch(f"expected Zak grid of shape ({L * P}, {P}), got {Z.shape}")
    F = np.fft.fft(Z, axis=1) / P
    f2 = F.T[(-np.arange(P)) % P]
    return ChannelResponse(samples=f2.reshape(-1), x_step=T / P, T=T, L=L, P=P)


def quasiperiodize(eta):
    """Fold eta onto [0, L*T) x [0, 1/T) with the Zak-compatible phases.

    Time translates by k*L*T pick up exp(-2*pi*i*nu*k*L*T) (an exact P-th root
    of unity on the grid); frequency translates fold without phase.
    """
    S = eta.support
    LP = S.L * S.P
    rows, cols, i, j, k = _fold_index(S)
    out = np.zeros((LP, LP), dtype=complex)
    np.add.at(out, (i, j), eta.values[rows, cols] * _unit_phase(-j * k, S.P))
    return out


def assemble_system(eta_qp, Zgrid, G, t, nu, T):
    """Build (z, eta_vec) at base point (t, nu) in subcell indices.

    eta_qp: (L*P, L*P) quasiperiodization grid; Zgrid: (L*P, P) Zak grid of the
    response; T fixes the physical scaling Omega = 1/(L*T).  The SystemSample
    satisfies z = G(c) @ eta_vec exactly for matching inputs.
    """
    L = G.L
    eta_qp = np.asarray(eta_qp)
    Zgrid = np.asarray(Zgrid)
    if eta_qp.shape[0] % L != 0 or eta_qp.shape[0] != eta_qp.shape[1]:
        raise GridMismatch("eta_qp must be square with side L*P")
    P = eta_qp.shape[0] // L
    if Zgrid.shape != (L * P, P):
        raise GridMismatch(f"Zak grid must have shape ({L * P}, {P})")
    if not (0 <= t < P and 0 <= nu < P):
        raise IndexOutOfRange(f"base point ({t},{nu}) outside [0,{P})^2")

    omega = 1.0 / (T * L)
    LP = L * P
    z = _zak_vectors(Zgrid, t, nu, L, P)
    q, m = np.divmod(np.arange(L * L), L)
    eta_vec = (
        omega
        * eta_qp[t + q * P, nu + m * P]
        * _unit_phase(-(nu * q + q * m * P), LP)
    )
    return SystemSample(t_index=t, nu_index=nu, z=z, eta_vec=eta_vec)
