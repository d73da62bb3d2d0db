"""Recovery of spreading functions from the Zak transform of one response.

For an identifiable support, every base-rectangle subcell (u, v) sees the
restricted system Z_vec = A_Gamma @ eta_vec with A_Gamma the Gamma-columns of
G(c).  A left inverse b of A_Gamma (scaled per cell by (1/Omega) e^{2 pi i qm/L})
turns each Zak sample vector into quasiperiodization values,

    eta_qp(u + qP, v + mP) = e^{2 pi i v q/(LP)} (b @ Z_vec)_(q,m),

which unfold to the support with the t-translate phases e^{2 pi i j k / P}.
The sharp path masks by the support indicator; the smooth path blends with a
raised-cosine partition of unity (r on the t axis, phi_hat on the nu axis),
which sums to one exactly at grid points; the symplectic path de-chirps the
response of a chirped train e^{pi i T a n^2} c_n, recovers on the sheared
support, and shears back.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelResponse,
    DiscreteSpreadingFunction,
    _check_chirp_grid,
    _chirp_kappa,
    _chirp_phase,
    _fold_index,
    _lag_kernel,
    _unit_phase,
    _zak_vectors,
    inverse_zak,
    zak_transform,
)
from .errors import (
    GridMismatch,
    InvalidOverlap,
    InvalidParameters,
    NotIdentifiable,
    RankDeficient,
    ShearNotRectifiable,
)
from .gabor import DEFAULT_TOL, _check_tol
from .support import CellSupport, rectify

__all__ = [
    "LeftInverse",
    "ReconstructionReport",
    "SmoothWindows",
    "left_inverse",
    "recover_eta_known_support",
    "reconstruct_h_sharp",
    "smooth_windows",
    "recover_eta_smooth",
    "recover_symplectic",
]


@dataclass(eq=False)
class LeftInverse:
    """Scaled left inverse of the restricted column matrix A_Gamma.

    Row (q, m) of coefficients holds b_(q,m),p with
    sum_p b_(q,m),p G_p,(q',m') = (1/Omega) e^{2 pi i qm/L} [q=q'][m=m'].
    """

    gamma: tuple
    coefficients: np.ndarray
    condition_number: float


@dataclass(eq=False)
class ReconstructionReport:
    eta_hat: DiscreteSpreadingFunction
    relative_l2_error: float  # None when no ground truth was supplied
    per_class_conditioning: list
    formula: str
    support_estimate: object = None  # set by the unknown-support pipeline


def left_inverse(G, gamma, omega, tol=DEFAULT_TOL):
    """Minimum-norm left inverse of the Gamma-columns of G, scaled per cell.

    gamma is reordered row-major (q, then m); the coefficient rows inherit
    that order.  Raises RankDeficient when |Gamma| > L or the restricted
    matrix is numerically rank-deficient at relative tolerance tol (which
    must be finite and nonnegative).
    """
    gamma = tuple(sorted((int(q), int(m)) for q, m in gamma))
    if not gamma:
        raise InvalidParameters("gamma must contain at least one cell")
    if omega <= 0:
        raise InvalidParameters("omega must be positive")
    _check_tol(tol)
    L = G.L
    if len(set(gamma)) != len(gamma):
        raise InvalidParameters("gamma contains repeated cells")
    if len(gamma) > L:
        raise RankDeficient(f"|Gamma| = {len(gamma)} exceeds the number of rows L = {L}")
    A = G.entries[:, [G.column_index(q, m) for q, m in gamma]]
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= tol * s[0]:
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0  # all-zero columns
        raise RankDeficient(
            f"restricted columns {gamma} are numerically dependent "
            f"(sigma_min/sigma_max = {ratio:.3e})"
        )
    pinv = (Vh.conj().T / s) @ U.conj().T
    q = np.array([cell[0] for cell in gamma])
    m = np.array([cell[1] for cell in gamma])
    scale = (1.0 / omega) * _unit_phase(q * m, L)
    return LeftInverse(
        gamma=gamma,
        coefficients=scale[:, None] * pinv,
        condition_number=float(s[0] / s[-1]),
    )


def _validate_grids(Zgrid, G, S):
    L, P = S.L, S.P
    Zgrid = np.asarray(Zgrid, dtype=complex)
    if Zgrid.shape != (L * P, P):
        raise GridMismatch(f"Zak grid must have shape ({L * P}, {P}), got {Zgrid.shape}")
    if not np.all(np.isfinite(Zgrid)):
        raise InvalidParameters("Zak grid values must be finite")
    if G.L != L:
        raise GridMismatch(f"G has period {G.L}, support has L = {L}")
    return Zgrid


def _solve_quasiperiodization(Zgrid, G, S, rect, tol):
    """Per-class restricted solves: the recovered eta_qp grid and conditioning."""
    L, P = S.L, S.P
    LP = L * P
    eta_qp = np.zeros((LP, LP), dtype=complex)
    conds = []
    for cls in rect.classes:
        if not cls.cells:
            continue
        inv = left_inverse(G, cls.cells, S.omega, tol=tol)
        conds.append(inv.condition_number)
        us, vs = np.nonzero(cls.points)
        vals = inv.coefficients @ _zak_vectors(Zgrid, us, vs, L, P)
        for row, (q, m) in enumerate(inv.gamma):
            eta_qp[us + q * P, vs + m * P] = _unit_phase(vs * q, LP) * vals[row]
    return eta_qp, conds


def _report(S, values, eta_true, conds, formula):
    """ReconstructionReport for values on S, scored against eta_true when given."""
    error = None
    if eta_true is not None:
        E, truth = S, eta_true
        if isinstance(eta_true, DiscreteSpreadingFunction):
            E, truth = eta_true.support, eta_true.values
        truth = np.asarray(truth)
        if (E.T, E.L, E.P, E.offsets, truth.shape) != (S.T, S.L, S.P, S.offsets, values.shape):
            raise GridMismatch("eta_true lies on another grid (T, L, P, shift or shape)")
        num = np.linalg.norm(values - truth)
        den = np.linalg.norm(truth)
        error = float(num / den) if den != 0 else (0.0 if num == 0 else float("inf"))
    return ReconstructionReport(
        eta_hat=DiscreteSpreadingFunction(support=S, values=values),
        relative_l2_error=error,
        per_class_conditioning=conds,
        formula=formula,
    )


def recover_eta_known_support(Zgrid, G, S, eta_true=None, tol=DEFAULT_TOL):
    """Recover eta on the known support S from the Zak grid of Hg.

    Solves one restricted system per rectification class at each base-rectangle
    subcell, unfolds the quasiperiodization, and masks by S.  The formula tag
    is "sharp" for single-class supports and "multiclass" otherwise.  Raises
    NotIdentifiable when S violates the fold conditions.
    """
    Zgrid = _validate_grids(Zgrid, G, S)
    eta_qp, conds = _solve_quasiperiodization(Zgrid, G, S, rectify(S), tol)
    # unfold: read eta off its quasiperiodization at the stored subcells
    rows, cols, i, j, k = _fold_index(S)
    values = np.zeros(S.mask.shape, dtype=complex)
    values[rows, cols] = eta_qp[i, j] * _unit_phase(j * k, S.P)
    return _report(S, values, eta_true, conds, "sharp" if len(conds) <= 1 else "multiclass")


def reconstruct_h_sharp(report):
    """Time-varying impulse response h(x, t) from a recovered eta.

    One inverse DFT of the recovered samples along nu gives h(t + d*dt, t) at
    every lag d.  Row r is moved to absolute x by a phase, not a roll: its
    samples are first multiplied by exp(-2*pi*i*(j0+s)*I_r/N), I_r = i0 + r,
    an exact root of unity.  Rows follow the stored t-rows of eta_hat,
    columns the x-superperiod grid (length N = L*P^2, step T/P), so row r
    equals impulse_response(eta_hat, x, t_r).
    """
    eta = report.eta_hat
    S = eta.support
    N = S.L * S.P * S.P
    (i0, j0), (rows, cols) = S.offsets, eta.values.shape
    origin = _unit_phase(-np.multiply.outer(i0 + np.arange(rows), j0 + np.arange(cols)), N)
    return _lag_kernel(S, eta.values * origin, N)


@dataclass(eq=False)
class SmoothWindows:
    """Raised-cosine partition-of-unity pair (r on t, phi_hat on nu).

    r is 1 on [eps/2, T - eps/2], rolls off over [-eps/2, eps/2] and
    [T - eps/2, T + eps/2] with half-sine flanks, so that
    sum_k r(t + kT) = 1 exactly at grid points (the falling flank is computed
    as one minus the rising flank); phi_hat is the same shape on [0, Omega].
    eps is grid-aligned on both axes: eps_t_units = eps/(T/P) and
    eps_nu_units = eps/(Omega/P) are integers.
    """

    T: float
    omega: float
    eps: float
    P: int
    eps_t_units: int
    eps_nu_units: int

    def r(self, t):
        return _plateau(np.asarray(t) / (self.T / self.P), self.P, self.eps_t_units)

    def phi_hat(self, nu):
        return _plateau(np.asarray(nu) / (self.omega / self.P), self.P, self.eps_nu_units)


def _plateau(d, width, roll):
    """Plateau window in grid units: 1 on [roll/2, width - roll/2], half-sine
    flanks of width roll, zero outside (-roll/2, width + roll/2)."""
    d = np.asarray(d, dtype=float)
    out = np.zeros(d.shape)
    rising = (d > -roll / 2) & (d < roll / 2)
    out[rising] = 0.5 * (1.0 + np.sin(np.pi * d[rising] / roll))
    out[(d >= roll / 2) & (d <= width - roll / 2)] = 1.0
    falling = (d > width - roll / 2) & (d < width + roll / 2)
    out[falling] = 1.0 - (0.5 * (1.0 + np.sin(np.pi * (d[falling] - width) / roll)))
    return out


def smooth_windows(T, Omega, eps, P):
    """Partition-of-unity window pair for the smooth reconstruction formula.

    Requires 0 < eps < min(T, Omega)/2 (InvalidOverlap above) and eps an
    integer multiple of both grid steps T/P and Omega/P (InvalidParameters
    otherwise, so that all window evaluations the recovery needs are exact).
    """
    if T <= 0 or Omega <= 0 or P < 1:
        raise InvalidParameters("need T > 0, Omega > 0, P >= 1")
    if not eps > 0:
        raise InvalidParameters("eps must be positive")
    if eps >= min(T, Omega) / 2:
        raise InvalidOverlap(
            f"eps = {eps} must stay below min(T, Omega)/2 = {min(T, Omega) / 2}"
        )
    et = eps / (T / P)
    en = eps / (Omega / P)
    if abs(et - round(et)) > 1e-9 or abs(en - round(en)) > 1e-9:
        raise InvalidParameters(
            "eps must be an integer multiple of both T/P and Omega/P"
        )
    return SmoothWindows(
        T=T,
        omega=Omega,
        eps=eps,
        P=P,
        eps_t_units=int(round(et)),
        eps_nu_units=int(round(en)),
    )


def _blend_weights(S, windows):
    """Window blend W = (sum_q r(t - qT)) * (sum_m phi_hat(nu - m Omega)) at
    the stored subcells of S; exactly one on the support by partition of unity."""
    P = S.P
    i0, j0 = S.offsets
    rows, cols = S.mask.shape
    I = (i0 + np.arange(rows)).astype(float)
    J = (j0 + np.arange(cols)).astype(float)

    def axis_sum(d, roll):
        lo = int(np.floor((d.min() - roll / 2) / P)) - 1
        hi = int(np.ceil((d.max() + roll / 2) / P)) + 1
        total = np.zeros(d.shape)
        for q in range(lo, hi + 1):
            total += _plateau(d - q * P, P, roll)
        return total

    wt = axis_sum(I, windows.eps_t_units)
    wn = axis_sum(J, windows.eps_nu_units)
    return wt[:, None] * wn[None, :]


def recover_eta_smooth(Zgrid, G, S, windows, eta_true=None, tol=DEFAULT_TOL):
    """Known-support recovery times the raised-cosine window blend.

    recover_eta_known_support gives the unfolded quasiperiodization on S;
    each value is then weighted by sum over plane cells of
    r(t - qT) phi_hat(nu - m Omega) (the same plane value for every
    overlapping window term).  At grid points the partition of unity makes
    the blend weight exactly one on S, so the smooth and sharp paths agree;
    off-grid the windows give the Schwartz-type localization of the
    continuum formula.
    """
    if not isinstance(windows, SmoothWindows):
        raise InvalidParameters("windows must come from smooth_windows()")
    if (
        abs(windows.T - S.T) > 1e-12 * S.T
        or abs(windows.omega - S.omega) > 1e-12 * S.omega
        or windows.P != S.P
    ):
        raise GridMismatch("windows were built for a different (T, Omega, P) grid")
    sharp = recover_eta_known_support(Zgrid, G, S, tol=tol)
    values = sharp.eta_hat.values * _blend_weights(S, windows)
    return _report(S, values, eta_true, sharp.per_class_conditioning, "smooth")


def recover_symplectic(Zgrid, G, S, a, eta_true=None, tol=DEFAULT_TOL):
    """Recover eta from the Zak grid of the response to a chirped train.

    The identifier g = sum_n c_n e^{pi i T a n^2} delta_{nT} equals the plain
    train conjugated by chirp multiplication, so e^{-pi i a x^2 / T} Hg is the
    response of the sheared channel eta~(t, nu) = e^{-pi i a t^2/T} eta(t, nu + at/T)
    to the plain train.  The routine de-chirps, recovers eta~ on the sheared
    support, and shears back.  Needs kappa = L*T*a integer (the shear moves the
    nu grid by kappa subcells per t step) and a canonically placed support.
    """
    L, P = S.L, S.P
    LP = L * P
    Zgrid = _validate_grids(Zgrid, G, S)
    if S.offsets != (0, 0) or S.mask.shape != (LP, LP):
        raise InvalidParameters(
            "symplectic recovery expects a canonically placed (L*P, L*P) support"
        )
    kappa = _chirp_kappa(L, S.T, a)
    _check_chirp_grid(kappa, L, P)
    N = L * P * P

    # de-chirp the response: multiply by e^{-pi i a x^2 / T} on the x grid
    f = inverse_zak(Zgrid, S.T, L, P)
    dechirped = f.samples * _chirp_phase(np.arange(N), kappa, N).conj()
    Zt = zak_transform(
        ChannelResponse(samples=dechirped, x_step=f.x_step, T=S.T, L=L, P=P)
    )

    # sheared support: mask~[i, j~] = mask[i, (j~ + kappa i) mod LP]
    i_idx = np.arange(LP)[:, None]
    j_idx = np.arange(LP)[None, :]
    tilde_mask = S.mask[i_idx, (j_idx + kappa * i_idx) % LP]
    S_tilde = CellSupport(T=S.T, L=L, P=P, mask=tilde_mask)
    try:
        inner = recover_eta_known_support(Zt, G, S_tilde, tol=tol)
    except NotIdentifiable as exc:
        raise ShearNotRectifiable(
            f"sheared support admits no (T, L)-rectification: {exc}"
        ) from exc

    # shear back: eta[i, j] = e^{+pi i a t_i^2 / T} eta~[i, (j - kappa i) mod LP]
    values = inner.eta_hat.values[i_idx, (j_idx - kappa * i_idx) % LP]
    values *= _chirp_phase(np.arange(LP), kappa, N)[:, None]
    return _report(S, values, eta_true, inner.per_class_conditioning, "symplectic")
