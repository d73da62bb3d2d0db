"""Recovery of spreading functions from the Zak transform of one response.

For an identifiable support, every base-rectangle subcell (u, v) sees the
restricted system Z_vec = A_Gamma @ eta_vec with A_Gamma the Gamma-columns of
G(c).  A left inverse b of A_Gamma (scaled per cell by (1/Omega) e^{2 pi i qm/L})
is computed once per rectification class, and X[q, m, u, v] = (b @ Z_vec)_(q,m)
at each of the class's subcells.  A stored subcell of S that folds onto
(u + qP, v + mP) after k time translates by L*T then reads

    eta = e^{2 pi i v q/(LP)} X[q, m, u, v] e^{2 pi i (v + mP) k/P}.

All three known-support formulas are this one solve on the exact grid:

- sharp/multiclass reads eta off X at the stored subcells of S.  A union of whole cells
  (rectify's whole_cells) is one class of every base point, with k = 0: row n of b @ Z_vec
  is eta on cell n, read off as its P x P block by the same three factors, with no X;
- smooth needs no blend: the raised-cosine partition of unity (r on t,
  phi_hat on nu) is exactly 1.0 at every grid point, because at most two
  translates overlap (eps < min(T, Omega)/2), their flanks there are a and
  1 - a at the same argument, and fl(fl(1 - a) + a) = 1;
- symplectic de-chirps on the Zak grid.  The chirped train
  e^{pi i T a n^2} c_n makes e^{-pi i a x^2/T} Hg the response of the sheared
  channel to the plain train.  With kappa = L*T*a, N = L*P^2 and
  x = i - n*L*P, the chirp e^{-pi i kappa x^2/N} splits into a row phase, a
  shift of j by kappa*i and (-1)^{kappa*L*n}, so for i < L*P

      Z~[i, j] = e^{-pi i kappa i^2/N} Z[i, (j + kappa*i + s) mod P],

  with s = P/2 when kappa*L is odd and 0 otherwise; recovery solves on the
  sheared support and shears back.

A recovery returns what it recovered and takes no ground truth: scoring an
estimate against a known eta is channel.relative_l2_error.

A plan lives on what it is a function of (gabor._plan): S keeps its rectification,
read-off tables (none if whole-cell) and, per kappa, S~ with its shear tables; G keeps each
class's left inverse per (Gamma, Omega).  Keys are plain data and no plan refers to its owner,
so supports and windows do not pin each other; kept arrays are read-only, refusals not kept.
"""

from dataclasses import dataclass

import numpy as np

from .channel import (
    DiscreteSpreadingFunction,
    _check_chirp_grid,
    _chirp_kappa,
    _chirp_phase,
    _fresh_spreading,
    _lag_kernel,
    _unit_phase,
    _zak_grid,
    _zak_vectors,
)
from .errors import (
    GridMismatch,
    InvalidOverlap,
    InvalidParameters,
    NotIdentifiable,
    RankDeficient,
    ShearNotRectifiable,
)
from .gabor import _dependent, _integer, _multiple, _plan, _real
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
    per_class_conditioning: list
    formula: str
    support_estimate: object = None  # set by the unknown-support pipeline


def left_inverse(G, gamma, omega):
    """Minimum-norm left inverse of the Gamma-columns of G, scaled per cell.

    gamma is reordered row-major (q, then m); the coefficient rows inherit
    that order.  The coefficients are read-only, so a solve plan may keep them
    (_solve).  Raises RankDeficient when |Gamma| > L or the restricted
    columns are dependent under the package's one rank rule
    (gabor._dependent), the rule the spark search and the bunched plan use.
    """
    L = G.L
    columns = sorted(G.column_index(q, m) for q, m in gamma)  # integer labels in [0, L)
    gamma = tuple(divmod(c, L) for c in columns)
    if not gamma:
        raise InvalidParameters("gamma must contain at least one cell")
    _real(omega, "omega", positive=True)
    if len(set(gamma)) != len(gamma):
        raise InvalidParameters("gamma contains repeated cells")
    if len(gamma) > L:
        raise RankDeficient(f"|Gamma| = {len(gamma)} exceeds the number of rows L = {L}")
    A = G.entries[:, columns]
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if _dependent(s):
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0  # all-zero columns
        raise RankDeficient(
            f"restricted columns {gamma} are numerically dependent "
            f"(sigma_min/sigma_max = {ratio:.3e})"
        )
    pinv = (Vh.conj().T / s) @ U.conj().T
    q, m = np.array(gamma).T
    scale = (1.0 / omega) * _unit_phase(q * m, L)
    inv = LeftInverse(
        gamma=gamma,
        coefficients=scale[:, None] * pinv,
        condition_number=float(s[0] / s[-1]),
    )
    inv.coefficients.flags.writeable = False
    return inv


def _validate_grids(Zgrid, G, S):
    """S's Zak grid, checked (channel._zak_grid), for a window G of S's period L."""
    if G.L != S.L:
        raise GridMismatch(f"G has period {G.L}, support has L = {S.L}")
    return _zak_grid(Zgrid, S.L, S.P)


class _ZakVectors:
    """The (L, P^2) Z-vectors Y of a Zak grid, gathered once it passes _validate_grids.  The
    unknown-support decoder reads Y, then solves on it through recover_eta_known_support, so
    its grid is checked and gathered once and the public solve stays the one entry."""

    def __init__(self, Zgrid, G, S):
        self.Y = _zak_vectors(_validate_grids(Zgrid, G, S), S.L, S.P)


def _read_off(S):
    """S's read-only read-off tables: the flat index into X of each stored subcell (the fold
    read once per mask row and column) and its row and column phases."""
    L, P = S.L, S.P
    rows, cols, k, i, j = S.subcells
    (q, u), (m, v) = np.divmod(i, P), np.divmod(j, P)
    flat = (q * (L * P * P) + u * P)[rows] + (m * (P * P) + v)[cols]
    q, k, v, j = q[rows], k[rows], v[cols], j[cols]
    tables = flat, _unit_phase(v * q, L * P), _unit_phase(j * k, P)
    for a in tables:
        a.flags.writeable = False
    return tables


def _solve(Zv, G, S):
    """eta's values (a fresh array) and the class condition numbers from checked Z-vectors:
    a whole-cell S by cell blocks (module docstring), any other by the read-off tables it keeps."""
    L, P = S.L, S.P
    rectified = rectify(S)
    values = np.zeros(S.mask.shape, dtype=complex)
    if rectified.whole_cells:  # one class of every base point, in order
        if not S.cells:
            return values, []
        inv = _plan(G, (S.cells, S.omega), left_inverse, G, S.cells, S.omega)
        q, m = np.array(inv.gamma).T
        # Zv is C-contiguous, so the product has the bits of the general path's np.take
        eta = _unit_phase(np.multiply.outer(q, np.arange(P)), L * P)[:, None, :]
        eta = eta * (inv.coefficients @ Zv).reshape(-1, P, P) * _unit_phase(0, P)
        values.reshape(L, P, L, P)[q, :, m, :] = eta  # block n is cell (q[n], m[n])
        return values, [inv.condition_number]
    flat, row_phase, col_phase = _plan(S, "read-off", _read_off, S)
    X = np.zeros((L * L, P * P), dtype=complex)  # X[q*L + m, u*P + v]
    conds = []
    for cls in rectified.classes:
        if not cls.cells:
            continue
        # a RankDeficient refusal raises here and is not kept
        inv = _plan(G, (cls.cells, S.omega), left_inverse, G, cls.cells, S.omega)
        conds.append(inv.condition_number)
        q, m = np.array(inv.gamma).T
        # np.take keeps the columns C-ordered (Zv[:, index] may not), so the product
        # takes the BLAS path, and gives the bits, of a freshly gathered matrix
        X[(q * L + m)[:, None], cls.index] = inv.coefficients @ np.take(Zv, cls.index, axis=1)
    values[S.mask] = row_phase * X.ravel()[flat] * col_phase
    return values, conds


def recover_eta_known_support(Zgrid, G, S):
    """Recover eta on the known support S from the Zak grid of Hg.

    Solves one restricted system per rectification class at each base-rectangle
    subcell, then reads eta off with the two root-of-unity phases of the module
    docstring: by cell blocks for a union of whole cells, else off X at the stored
    subcells by read-off tables S keeps; G keeps each class's left inverse.  The grid
    is checked and gathered once (_ZakVectors, which the unknown-support decoder
    passes instead).  The values are zero off the mask by construction, as they
    fill only S.mask.  The formula tag is "sharp" for single-class supports and
    "multiclass" otherwise.  Raises NotIdentifiable when S violates the fold conditions.
    """
    checked = Zgrid if isinstance(Zgrid, _ZakVectors) else _ZakVectors(Zgrid, G, S)
    values, conds = _solve(checked.Y, G, S)
    eta_hat = _fresh_spreading(S, values)
    return ReconstructionReport(eta_hat, conds, "sharp" if len(conds) <= 1 else "multiclass")


def reconstruct_h_sharp(report):
    """Time-varying impulse response h(x, t) from a recovered eta.

    One inverse DFT of the recovered samples along nu gives h(t + d*dt, t) at
    every lag d.  Row r is moved to absolute x by a phase, not a roll: its
    samples are first multiplied by exp(-2*pi*i*(j0+s)*I_r/N), I_r = i0 + r,
    an exact root of unity read from the one table.  The scale dnu*N rides on
    that (rows, cols) origin phase, so h is a zero fill, the folded lines and
    one in-place inverse DFT, with no further pass over the output.  Rows
    follow the stored t-rows of eta_hat, columns the x-superperiod grid
    (length N = L*P^2, step T/P), so row r equals impulse_response(eta_hat, x, t_r).
    """
    eta = report.eta_hat
    S = eta.support
    N = S.L * S.P * S.P
    (i0, j0), (rows, cols) = S.offsets, eta.values.shape
    origin = _unit_phase(-np.multiply.outer(i0 + np.arange(rows), j0 + np.arange(cols)), N)
    origin *= S.dnu * N
    origin *= eta.values
    return _lag_kernel(S, origin, N)


@dataclass(eq=False)
class SmoothWindows:
    """Raised-cosine partition-of-unity pair (r on t, phi_hat on nu).

    r is 1 on [eps/2, T - eps/2], rolls off over [-eps/2, eps/2] and
    [T - eps/2, T + eps/2] with half-sine flanks, so that
    sum_k r(t + kT) = 1 exactly at grid points (the falling flank is computed
    as one minus the rising flank); phi_hat is the same shape on [0, Omega].
    eps is grid-aligned on both axes and is held as its two grid counts,
    the integers eps_t_units = eps/(T/P) and eps_nu_units = eps/(Omega/P).
    """

    T: float
    omega: float
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

    Requires reals T, Omega > 0, an integer P >= 1, 0 < eps < min(T, Omega)/2 (InvalidOverlap
    above) and eps a multiple of both grid steps T/P and Omega/P (gabor._multiple; else
    InvalidParameters), so that all window evaluations the recovery needs are exact.
    """
    _real(T, "T", positive=True)
    _real(Omega, "Omega", positive=True)
    _integer(P, "P", 1)
    if _real(eps, "eps", positive=True) >= min(T, Omega) / 2:
        raise InvalidOverlap(
            f"eps = {eps} must stay below min(T, Omega)/2 = {min(T, Omega) / 2}"
        )
    return SmoothWindows(
        T=T,
        omega=Omega,
        P=P,
        eps_t_units=_multiple(eps, T / P, "eps"),
        eps_nu_units=_multiple(eps, Omega / P, "eps"),
    )


def recover_eta_smooth(Zgrid, G, S, eps):
    """Known-support recovery under the raised-cosine partition of unity of flank eps.

    The smooth formula weights each recovered value by the window sum
    sum over plane cells of r(t - qT) phi_hat(nu - m Omega).  On the grid that
    sum is exactly 1.0 (see the module docstring), so the result is
    recover_eta_known_support's, bit for bit, tagged "smooth"; off-grid the
    windows give the Schwartz-type localization of the continuum formula.
    eps is checked by building smooth_windows(S.T, S.omega, eps, S.P), so it
    must be one the exact identity holds for.
    """
    smooth_windows(S.T, S.omega, eps, S.P)
    report = recover_eta_known_support(Zgrid, G, S)
    report.formula = "smooth"
    return report


def recover_symplectic(Zgrid, G, S, a):
    """Recover eta from the Zak grid of the response to a chirped train.

    The identifier g = sum_n c_n e^{pi i T a n^2} delta_{nT} equals the plain
    train conjugated by chirp multiplication, so e^{-pi i a x^2 / T} Hg is the
    response of the sheared channel eta~(t, nu) = e^{-pi i a t^2/T} eta(t, nu + at/T)
    to the plain train.  The routine de-chirps the Zak grid directly (a row
    phase and a shift along nu, see the module docstring), recovers eta~ on the
    sheared support, and shears back.  Needs kappa = L*T*a integer (the shear
    moves the nu grid by kappa subcells per t step) and a canonically placed
    support.  Every phase and index depends on kappa only modulo 2*L*P^2.  S keeps
    S~ and its tables per kappa (a whole-cell S~ is read off by cell blocks), G the inverses.
    The values are zero off the mask by construction: the shear back maps S~'s mask onto S's.
    """
    L, P = S.L, S.P
    LP = L * P
    Zgrid = _validate_grids(Zgrid, G, S)
    if S.offsets != (0, 0) or S.mask.shape != (LP, LP):
        raise InvalidParameters(
            "symplectic recovery expects a canonically placed (L*P, L*P) support"
        )
    kappa = _chirp_kappa(L, S.T, a) % (2 * L * P * P)  # reduced before any integer array product
    _check_chirp_grid(kappa, L, P)
    S_tilde, chirp, gather, back = _plan(S, kappa, _shear_plan, S, kappa)
    Zv = _zak_vectors(chirp.conj() * np.ravel(Zgrid)[gather], L, P)  # the de-chirped grid's
    try:
        values, conds = _solve(Zv, G, S_tilde)
    except NotIdentifiable as exc:
        raise ShearNotRectifiable(
            f"sheared support admits no (T, L)-rectification: {exc}"
        ) from exc
    values = np.ravel(values)[back]  # a fresh gather, so the chirp multiplies it in place
    values *= chirp
    return ReconstructionReport(_fresh_spreading(S, values), conds, "symplectic")


def _shear_plan(S, kappa):
    """S~ (mask~[i, j] = mask[i, (j + kappa*i) mod L*P]) and read-only tables for
    recover_symplectic: the row chirp and the flat indices of Z[i, (j + kappa*i + s) mod P]
    and eta~[i, (j - kappa*i) mod L*P]."""
    L, P = S.L, S.P
    LP = L * P
    i, j = np.ogrid[:LP, :LP]
    s = P // 2 if kappa * L % 2 else 0
    chirp = _chirp_phase(i, kappa, L * P * P)
    gather = i * P + (np.arange(P) + kappa * i + s) % P
    back = i * LP + (j - kappa * i) % LP
    chirp.flags.writeable = gather.flags.writeable = back.flags.writeable = False
    return CellSupport(T=S.T, L=L, P=P, mask=S.mask[i, (j + kappa * i) % LP]), chirp, gather, back
