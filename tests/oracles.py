"""Independent oracles for test values.

Everything here is written as plain loops from the defining formulas, kept
deliberately separate from the vectorized package code so the two can
disagree.  Frozen: changes here require re-deriving the expected values.
"""

import cmath
import math

import numpy as np


def gabor_column_oracle(c, q, m):
    """Column for cell (q, m): entries w^{pm} * c_{(p-q) mod L}."""
    L = len(c)
    return np.array(
        [cmath.exp(2j * math.pi * p * m / L) * c[(p - q) % L] for p in range(L)]
    )


def gabor_matrix_oracle(c):
    L = len(c)
    G = np.zeros((L, L * L), dtype=complex)
    for q in range(L):
        for m in range(L):
            G[:, q * L + m] = gabor_column_oracle(c, q, m)
    return G


def spark_oracle(entries, tol=1e-9):
    """Spark by a scan of one subset at a time (the package batches its SVDs)."""
    import itertools

    L, n = entries.shape
    for k in range(1, L + 1):
        for cols in itertools.combinations(range(n), k):
            sub = entries[:, list(cols)]
            s = np.linalg.svd(sub, compute_uv=False)
            if s[-1] <= tol * s[0]:
                return k
    return L + 1


def fold_count_oracle(mask, offsets, period_i, period_j):
    """Fold the stored boolean mask by (period_i, period_j) in subcell units."""
    i0, j0 = offsets
    out = np.zeros((period_i, period_j), dtype=int)
    rows, cols = mask.shape
    for r in range(rows):
        for s in range(cols):
            if mask[r, s]:
                out[(i0 + r) % period_i, (j0 + s) % period_j] += 1
    return out


def occupancy_oracle(mask, offsets, L, P):
    """Per base point (u, v): the set of cells (q, m) whose folded copy is true.

    The mask is first folded onto the canonical rectangle (valid when the
    (LP, LP) fold count is <= 1), then each base point reads its L^2 translates.
    """
    folded = fold_count_oracle(mask, offsets, L * P, L * P) > 0
    occ = {}
    for u in range(P):
        for v in range(P):
            cells = frozenset(
                (q, m)
                for q in range(L)
                for m in range(L)
                if folded[u + q * P, v + m * P]
            )
            occ[(u, v)] = cells
    return occ


def impulse_response_oracle(values, offsets, dnu, x, row):
    """h(x, t_row) = dnu * sum_s values[row, s] * exp(2*pi*i*nu_s*(x - t_row))."""
    i0, j0 = offsets
    dt_units = None  # t is implied by the row; only x - t matters
    total = 0.0 + 0.0j
    ncols = values.shape[1]
    for s in range(ncols):
        nu = (j0 + s) * dnu
        total += values[row, s] * cmath.exp(2j * math.pi * nu * x)
    return dnu * total


def channel_response_oracle(values, offsets, T, L, P, weights, chirp_a=0.0):
    """Hg on the superperiod grid by the defining double sum.

    Hg(x) = sum_n w_n h(x, x - nT), with h(x, t) the Riemann ν-sum of the
    stored spreading samples and w_n = c_{n mod L} * exp(pi*i*T*a*n^2).
    """
    i0, j0 = offsets
    rows, cols = values.shape
    dt = T / P
    dnu = 1.0 / (T * L * P)
    nx = L * P * P
    out = np.zeros(nx, dtype=complex)
    for kx in range(nx):
        x = kx * dt
        # t = x - nT must hit a stored row: t/dt = kx - nP in [i0, i0+rows)
        for r in range(rows):
            rem = (kx - (i0 + r)) % P
            if rem != 0:
                continue
            n = (kx - (i0 + r)) // P
            w = weights[n % L] * cmath.exp(1j * math.pi * T * chirp_a * n * n)
            t = (i0 + r) * dt
            acc = 0.0 + 0.0j
            for s in range(cols):
                nu = (j0 + s) * dnu
                acc += values[r, s] * cmath.exp(2j * math.pi * nu * (x - t))
            out[kx] += w * dnu * acc
    return out


def zak_oracle(f, L, P):
    """Z[i, j] = sum_n f[(i - n*L*P) mod L*P^2] * exp(2*pi*i*n*j/P)."""
    n_samples = L * P * P
    Z = np.zeros((L * P, P), dtype=complex)
    for i in range(L * P):
        for j in range(P):
            acc = 0.0 + 0.0j
            for n in range(P):
                acc += f[(i - n * L * P) % n_samples] * cmath.exp(
                    2j * math.pi * n * j / P
                )
            Z[i, j] = acc
    return Z


def quasiperiodize_oracle(values, offsets, L, P):
    """eta^QP[i, j] = sum over stored samples folding to (i, j) with phase
    exp(-2*pi*i*j*k/P) where the t-fold count is k."""
    i0, j0 = offsets
    rows, cols = values.shape
    out = np.zeros((L * P, L * P), dtype=complex)
    for r in range(rows):
        for s in range(cols):
            if values[r, s] == 0:
                continue
            I = i0 + r
            J = j0 + s
            i = I % (L * P)
            k = (I - i) // (L * P)
            j = J % (L * P)
            out[i, j] += values[r, s] * cmath.exp(-2j * math.pi * j * k / P)
    return out


def periodized_band_kernel(u, T, P):
    """K(u) = dnu * sum_{j=0}^{P-1} exp(2*pi*i*j*dnu*u) for the one-cell band
    [0, Omega) with L = 1 (dnu = Omega/P = 1/(T*P))."""
    dnu = 1.0 / (T * P)
    return dnu * sum(cmath.exp(2j * math.pi * j * dnu * u) for j in range(P))


def jordan_bound_oracle(A, B, U, N, eps):
    L = 1
    while True:
        if max(A, B) <= (L - 1) / 2 and 4 * (U / math.sqrt(L) + N / L) <= eps:
            return L
        L += 1
