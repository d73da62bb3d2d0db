"""Random identifiable supports as the exactness guard of the known-support paths.

Every valid draw is identifiable by construction: each base point (u, v)
carries at most L of the L*L cells, so the (L*P)^2 fold covers nothing twice
and the base rectangle at most L times.  A draw may be shifted on the grid,
or spread over lattice translates (stored subcells moved by multiples of
L*P along either axis), which leaves both folds unchanged.  Each draw is
checked against the oracles and the system identity; the blocky presets of
the other test files never reach most of these masks.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opsample import (
    CellSupport,
    IdentifierTrain,
    InvalidOverlap,
    InvalidParameters,
    NotIdentifiable,
    apply_channel,
    assemble_system,
    build_gabor_matrix,
    check_identifiable,
    cli,
    formats,
    generate_window,
    impulse_response,
    quasiperiodize,
    random_spreading,
    rectify,
    relative_l2_error,
    zak_transform,
)
from opsample.reconstruct import (
    reconstruct_h_sharp,
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    smooth_windows,
)

from oracles import rectify_oracle

GUARD = settings(derandomize=True, database=None, deadline=None)
GRIDS = dict(
    L=st.integers(2, 5),
    P=st.integers(1, 6),
    T=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)


@functools.lru_cache(maxsize=None)
def _window(L):
    return generate_window(L, seed=1000 + L)  # full spark: any L cells are independent


def _pattern(rng, L, P):
    """(L*P, L*P) mask with at most L occupied cells over every base point."""
    mask = np.zeros((L * P, L * P), dtype=bool)
    for u in range(P):
        for v in range(P):
            for c in rng.choice(L * L, size=rng.integers(0, L + 1), replace=False):
                mask[u + c // L * P, v + c % L * P] = True
    mask[0, 0] |= not mask.any()  # never empty
    return mask


def _translates(rng, mask, reps):
    """Move each stored subcell by a random lattice translate: a wider mask, the same folds."""
    LP = mask.shape[0]
    out = np.zeros((reps[0] * LP, reps[1] * LP), dtype=bool)
    i, j = np.nonzero(mask)
    k, l = rng.integers(0, reps[0], i.size), rng.integers(0, reps[1], j.size)
    out[i + k * LP, j + l * LP] = True
    return out


def _simulate(S, seed, chirp_a=0.0):
    eta = random_spreading(S, seed=seed)
    g = IdentifierTrain(T=S.T, weights=_window(S.L), chirp_a=chirp_a)
    return eta, zak_transform(apply_channel(eta, g))


@settings(GUARD, max_examples=100)
@given(**GRIDS, shifted=st.booleans(), reps=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_random_support_round_trip(L, P, T, seed, shifted, reps):
    rng = np.random.default_rng(seed)
    mask = _translates(rng, _pattern(rng, L, P), reps)
    i0, j0 = rng.integers(-2 * L * P, 2 * L * P, 2) if shifted else (0, 0)
    S = CellSupport(T=T, L=L, P=P, mask=mask, shift=(i0 * T / P, j0 / (L * T * P)))
    assert check_identifiable(S)

    got = [(cls.cells, cls.points) for cls in rectify(S).classes]
    want = rectify_oracle(S.mask, S.offsets, L, P)
    assert [cells for cells, _ in got] == [cells for cells, _ in want]
    for (_, points), (_, expected) in zip(got, want):
        np.testing.assert_array_equal(points, expected)

    eta, Z = _simulate(S, seed)
    G = build_gabor_matrix(_window(L))
    u, v = np.indices((P, P))
    assert assemble_system(quasiperiodize(eta), Z, G, u, v, T).residual(G) <= 1e-12

    report = recover_eta_known_support(Z, G, S)
    assert relative_l2_error(report.eta_hat, eta) <= 1e-12

    h = reconstruct_h_sharp(report)
    xs = np.arange(L * P * P) * S.dt
    scale = S.dnu * np.abs(eta.values).sum(axis=1).max()
    for r in range(h.shape[0]):
        want_row = impulse_response(eta, xs, (S.offsets[0] + r) * S.dt)
        np.testing.assert_allclose(h[r], want_row, rtol=0, atol=1e-12 * scale)

    admissible = []
    for eps in [k * step for k in range(1, P) for step in (S.dt, S.dnu)]:
        with contextlib.suppress(InvalidParameters, InvalidOverlap):  # keep admissible eps
            smooth_windows(T, S.omega, eps, P)
            admissible.append(eps)
    for eps in admissible:  # every admissible smooth window gives the sharp bits
        smooth = recover_eta_smooth(Z, G, S, eps)
        np.testing.assert_array_equal(smooth.eta_hat.values, report.eta_hat.values)


@settings(GUARD, max_examples=30)
@given(**GRIDS, translate=st.booleans())
def test_non_identifiable_support_is_refused(L, P, T, seed, translate):
    rng = np.random.default_rng(seed)
    mask = _pattern(rng, L, P)
    i, j = np.nonzero(mask)
    if translate:  # one subcell stored twice, a superperiod apart: the fold covers it twice
        mask = np.vstack([mask, np.zeros_like(mask)])
        mask[i[-1] + L * P, j[-1]] = True
    else:  # L + 1 cells over one base point
        u, v = rng.integers(0, P, 2)
        cells = rng.choice(L * L, size=L + 1, replace=False)
        mask[u + cells // L * P, v + cells % L * P] = True
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    G = build_gabor_matrix(_window(L))
    with pytest.raises(NotIdentifiable):
        recover_eta_known_support(np.zeros((L * P, P)), G, S)


@settings(GUARD, max_examples=40)
@given(**GRIDS, kappa=st.integers(-3, 3), e=st.integers(0, 14))
def test_chirped_sheared_round_trip(L, P, T, seed, kappa, e):
    # a sheared band mask[i, j] = base[i, (j - kappa*i) mod L*P] straightens
    # under the chirp kappa = L*T*a; kappa + m*2*L*P^2 gives the same bits
    if kappa * L % 2 and P % 2:
        kappa += 1  # an odd kappa*L needs even P
    rng = np.random.default_rng(seed)
    LP = L * P
    i = np.arange(LP)[:, None]
    mask = _pattern(rng, L, P)[i, (np.arange(LP) - kappa * i) % LP]
    S = CellSupport(T=T, L=L, P=P, mask=mask)
    G = build_gabor_matrix(_window(L))

    def recover(k):
        a = k / (L * T)
        eta, Z = _simulate(S, seed, chirp_a=a)
        return eta, recover_symplectic(Z, G, S, a)

    eta, report = recover(kappa)
    assert relative_l2_error(report.eta_hat, eta) <= 1e-12

    period = 2 * L * P * P
    m = min(10**e, 2**50 // period)  # kappa below 2**50: L*T*a can be an exact integer
    while L * T * ((kappa + m * period) / (L * T)) != kappa + m * period:
        m -= 1
    _, big = recover(kappa + m * period)
    np.testing.assert_array_equal(big.eta_hat.values, report.eta_hat.values)


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return dict(line.split("=", 1) for line in out.getvalue().splitlines())


@settings(GUARD, max_examples=20)
@given(**GRIDS, shifted=st.booleans())
def test_random_support_through_cli(L, P, T, seed, shifted):
    # irregular masks exercise save_support's run-length encoding end to end
    rng = np.random.default_rng(seed)
    i0, j0 = rng.integers(-2 * L * P, 2 * L * P, 2) if shifted else (0, 0)
    S = CellSupport(T=T, L=L, P=P, mask=_pattern(rng, L, P), shift=(i0 * T / P, j0 / (L * T * P)))
    with tempfile.TemporaryDirectory() as d:
        s, w, z, e = (str(Path(d) / name) for name in ("s.json", "w.json", "z.csv", "e.csv"))
        formats.save_support(S, s)
        formats.save_window(_window(L), w)
        np.testing.assert_array_equal(formats.load_support(s).mask, S.mask)
        _cli("simulate", "--support", s, "--window", w, "--seed", str(seed),
             "--zak-out", z, "--eta-out", e)
        out = _cli("identify", "--zak", z, "--window", w, "--support", s, "--eta-true", e)
    assert float(out["relative_l2_error"]) <= 1e-12
