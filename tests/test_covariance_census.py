"""Covariance census: the Heisenberg invariants that the spark search and rectify rest
on, compared by decision, not by bits.

The spark search checks one column subset per translation orbit (the gabor module
docstring).  That is sound because M^a T^b maps G(c)'s columns to phased columns of
G(c), and conjugation, the reflection c_{-p} and a nonzero scale map them alike.  So
spark, generate_window's acceptance (level L clean) and the decoder's certificate
(level 3 clean: two cells at full rank, sparse.recover_unknown_support) must be the
same for c and for T^b c, M^a c, conj(c), c_{-p} and (0.3 - 1.7i) c, whichever
representative of each orbit the table holds.  rectify of a support translated by
whole cells, (q, m) -> (q + a, m + b) mod L, must give the same classes with
translated cells.  The window T^b c probes H with g' = T_{bT} g, and
T_{-bT} H T_{bT} has the same support and the spreading function
eta(t, nu) exp(2 pi i nu b T): the response to g', moved back by bT, is the response of
that operator to g, and the known-support solve with c recovers it to rounding.
Windows and translations are seeded, so every run checks the same decisions.
"""

import numpy as np
import pytest

from opsample import (
    CellSupport,
    ChannelResponse,
    DiscreteSpreadingFunction,
    IdentifierTrain,
    apply_channel,
    presets,
    random_spreading,
    recover_eta_known_support,
    rectify,
    relative_l2_error,
    zak_transform,
)
from opsample.gabor import Window, build_gabor_matrix, generate_window, spark


def _census_windows(L):
    """Up to 14 weight vectors: 4 generate_window draws, 4 draws with ~40% zero weights,
    4 draws rounded to halves, all ones and the cubic chirp exp(2*pi*i*p^3/L); an all-zero
    vector is skipped.  (At L = 6 a spark-6 window reads level 5: ~60 ms per variant.)"""
    rng = np.random.default_rng(1000 + L)
    draws = [generate_window(L, seed=L * 100 + s).weights for s in range(4)]
    free = [rng.uniform(0.5, 1, L) * np.exp(2j * np.pi * rng.uniform(size=L)) for _ in range(8)]
    zeros = [c * (rng.uniform(size=L) >= 0.4) for c in free[:4]]
    halves = [np.round(2 * c) / 2 for c in free[4:]]
    p = np.arange(L)
    windows = draws + zeros + halves + [np.ones(L), np.exp(2j * np.pi * p**3 / L)]
    return [c for c in windows if np.any(c != 0)]


def _variants(c, rng):
    """T^b c, M^a c, conj(c), c_{-p} and (0.3 - 1.7i) c, with a seeded shift b and rate a."""
    L = len(c)
    p = np.arange(L)
    b, a = rng.integers(L, size=2)
    return {
        f"T^{b}": np.roll(c, b),
        f"M^{a}": c * np.exp(2j * np.pi * a * p / L),
        "conj": np.conj(c),
        "reflect": c[-p % L],
        "scale": (0.3 - 1.7j) * c,
    }


def _decisions(c):
    """(spark, level L dependent, level 3 dependent), each read on its own fresh Window."""
    L = len(c)
    return (spark(Window(L, c)), Window(L, c)._dependent_at(L),
            Window(L, c)._dependent_at(3) if L >= 3 else None)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_spark_and_certificate_levels_are_heisenberg_invariant(L):
    rng = np.random.default_rng(L)
    sparks = set()
    for n, c in enumerate(_census_windows(L)):
        want = _decisions(c)
        sparks.add(want[0])
        for name, v in _variants(c, rng).items():
            assert _decisions(v) == want, (L, n, name)
    assert L + 1 in sparks and 2 in sparks  # all ones has spark 2


def _translated(S, a, b):
    """S moved by whole cells: its mask rolled by (a*P, b*P), same grid and shift."""
    P = S.P
    return CellSupport(T=S.T, L=S.L, P=P, mask=np.roll(S.mask, (a * P, b * P), axis=(0, 1)),
                       shift=S.shift)


def _classes(report, L, a=0, b=0):
    """The report's classes as a set of (cells moved by (a, b) mod L, point bytes)."""
    return {(tuple(sorted(((q + a) % L, (m + b) % L) for q, m in cls.cells)),
             cls.points.tobytes()) for cls in report.classes}


_SUPPORTS = {
    "seven": lambda: presets.seven_cell_support(P=8),
    "staircase": lambda: presets.staircase_support(P=4),
    "sheared": lambda: presets.sheared_parallelogram_support(P=8),
    "shifted": lambda: CellSupport(T=1.0, L=3, P=8, cells=((0, 0), (1, 1)), shift=(0.25, 0.0)),
    "shifted_nu": lambda: CellSupport(T=1.0, L=3, P=8, cells=((0, 0), (1, 2)),
                                      shift=(0.25, -0.125)),  # nu0 = -3 dnu
}


@pytest.mark.parametrize("make", list(_SUPPORTS.values()), ids=list(_SUPPORTS))
def test_rectify_of_a_whole_cell_translate_translates_its_classes(make):
    rng = np.random.default_rng(7)
    S = make()
    base = rectify(S)
    for a, b in [tuple(rng.integers(S.L, size=2)) for _ in range(4)] + [(1, 0), (0, 1)]:
        moved = rectify(_translated(S, a, b))
        assert _classes(moved, S.L) == _classes(base, S.L, a, b), (a, b)
        assert sorted(len(cls.index) for cls in moved.classes) == \
            sorted(len(cls.index) for cls in base.classes)
        assert moved.max_cover == base.max_cover
        assert set(moved.gamma) == {((q + a) % S.L, (m + b) % S.L) for q, m in base.gamma}


@pytest.mark.parametrize("make", list(_SUPPORTS.values()), ids=list(_SUPPORTS))
def test_the_solve_under_a_shifted_window_recovers_the_modulated_spreading_function(make):
    S = make()
    L, P = S.L, S.P
    eta = random_spreading(S, seed=3)
    window = generate_window(L, seed=5)
    G = build_gabor_matrix(window)
    nu_steps = S.offsets[1] + np.arange(eta.values.shape[1])  # nu = nu_steps * dnu, dnu*T = 1/(L*P)
    for b in range(2 * L):  # b = L moves g by its period L*T: the same window, a new phase
        shifted = IdentifierTrain(T=S.T, weights=Window(L, np.roll(window.weights, b)))
        response = apply_channel(eta, shifted)
        back = ChannelResponse(samples=np.roll(response.samples, -b * P), T=S.T, L=L, P=P)  # bT
        phase = np.exp(2j * np.pi * (nu_steps * b % (L * P)) / (L * P))  # exp(2 pi i nu b T)
        modulated = DiscreteSpreadingFunction(support=S, values=eta.values * phase)
        want = apply_channel(modulated, IdentifierTrain(T=S.T, weights=window)).samples
        assert np.abs(back.samples - want).max() <= 1e-13 * np.abs(want).max(), b
        got = recover_eta_known_support(zak_transform(back), G, S).eta_hat
        assert relative_l2_error(got, modulated) < 1e-13, b
        G_b = build_gabor_matrix(shifted.weights)  # the shifted window's own solve returns eta
        own = recover_eta_known_support(zak_transform(response), G_b, S).eta_hat
        assert relative_l2_error(own, eta) < 1e-13, b
