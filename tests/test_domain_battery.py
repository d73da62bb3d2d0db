"""Seeded domain battery over every numeric argument of the library and of the CLI.

The argument contract of README ("Arguments"): a number of an accepted type outside
its domain raises a named OpSampleError, never a bare TypeError, a numpy warning or
a traceback.  TOKENS are fed in turn, in-process with warnings raised as errors:

- library: to every numeric parameter of every public callable of presets and of the
  modules whose __all__ makes the package namespace, read off inspect.signature, so a
  new public parameter fails the census until it is classified here.  A pair of numbers (a cell
  label pair, a shift) gets each token in each place.  A call returns or raises an
  OpSampleError.  Parameters that take a package object (a Window, a CellSupport, ...)
  or a name get no tokens, and records (outputs the package builds) are not called;
- CLI: to every numeric flag of every command through cli.main.  Exits are 0, 2, 3 or
  4 (argparse refuses a value its type cannot parse with its own exit 2, before any
  command runs), no other exception escapes, and a refused command writes nothing
  (recover-support's --report-out on exit 3 excepted).

The named cases below each pin one out-of-domain value that used to escape.  Seeds
and tokens are fixed, so every run checks the same calls.
"""

import contextlib
import inspect
import io
import math
import warnings

import numpy as np
import pytest

from opsample import channel, cli, formats, gabor, presets, rates, reconstruct, sparse, support
from opsample.channel import (
    ChannelResponse,
    IdentifierTrain,
    apply_channel,
    random_spreading,
    zak_transform,
)
from opsample.errors import GridMismatch, InvalidParameters, OpSampleError
from opsample.gabor import Window, generate_window
from opsample.support import CellSupport

#: out-of-domain and edge values: non-finite, negative, zero and -0, fractional, huge,
#: past int64, and the wrong kinds of number (bool, complex, None)
TOKENS = [math.nan, math.inf, -1, 0, -0.0, 1.5, 1e300, 2**63, True, 1 + 1j, None]
MODULES = (gabor, support, channel, reconstruct, sparse, rates, presets)
#: outputs the package builds from checked values; they check nothing themselves
RECORDS = {"PartitionClass", "RectificationReport", "SystemSample", "LeftInverse",
           "ReconstructionReport", "SmoothWindows", "SupportEstimate", "RateReport"}
#: parameters that hold a pair of numbers, and those that hold a list of cell label pairs
PAIRS = {("CellSupport", "shift")}
LABELS = {("CellSupport", "cells"), ("left_inverse", "gamma"), ("mmv_omp", "candidates")}


def _quiet(call):
    """call() with warnings raised as errors: its result, or the exception it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except Exception as exc:
            return exc


@pytest.fixture(scope="module")
def world():
    """Small valid inputs: L = 3 at P = 8 (plain, chirped band) and L = 5 at P = 4."""
    S = presets.staircase_support(P=8)
    band = presets.sheared_parallelogram_support(P=8)
    G, G5 = generate_window(3, seed=235), generate_window(5, seed=235)
    eta = random_spreading(S, seed=1)
    g = IdentifierTrain(T=1.0, weights=G)
    response = apply_channel(eta, g)
    Z = zak_transform(response)
    chirped = IdentifierTrain(T=1.0, weights=G, chirp_a=1 / 3)
    Zb = zak_transform(apply_channel(random_spreading(band, seed=2), chirped))
    S5 = CellSupport(T=1.0, L=5, P=4, cells=[(1, 3), (4, 0)])
    R5 = CellSupport(T=1.0, L=5, P=4, cells=[(q, m) for q in range(5) for m in range(5)])
    Z5 = zak_transform(apply_channel(random_spreading(S5, seed=5), IdentifierTrain(1.0, G5)))
    small = np.zeros((12, 12), dtype=bool)
    small[0:2, 0:3] = True
    return dict(S=S, band=band, G=G, G5=G5, eta=eta, g=g, response=response, Z=Z, Zb=Zb,
                R5=R5, Z5=Z5, small=CellSupport(T=1.0, L=3, P=4, mask=small))


def _calls(w):
    """Public callable -> (valid keyword arguments, the parameters that take no number)."""
    S, G, eta, Z = w["S"], w["G"], w["eta"], w["Z"]
    report = reconstruct.recover_eta_known_support(Z, G, S)
    return {
        "Window": (dict(L=3, weights=[1.0, 2.0, 3.0], seed=None, draws=None), set()),
        "build_gabor_matrix": (dict(window=[1.0, 2.0, 3.0]), set()),
        "spark": (dict(G=G), {"G"}),
        "generate_window": (dict(L=3, target="full_spark", k=None, seed=1), {"target"}),
        "CellSupport": (dict(T=1.0, L=3, P=4, cells=[(0, 0)], mask=None, shift=(0.0, 0.0)),
                        set()),
        "periodization_count": (dict(S=S), {"S"}),
        "check_identifiable": (dict(S=S), {"S"}),
        "rectify": (dict(S=S), {"S"}),
        "bandwidth": (dict(S=S), {"S"}),
        "DiscreteSpreadingFunction": (dict(support=S, values=eta.values), {"support"}),
        "IdentifierTrain": (dict(T=1.0, weights=G, chirp_a=0.0), {"weights"}),
        "ChannelResponse": (dict(samples=w["response"].samples, T=1.0, L=3, P=8), set()),
        "random_spreading": (dict(S=S, seed=1), {"S"}),
        "relative_l2_error": (dict(estimate=eta, truth=eta), {"estimate", "truth"}),
        "impulse_response": (dict(eta=eta, x=0.25, t=0.125), {"eta"}),
        "apply_channel": (dict(eta=eta, g=w["g"]), {"eta", "g"}),
        "zak_transform": (dict(f=w["response"]), {"f"}),
        "inverse_zak": (dict(Z=Z, T=1.0, L=3, P=8), set()),
        "quasiperiodize": (dict(eta=eta), {"eta"}),
        "assemble_system": (dict(eta_qp=channel.quasiperiodize(eta), Zgrid=Z, G=G, t=1, nu=2,
                                 T=1.0), {"G"}),
        "left_inverse": (dict(G=G, gamma=[(0, 0)], omega=1 / 3), {"G"}),
        "recover_eta_known_support": (dict(Zgrid=Z, G=G, S=S), {"G", "S"}),
        "reconstruct_h_sharp": (dict(report=report), {"report"}),
        "smooth_windows": (dict(T=1.0, Omega=1 / 3, eps=0.125, P=8), set()),
        "recover_eta_smooth": (dict(Zgrid=Z, G=G, S=S, eps=0.125), {"G", "S"}),
        "recover_symplectic": (dict(Zgrid=w["Zb"], G=G, S=w["band"], a=1 / 3), {"G", "S"}),
        "mmv_omp": (dict(Y=channel._zak_vectors(w["Z5"], 5, 4), G=w["G5"], k_max=2, tol=1e-10,
                         candidates=w["R5"].cells), {"G"}),
        "recover_unknown_support": (dict(Zgrid=w["Z5"], G=w["G5"], R=w["R5"], k_max=2,
                                         tol=1e-10, seed=None), {"G", "R"}),
        "rate_report": (dict(g=w["g"], S=S, eps=0.1), {"g", "S"}),
        "refine_support": (dict(S=S, L_new=5), {"S"}),
        "bunched_window_plan": (dict(S=w["small"], eps=1.5, seed=4), {"S"}),
        "staircase_support": (dict(T=1.0, P=4), set()),
        "seven_cell_support": (dict(T=1.0, P=4), set()),
        "sheared_parallelogram_support": (dict(T=1.0, P=4, shear=1), set()),
        "stacked_cover_violation": (dict(L=3, T=1.0, P=4), set()),
        "translate_collision_support": (dict(L=3, T=1.0, P=4), set()),
    }


def _values(name, param, base):
    """Each token for a numeric parameter; each token in each place of a pair, and of the
    first pair of a label list."""
    placed = [lambda p, t: (t, p[1]), lambda p, t: (p[0], t)]
    if (name, param) in PAIRS:
        return [place(base, token) for place in placed for token in TOKENS]
    if (name, param) in LABELS:
        return [[place(base[0], token), *base[1:]] for place in placed for token in TOKENS]
    return TOKENS


def test_library_numeric_parameters_refuse_out_of_domain_values(world):
    calls = _calls(world)
    public = {name: getattr(module, name) for module in MODULES for name in module.__all__}
    errors = [name for name in public if isinstance(public[name], type)
              and issubclass(public[name], Exception)]
    assert set(public) == set(calls) | RECORDS | set(errors)  # every public callable classified
    failures = []
    for name, (base, objects) in calls.items():
        f = public[name]
        assert set(base) == set(inspect.signature(f).parameters), name  # every parameter
        assert not isinstance(_quiet(lambda: f(**base)), Exception), name  # a valid base call
        for param in set(base) - objects:
            for value in _values(name, param, base[param]):
                got = _quiet(lambda: f(**{**base, param: value}))
                if isinstance(got, Exception) and not isinstance(got, OpSampleError):
                    failures.append(f"{name}({param}={value!r}): {got!r}")
    assert failures == [], failures[:10]


# -- CLI ------------------------------------------------------------------------------

#: the value each numeric flag's token replaces
TOKEN = object()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files: windows at L = 3 and 5, supports, and the Zak grids of each mode."""
    d = tmp_path_factory.mktemp("domain")
    f = {name: str(d / name) for name in (
        "w3.json", "w5.json", "stairs.json", "band.json", "two5.json", "small.json",
        "zak.csv", "zak_band.csv", "zak5.csv")}
    small = np.zeros((12, 12), dtype=bool)
    small[0:2, 0:3] = True
    for name, S in (("stairs.json", presets.staircase_support(P=8)),
                    ("band.json", presets.sheared_parallelogram_support(P=4)),
                    ("two5.json", CellSupport(T=1.0, L=5, P=4, cells=[(1, 3), (4, 0)])),
                    ("small.json", CellSupport(T=1.0, L=3, P=4, mask=small))):
        formats.save_support(S, f[name])
    for argv in (
        ["gen-window", "--L", "3", "--seed", "235", "--out", f["w3.json"]],
        ["gen-window", "--L", "5", "--seed", "235", "--out", f["w5.json"]],
        ["simulate", "--support", f["stairs.json"], "--window", f["w3.json"], "--seed", "1",
         "--zak-out", f["zak.csv"]],
        ["simulate", "--support", f["band.json"], "--window", f["w3.json"], "--seed", "2",
         "--chirp-a", "0.3333333333333333", "--zak-out", f["zak_band.csv"]],
        ["simulate", "--support", f["two5.json"], "--window", f["w5.json"], "--seed", "5",
         "--zak-out", f["zak5.csv"]],
    ):
        assert _main(argv) == (0, None), argv
    return d, f


def _main(argv):
    """(exit code, escaped exception) of cli.main under warnings-as-errors, output muted;
    argparse's own refusal (SystemExit 2) is that exit code."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return (2, None) if exc.code == 2 else (None, exc)
        except Exception as exc:
            return None, exc


def _cli_cases(f, out):
    """(argv with TOKEN at one numeric flag, the valid value it stands for)."""
    w3, w5, stairs, small = f["w3.json"], f["w5.json"], f["stairs.json"], f["small.json"]
    recover = ["recover-support", "--zak", f["zak5.csv"], "--window", w5,
               "--eta-out", out("eta.csv"), "--report-out", out("report.json")]
    plan = ["rates", "--support", small, "--plan", "--window-out", out("w.json"),
            "--report-out", out("report.json")]
    verify = ["verify", "--support", stairs, "--window", w3]
    return [
        (["gen-window", "--L", TOKEN, "--seed", "1", "--out", out("w.json")], "3"),
        (["gen-window", "--L", "5", "--target", "spark_k", "--k", TOKEN, "--seed", "1",
          "--out", out("w.json")], "2"),
        (["gen-window", "--L", "3", "--seed", TOKEN, "--out", out("w.json")], "1"),
        (["simulate", "--support", stairs, "--window", w3, "--seed", TOKEN,
          "--zak-out", out("z.csv"), "--eta-out", out("eta.csv")], "1"),
        (["simulate", "--support", f["band.json"], "--window", w3, "--seed", "2",
          "--chirp-a", TOKEN, "--zak-out", out("z.csv")], "0.3333333333333333"),
        (["identify", "--zak", f["zak.csv"], "--window", w3, "--support", stairs, "--smooth",
          "--eps", TOKEN, "--eta-out", out("eta.csv"), "--report-out", out("report.json")],
         "0.125"),
        (["identify", "--zak", f["zak_band.csv"], "--window", w3, "--support", f["band.json"],
          "--symplectic", TOKEN, "--eta-out", out("eta.csv")], "0.3333333333333333"),
        ([*recover, "--kmax", TOKEN], "2"),
        ([*recover, "--kmax", "2", "--tol", TOKEN], "1e-10"),
        (["rates", "--support", stairs, "--window", w3, "--eps", TOKEN,
          "--report-out", out("report.json")], "0.1"),
        ([*plan, "--eps", TOKEN, "--seed", "4"], "1.5"),
        ([*plan, "--eps", "1.5", "--seed", TOKEN], "4"),
        ([*verify, "--seed", TOKEN], "1"),
        ([*verify, "--seed", "1", "--tol", TOKEN], "1e-9"),
    ]


def _numeric_flags():
    """(command, flag) of every option of the parser that parses a number."""
    subparsers = next(a for a in cli.build_parser()._actions if a.choices)
    return {(command, action.option_strings[0]) for command, p in subparsers.choices.items()
            for action in p._actions if action.type in (int, float)}


def test_every_numeric_flag_refuses_out_of_domain_values(files):
    d, f = files
    out_dir = d / "out"
    out_dir.mkdir()
    cases = _cli_cases(f, lambda name: str(out_dir / name))
    covered = {(argv[0], argv[argv.index(TOKEN) - 1]) for argv, _ in cases}
    assert covered == _numeric_flags()  # a new numeric flag needs a case here
    failures = []
    for argv, valid in cases:
        for token in [valid, *map(str, TOKENS)]:
            for stale in out_dir.iterdir():
                stale.unlink()
            run = [token if a is TOKEN else a for a in argv]
            code, exc = _main(run)
            written = {p.name for p in out_dir.iterdir()}
            allowed = {"report.json"} if (run[0], code) == ("recover-support", 3) else set()
            if exc is not None or code not in (0, 2, 3, 4):
                failures.append(f"{run}: exit {code}, escaped {exc!r}")
            elif token == valid and code != 0:
                failures.append(f"{run}: the valid value exits {code}")
            elif code != 0 and not written <= allowed:
                failures.append(f"{run}: exit {code} wrote {sorted(written - allowed)}")
    assert failures == [], failures[:10]


def test_recover_support_tol_of_one_or_more_exits_2(files, capsys):
    # tol >= 1 passed every comparison, left the residual history empty and escaped as an
    # IndexError traceback (exit 1): a relative residual <= 1 proves nothing
    d, f = files
    out = d / "tol"
    out.mkdir()
    for tol in ("1", "1.5", "257", "1e300"):
        code = cli.main(["recover-support", "--zak", f["zak5.csv"], "--window", f["w5.json"],
                         "--kmax", "2", "--tol", tol, "--eta-out", str(out / "eta.csv"),
                         "--report-out", str(out / "report.json")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (tol, err)
        assert list(out.iterdir()) == []
    code = cli.main(["verify", "--support", f["stairs.json"], "--window", f["w3.json"],
                     "--seed", "1", "--tol", "1"])
    assert code == 2 and capsys.readouterr().err.startswith("error: tol must lie in [0, 1)")


# -- named cases: each value escaped as a bare exception or a warning, or was accepted ----

@pytest.mark.filterwarnings("error")
def test_tol_at_or_above_one_is_refused(world):
    for tol in (1.0, True, 1.5, 1e300):
        with pytest.raises(InvalidParameters):
            sparse.recover_unknown_support(world["Z5"], world["G5"], world["R5"], 2, tol)
        with pytest.raises(InvalidParameters):
            gabor._check_tol(tol)
    for tol in (0.0, -0.0, 0.5):
        gabor._check_tol(tol)


def test_smooth_windows_refuses_an_infinite_P():
    # T/P = 0 made eps/(T/P) a ZeroDivisionError
    with pytest.raises(InvalidParameters):
        reconstruct.smooth_windows(1.0, 1 / 3, 0.01, math.inf)


@pytest.mark.filterwarnings("error")
def test_impulse_response_refuses_a_huge_or_complex_t(world):
    # 2**63 steps overflowed numpy's int cast (RuntimeWarning); 1+1j lost its imaginary part
    with pytest.raises(GridMismatch):
        channel.impulse_response(world["eta"], 0.0, 2**63)
    with pytest.raises(InvalidParameters):
        channel.impulse_response(world["eta"], 0.0, 1 + 1j)


def test_cell_labels_must_be_integers():
    # a float label reached a slice and raised a bare TypeError
    for label in (1.5, -0.0):
        with pytest.raises(InvalidParameters, match="a cell label must be an integer"):
            CellSupport(T=1.0, L=3, P=4, cells=[(label, 0)])


def test_shift_past_2_to_the_53_steps_is_refused():
    # 2**63 grid steps overflowed the int64 offsets (OverflowError)
    with pytest.raises(InvalidParameters, match="under 2\\^53"):
        CellSupport(T=1.0, L=3, P=4, cells=[(0, 0)], shift=(2**63, 0))


def test_relative_l2_error_checks_its_estimate(world):
    # a float estimate raised AttributeError: only the truth's type was checked
    with pytest.raises(InvalidParameters, match="estimate must be a DiscreteSpreadingFunction"):
        channel.relative_l2_error(1.0, world["eta"])


def test_bool_omega_and_complex_eps_are_not_reals(world):
    # both were accepted: omega = True scaled by 1/1, eps = 1j gave a complex margin
    with pytest.raises(InvalidParameters):
        reconstruct.left_inverse(world["G"], [(0, 0)], omega=True)
    with pytest.raises(InvalidParameters):
        rates.rate_report(world["g"], world["S"], eps=1j)


@pytest.mark.filterwarnings("error")
def test_a_numpy_integer_P_is_kept_as_an_int():
    # L*P of a Python int and a numpy uint8 overflowed in uint8 (RuntimeWarning)
    S = CellSupport(T=1.0, L=2, P=np.uint8(200), cells=[(0, 0)])
    assert (type(S.T), type(S.L), type(S.P), S.mask.shape) == (float, int, int, (400, 400))
    R = ChannelResponse(np.zeros(2 * 200**2), T=1, L=np.int8(2), P=np.uint8(200))
    assert (type(R.T), type(R.L), type(R.P)) == (float, int, int)


@pytest.mark.filterwarnings("error")
def test_a_numpy_integer_L_window_builds_its_gabor_matrix():
    # L*L of a numpy uint8 L = 16 overflowed while G(c) was built (RuntimeWarning)
    window = Window(np.uint8(16), np.ones(16), seed=np.uint32(7), draws=np.int8(2))
    assert window.entries.shape == (16, 256)
    assert [type(x) for x in (window.L, window.seed, window.draws)] == [int, int, int]


def test_an_int_T_whose_grid_steps_underflow_is_refused_by_name():
    # 1.0 / (T*L) of an int T*L past the float range raised a bare OverflowError
    with pytest.raises(InvalidParameters, match="Omega"):
        CellSupport(T=10**308, L=3, P=4, cells=[(0, 0)])


def test_an_identifier_train_with_an_infinite_period_is_refused_by_name():
    # L*T = inf made kappa = inf*0 = NaN, refused as a misleading NonIntegerChirpPeriod
    for T in (1e308, 10**308):
        with pytest.raises(InvalidParameters, match="the period L\\*T must be finite"):
            IdentifierTrain(T=T, weights=Window(3, np.ones(3)))


@pytest.mark.filterwarnings("error")
def test_presets_check_their_numbers_before_they_build_a_mask():
    # a bare TypeError, an OverflowError and a ValueError (maximum dimension exceeded)
    for shear in (None, 1e300):
        with pytest.raises(InvalidParameters, match="shear"):
            presets.sheared_parallelogram_support(shear=shear)
    with pytest.raises(InvalidParameters, match="L"):
        presets.stacked_cover_violation(L=2**63)
    with pytest.raises(InvalidParameters, match="L"):
        presets.translate_collision_support(L=2**63)
    integral = presets.sheared_parallelogram_support(P=4, shear=2.0)  # a float that is an int
    assert np.array_equal(integral.mask, presets.sheared_parallelogram_support(P=4, shear=2).mask)


# -- a Window checks its own seed -----------------------------------------------------

def test_every_accepted_window_seed_round_trips_and_bad_seeds_are_refused(tmp_path):
    path = str(tmp_path / "w.json")
    for seed in [*TOKENS, 5, np.uint32(7), "x"]:
        try:
            window = Window(3, [1.0, 2.0, 3.0], seed=seed)
        except InvalidParameters:
            continue
        formats.save_window(window, path)
        assert formats.load_window(path).seed == seed, seed
    for seed in (-5, 1.5, "x"):
        with pytest.raises(InvalidParameters, match="seed must be an integer >= 0"):
            Window(3, [1.0, 2.0, 3.0], seed=seed)
    for draws in (0, 1.5, True):
        with pytest.raises(InvalidParameters, match="draws must be an integer >= 1"):
            Window(3, [1.0, 2.0, 3.0], draws=draws)
