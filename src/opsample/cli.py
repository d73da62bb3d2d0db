"""Command-line front end: scriptable experiments over stable file formats.

Every command that draws at random (gen-window, simulate without --eta,
rates --plan, verify) requires --seed, a non-negative integer; no environment
variable stands in for it.  Re-running a command at a fixed BLAS thread count
gives byte-identical output files.  Across thread counts, recover-support's
residual can move in its last bits: sparse.mmv_omp takes np.linalg.qr of the
(P^2, L) Z-vector matrix.  Exit codes: 0 success, 2 precondition or usage
error, 3 numerical failure (floating-point overflow included), 4 I/O failure or
a malformed input file (errors.MalformedFile).  Results print through one rule,
_show: key=value lines, floats at 17 significant digits so values survive a
copy-paste round trip.  A --report-out file holds the record behind the printed
lines.  The library's recoveries take no ground truth: identify,
recover-support and verify score against one here, via relative_l2_error.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import formats
from .channel import (
    IdentifierTrain,
    _l2_norm,
    apply_channel,
    assemble_system,
    quasiperiodize,
    random_spreading,
    relative_l2_error,
    zak_transform,
)
from .errors import (
    GenerationFailed,
    GridMismatch,
    MalformedFile,
    NoConvergence,
    OpSampleError,
    RankDeficient,
)
from .formats import _fmt
from .gabor import _check_tol, generate_window, spark
from .rates import bunched_window_plan, rate_report
from .reconstruct import (
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
)
from .sparse import recover_unknown_support
from .support import CellSupport, bandwidth, rectify

NUMERICAL_ERRORS = (RankDeficient, NoConvergence, GenerationFailed)


class _UsageError(Exception):
    """A command-line precondition that argparse does not express."""


def _require_zak_T(T, S):
    """The Zak header's T must be the support's (the grid shape pins L and P)."""
    if T != S.T:
        raise GridMismatch(f"the Zak grid has T = {_fmt(T)}, the support T = {_fmt(S.T)}")


def _require(condition, message):
    if not condition:
        raise _UsageError(message)


def _show(**fields):
    """Print key=value lines: floats via _fmt, strings as is, else JSON; skip None."""
    for key, value in fields.items():
        if isinstance(value, float):
            print(f"{key}={_fmt(value)}")
        elif value is not None:
            print(f"{key}={value if isinstance(value, str) else json.dumps(value)}")


def cmd_gen_window(args):
    _require(args.seed is not None, "gen-window draws its window: --seed is required")
    target = {"full": "full_spark", "spark_k": "spark_k"}[args.target]
    _require(args.k is None or target == "spark_k", "--k applies only to --target spark_k")
    window = generate_window(args.L, target=target, k=args.k, seed=args.seed)
    _show(spark=args.L + 1 if target == "full_spark" else args.k + 1)  # certified by the draw
    if args.out:
        formats.save_window(window, args.out)
    return 0


def cmd_spark(args):
    G = formats.load_window(args.window)
    _show(spark=spark(G))
    if args.matrix_out:
        formats.export_gabor_matrix(G, args.matrix_out)
    return 0


def cmd_rectify(args):
    S = formats.load_support(args.support)
    report = rectify(S)
    record = {
        "identifiable": True,
        "classes": [[list(c) for c in cls.cells] for cls in report.classes],
        "max_cover": int(report.max_cover),
        "bandwidth": bandwidth(S),
        "gamma": [list(c) for c in report.gamma],
    }
    _show(**{**record, "classes": len(report.classes)})
    if args.report_out:
        formats.save_json(record, args.report_out)
    return 0


def cmd_simulate(args):
    if args.eta:
        _require(args.support is None and args.seed is None, "--eta takes no --support or --seed")
        eta = formats.load_spreading(args.eta)
        S = eta.support
    else:
        _require(args.support, "--eta or --support is required")
        _require(args.seed is not None, "need --eta, or --seed to draw one")
        S = formats.load_support(args.support)
        eta = random_spreading(S, seed=args.seed)
    window = formats.load_window(args.window)
    g = IdentifierTrain(T=S.T, weights=window, chirp_a=args.chirp_a)
    response = apply_channel(eta, g)
    Z = zak_transform(response)
    if args.eta_out:
        formats.save_spreading(eta, args.eta_out)
    if args.response_out:
        formats.save_response(response, args.response_out)
    if args.zak_out:
        formats.save_zak(Z, S.T, S.L, S.P, args.zak_out)
    _show(response_l2=_l2_norm(response.samples))
    return 0


def cmd_identify(args):
    _require(not (args.smooth and args.symplectic is not None), "--smooth excludes --symplectic")
    _require(args.smooth == (args.eps is not None), "--smooth requires --eps, which only it reads")
    Z, T, _, _ = formats.load_zak(args.zak)
    G = formats.load_window(args.window)
    eta_true = formats.load_spreading(args.eta_true) if args.eta_true else None
    S = formats.load_support(args.support)
    _require_zak_T(T, S)
    if args.smooth:
        report = recover_eta_smooth(Z, G, S, args.eps)
    elif args.symplectic is not None:
        report = recover_symplectic(Z, G, S, args.symplectic)
    else:
        report = recover_eta_known_support(Z, G, S)

    gamma = [list(c) for c in report.eta_hat.support.cells]
    error = relative_l2_error(report.eta_hat, eta_true) if eta_true else None
    record = {"formula": report.formula, "gamma": gamma, "relative_l2_error": error}
    _show(**record)
    if args.eta_out:
        formats.save_spreading(report.eta_hat, args.eta_out)
    if args.report_out:
        record["per_class_conditioning"] = report.per_class_conditioning
        formats.save_json(record, args.report_out)
    return 0


def cmd_recover_support(args):
    Z, T, L, P = formats.load_zak(args.zak)
    G = formats.load_window(args.window)
    if args.domain:
        R = formats.load_support(args.domain)
        _require_zak_T(T, R)
    else:
        R = CellSupport(T=T, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    eta_true = formats.load_spreading(args.eta_true) if args.eta_true else None
    try:
        report = recover_unknown_support(Z, G, R, k_max=args.kmax, tol=args.tol)
        failure, estimate = None, report.support_estimate
        error = relative_l2_error(report.eta_hat, eta_true) if eta_true else None
    except NoConvergence as exc:  # the estimate is still reported
        failure, estimate = exc, exc.estimate
    exact = set(estimate.gamma_hat) == set(eta_true.support.cells) if eta_true else None
    record = {"gamma_hat": estimate.gamma_hat, "residual_history": estimate.residual_history,
              "exact_match": exact, "k_max": estimate.k_max, "tol": estimate.tol}
    _show(gamma_hat=record["gamma_hat"], residual=record["residual_history"][-1])
    if args.report_out:
        formats.save_json(record, args.report_out)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    _show(relative_l2_error=error)
    if args.eta_out:
        formats.save_spreading(report.eta_hat, args.eta_out)
    return 0


def cmd_rates(args):
    S = formats.load_support(args.support)
    if args.plan:
        _require(args.eps is not None, "--plan requires --eps")
        _require(args.window is None, "--plan draws its own window and takes no --window")
        _require(args.seed is not None, "--plan draws its window: --seed is required")
        window, report = bunched_window_plan(S, args.eps, seed=args.seed)
        _show(L=window.L, support_count=window.support_size())
        if args.window_out:
            formats.save_window(window, args.window_out)
    else:
        _require(args.window, "rates without --plan requires --window")
        _require(args.seed is None and args.window_out is None, "--seed, --window-out need --plan")
        window = formats.load_window(args.window)
        report = rate_report(IdentifierTrain(T=S.T, weights=window), S, eps=args.eps)
    record = dataclasses.asdict(report)
    _show(**record)
    if args.report_out:
        formats.save_json(record, args.report_out)
    return 0


def cmd_verify(args):
    _require(args.seed is not None, "verify draws its eta: --seed is required")
    _check_tol(args.tol)
    S = formats.load_support(args.support)
    G = formats.load_window(args.window)
    eta = random_spreading(S, seed=args.seed)
    response = apply_channel(eta, IdentifierTrain(T=S.T, weights=G))
    Z = zak_transform(response)

    t, nu = np.indices((S.P, S.P))
    residual = assemble_system(quasiperiodize(eta), Z, G, t, nu, S.T).residual(G)
    error = relative_l2_error(recover_eta_known_support(Z, G, S).eta_hat, eta)

    ok = bool(residual <= args.tol and error <= args.tol)
    _show(system_identity_residual=residual, round_trip_error=error, ok=ok)
    return 0 if ok else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opsample",
        description="Operator sampling experiments: delta-train probing and Zak-domain recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-window", help="draw identifier weights meeting a spark target")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--target", choices=["full", "spark_k"], default="full")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_window)

    p = sub.add_parser("spark", help="certify the spark of a window's Gabor matrix")
    p.add_argument("--window", required=True)
    p.add_argument("--matrix-out", default=None)
    p.set_defaults(func=cmd_spark)

    p = sub.add_parser("rectify", help="cell cover, partition classes, and bandwidth")
    p.add_argument("--support", required=True)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_rectify)

    p = sub.add_parser("simulate", help="apply a channel to a weighted delta train")
    p.add_argument("--support", default=None)
    p.add_argument("--window", required=True)
    p.add_argument("--eta", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--chirp-a", type=float, default=0.0)
    p.add_argument("--eta-out", default=None)
    p.add_argument("--response-out", default=None)
    p.add_argument("--zak-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="recover the spreading function from a Zak grid")
    p.add_argument("--zak", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--smooth", action="store_true")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--symplectic", type=float, default=None, metavar="CHIRP_A")
    p.add_argument("--eta-true", default=None)
    p.add_argument("--eta-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("recover-support", help="joint-sparse support estimation pipeline")
    p.add_argument("--zak", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--domain", default=None)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--eta-true", default=None)
    p.add_argument("--eta-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_recover_support)

    p = sub.add_parser("rates", help="sampling-rate diagnostics and bunched plans")
    p.add_argument("--support", required=True)
    p.add_argument("--window", default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--plan", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--window-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("verify", help="seeded round trip: simulate, then recover and compare")
    p.add_argument("--support", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require(getattr(args, "seed", None) is None or args.seed >= 0, "--seed must be >= 0")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MalformedFile, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (*NUMERICAL_ERRORS, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OpSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
