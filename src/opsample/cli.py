"""Command-line front end: scriptable experiments over stable file formats.

Every run is deterministic given its seed (flag, or the OPSAMPLE_SEED
environment variable as fallback); re-running a command produces
byte-identical output files.  Exit codes: 0 success, 2 precondition or usage
error, 3 numerical failure (floating-point overflow included), 4 I/O failure
or malformed input file.  Floating-point output is printed with 17
significant digits so values survive a copy-paste round trip.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import formats
from .channel import (
    IdentifierTrain,
    apply_channel,
    assemble_system,
    quasiperiodize,
    random_spreading,
    zak_transform,
)
from .errors import (
    GenerationFailed,
    GridMismatch,
    NoConvergence,
    OpSampleError,
    RankDeficient,
    SparkTargetUnmet,
)
from .formats import _fmt
from .gabor import build_gabor_matrix, generate_window, spark
from .rates import bunched_window_plan, rate_report
from .reconstruct import (
    recover_eta_known_support,
    recover_eta_smooth,
    recover_symplectic,
    smooth_windows,
)
from .sparse import recover_unknown_support
from .support import CellSupport, bandwidth, rectify

NUMERICAL_ERRORS = (RankDeficient, NoConvergence, GenerationFailed, SparkTargetUnmet)


class _InputError(Exception):
    """A named input file exists but cannot be parsed into the expected object."""


class _UsageError(Exception):
    """A command-line precondition that argparse does not express."""


def _load(loader, path):
    """loader(path); a malformed file or one too large to hold is an input error."""
    try:
        return loader(path)
    except OpSampleError as exc:  # the loader names the path
        raise _InputError(exc) from exc
    except MemoryError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _require_zak_T(T, S):
    """The Zak header's T must be the support's (the grid shape pins L and P)."""
    if T != S.T:
        raise GridMismatch(f"the Zak grid has T = {_fmt(T)}, the support T = {_fmt(S.T)}")


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("OPSAMPLE_SEED")
    return int(env) if env else None


def _require(condition, message):
    if not condition:
        raise _UsageError(message)


def cmd_gen_window(args):
    target = {"full": "full_spark", "spark_k": "spark_k"}[args.target]
    window = generate_window(
        args.L, target=target, k=args.k, seed=_resolve_seed(args), max_draws=args.max_draws
    )
    certificate = spark(build_gabor_matrix(window))
    print(f"spark={certificate}")
    if args.out:
        formats.save_window(window, args.out)
    return 0


def cmd_spark(args):
    window = _load(formats.load_window, args.window)
    G = build_gabor_matrix(window)
    print(f"spark={spark(G)}")
    if args.matrix_out:
        formats.export_gabor_matrix(G, args.matrix_out)
    return 0


def cmd_rectify(args):
    S = _load(formats.load_support, args.support)
    report = rectify(S)
    B = bandwidth(S)
    print("identifiable=true")
    print(f"classes={len(report.classes)}")
    print(f"max_cover={report.max_cover}")
    print(f"bandwidth={_fmt(B)}")
    print(f"gamma={json.dumps([list(c) for c in report.gamma])}")
    if args.report_out:
        payload = {
            "identifiable": True,
            "classes": [[list(c) for c in cls.cells] for cls in report.classes],
            "max_cover": int(report.max_cover),
            "bandwidth": B,
            "gamma": [list(c) for c in report.gamma],
        }
        formats.save_json(payload, args.report_out)
    return 0


def cmd_simulate(args):
    _require(args.eta or args.support, "--eta or --support is required")
    _require(args.eta or _resolve_seed(args) is not None, "need --eta, or --seed to draw one")
    if args.eta:
        eta = _load(formats.load_spreading, args.eta)
        S = eta.support
    else:
        S = _load(formats.load_support, args.support)
        eta = random_spreading(S, seed=_resolve_seed(args))
    window = _load(formats.load_window, args.window)
    g = IdentifierTrain(T=S.T, weights=window, chirp_a=args.chirp_a)
    response = apply_channel(eta, g)
    Z = zak_transform(response)
    if args.eta_out:
        formats.save_spreading(eta, args.eta_out)
    if args.response_out:
        formats.save_response(response, args.response_out)
    if args.zak_out:
        formats.save_zak(Z, S.T, S.L, S.P, args.zak_out)
    print(f"response_l2={_fmt(np.linalg.norm(response.samples))}")
    return 0


def cmd_identify(args):
    Z, T, _, _ = _load(formats.load_zak, args.zak)
    window = _load(formats.load_window, args.window)
    G = build_gabor_matrix(window)
    eta_true = _load(formats.load_spreading, args.eta_true) if args.eta_true else None
    S = _load(formats.load_support, args.support)
    _require_zak_T(T, S)
    if args.smooth:
        _require(args.eps is not None, "--smooth requires --eps")
        windows = smooth_windows(S.T, S.omega, args.eps, S.P)
        report = recover_eta_smooth(Z, G, S, windows, eta_true=eta_true)
    elif args.symplectic is not None:
        report = recover_symplectic(Z, G, S, args.symplectic, eta_true=eta_true)
    else:
        report = recover_eta_known_support(Z, G, S, eta_true=eta_true)

    print(f"formula={report.formula}")
    print(f"gamma={json.dumps([list(c) for c in report.eta_hat.support.cells])}")
    if report.relative_l2_error is not None:
        print(f"relative_l2_error={_fmt(report.relative_l2_error)}")
    if args.eta_out:
        formats.save_spreading(report.eta_hat, args.eta_out)
    if args.report_out:
        formats.save_json(formats.reconstruction_report_dict(report), args.report_out)
    return 0


def cmd_recover_support(args):
    Z, T, L, P = _load(formats.load_zak, args.zak)
    window = _load(formats.load_window, args.window)
    G = build_gabor_matrix(window)
    if args.domain:
        R = _load(formats.load_support, args.domain)
        _require_zak_T(T, R)
    else:
        R = CellSupport(T=T, L=L, P=P, cells=[(q, m) for q in range(L) for m in range(L)])
    eta_true = _load(formats.load_spreading, args.eta_true) if args.eta_true else None
    try:
        report = recover_unknown_support(
            Z, G, R, k_max=args.kmax, tol=args.tol, seed=_resolve_seed(args) or 0,
            eta_true=eta_true,
            gamma_true=eta_true.support.cells if eta_true else None,
        )
        failure, estimate = None, report.support_estimate
    except NoConvergence as exc:  # the estimate is still reported
        failure, estimate = exc, exc.estimate
    print(f"gamma_hat={json.dumps([list(c) for c in estimate.gamma_hat])}")
    print(f"residual={_fmt(estimate.residual_history[-1])}")
    if args.report_out:
        formats.save_json(formats.support_estimate_dict(estimate), args.report_out)
    if failure:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    if report.relative_l2_error is not None:
        print(f"relative_l2_error={_fmt(report.relative_l2_error)}")
    if args.eta_out:
        formats.save_spreading(report.eta_hat, args.eta_out)
    return 0


def cmd_rates(args):
    S = _load(formats.load_support, args.support)
    if args.plan:
        _require(args.eps is not None, "--plan requires --eps")
        window, report = bunched_window_plan(
            S, args.eps, seed=_resolve_seed(args), max_draws=args.max_draws
        )
        print(f"L={window.L}")
        print(f"support_count={window.support_size()}")
        if args.window_out:
            formats.save_window(window, args.window_out)
    else:
        _require(args.window, "rates without --plan requires --window")
        window = _load(formats.load_window, args.window)
        report = rate_report(IdentifierTrain(T=S.T, weights=window), S, eps=args.eps)
    print(f"rate={_fmt(report.rate)}")
    print(f"bandwidth={_fmt(report.bandwidth)}")
    print(f"necessary_ok={str(report.necessary_ok).lower()}")
    print(f"area={_fmt(report.area)}")
    if report.sufficient_margin is not None:
        print(f"sufficient_margin={_fmt(report.sufficient_margin)}")
    print(f"dead_time_fraction={_fmt(report.dead_time_fraction)}")
    if args.report_out:
        formats.save_json(formats.rate_report_dict(report), args.report_out)
    return 0


def cmd_verify(args):
    S = _load(formats.load_support, args.support)
    window = _load(formats.load_window, args.window)
    seed = _resolve_seed(args)
    eta = random_spreading(S, seed=seed)
    response = apply_channel(eta, IdentifierTrain(T=S.T, weights=window))
    Z = zak_transform(response)
    G = build_gabor_matrix(window)

    eta_qp = quasiperiodize(eta)
    residual = 0.0
    for t in range(S.P):
        for nu in range(S.P):
            sample = assemble_system(eta_qp, Z, G, t, nu, S.T)
            residual = max(residual, sample.residual(G))
    report = recover_eta_known_support(Z, G, S, eta_true=eta)

    print(f"system_identity_residual={_fmt(residual)}")
    print(f"round_trip_error={_fmt(report.relative_l2_error)}")
    ok = residual <= args.tol and report.relative_l2_error <= args.tol
    print(f"ok={str(ok).lower()}")
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
    p.add_argument("--max-draws", type=int, default=200)
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
    p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--max-draws", type=int, default=200)
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
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (_InputError, OSError) as exc:
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
