"""opsample benchmark: four closed-loop workloads, end-to-end metrics, a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]

Run from the repository root.  The package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is one JSON object holding
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of
a separate traced pass.  The line before it is a JSON record of the run's
environment, op counts and any failed gates.  ``--smoke`` runs a few ops of
every workload, untraced and traced, to check the gates and spans; it
reports no numbers.  See NOTES.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# BLAS/OpenMP pools are capped before numpy is imported; CLI children inherit.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "opsample" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {SRC / 'opsample'}")
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

_IMPORTED = time.perf_counter()

#: set-up is repeated this many times in a measuring run; setup_s is the median
SETUP_REPEATS = 3
#: share of --seconds given to the untraced and traced passes of a traced run
TRACE_SPLIT = (0.4, 0.45)
#: fewest ops per pass of a traced run, and per workload in smoke mode
MIN_TRACE_OPS, SMOKE_OPS = 3, 2
#: wall-time samples of a bare `import opsample.cli` child
STARTUP_SAMPLES = 3

#: the package modules that get spans, in SPAN_TARGETS order
LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for _, _, name in workloads.SPAN_TARGETS))


def normalized(loop):
    """The loop's op latencies at the nominal host speed."""
    return [t / c for t, c in zip(loop["latencies"], loop["calibration"])]


def measure(wl, seed, seconds, workdir, import_s):
    """The untraced run: every end-to-end metric."""
    slowness = calibration.slowness(wl.calibration)
    import_scaled = import_s / slowness()
    reps, reps_raw = [], []
    for r in range(SETUP_REPEATS):
        before = slowness()
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        wl.op(state, workloads.WARMUP, r)
        reps_raw.append(time.perf_counter() - t0)
        reps.append(reps_raw[-1] / ((before + slowness()) / 2))
    loop = harness.run_loop(
        wl, state, wl.op, workloads.OP, seconds, harness.TAIL_MARGIN + 1, calibrate=slowness
    )
    lat = harness.latency_summary(normalized(loop))
    raw = harness.latency_summary(loop["latencies"])
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    completed = lat["count"] - len(loop["failures"])
    metrics = {
        "op_p50_ms": (lat["p50"] * 1e3, "ms"),
        "op_tail_ms": (lat["tail"] * 1e3, "ms"),
        "ops_per_s": (completed / sum(normalized(loop)), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "setup_s": (import_scaled + statistics.median(reps), "s"),
        "exact_frac": (loop["exact"] / loop["tried"], "frac"),
    }
    record = {
        "attempted": lat["count"],
        "failed": len(loop["failures"]),
        "failed_frac": len(loop["failures"]) / lat["count"],
        "tail_percentile": lat["tail_percentile"],
        "tail_ops_beyond": harness.TAIL_MARGIN,
        "calibration": list(wl.calibration),
        "slowness_median": statistics.median(loop["calibration"]),
        "raw_op_p50_ms": raw["p50"] * 1e3,
        "raw_op_tail_ms": raw["tail"] * 1e3,
        "raw_ops_per_s": completed / sum(loop["latencies"]),
        "raw_setup_s": import_s + statistics.median(reps_raw),
        "import_s": import_s,
        "rss_of": "largest child process" if wl.children else "this process",
        "failures": loop["failures"][:10],
    }
    return metrics, record


def peak_pass(wl, state, min_ops):
    """tracemalloc peak (MB) of each PEAK_SPANS call, in a pass of its own."""
    peaks = {}

    def make_wrapper(name, fn):
        if name not in workloads.PEAK_SPANS:
            return fn

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks.setdefault(name, []).append(peak / 2**20)

        return measured

    tracemalloc.start()
    try:
        with harness.patched(workloads.SPAN_TARGETS, make_wrapper):
            harness.run_loop(wl, state, wl.traced_op, workloads.OP, 0, min_ops)
    finally:
        tracemalloc.stop()
    return {name: max(values) for name, values in peaks.items()}


def cli_startup_ms(env, samples):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import opsample.cli"], env=env, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def trace(wl, seed, seconds, workdir, min_ops=MIN_TRACE_OPS, startup_samples=STARTUP_SAMPLES):
    """The traced run: per-layer metrics, spans, and the op records."""
    slowness = calibration.slowness(wl.calibration)
    state = wl.setup(seed, workdir)
    wl.traced_op(state, workloads.WARMUP, 0)
    base = harness.run_loop(
        wl, state, wl.traced_op, workloads.OP, seconds * TRACE_SPLIT[0], min_ops,
        calibrate=slowness,
    )
    recorder = harness.SpanRecorder(workloads.SPAN_PROBES)
    with harness.patched(workloads.SPAN_TARGETS, recorder.wrap):
        traced = harness.run_loop(
            wl, state, wl.traced_op, workloads.OP, seconds * TRACE_SPLIT[1], min_ops, recorder,
            calibrate=slowness,
        )
    peaks = peak_pass(wl, state, 1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    startup = cli_startup_ms(env, startup_samples)

    lat = traced["latencies"]
    n = len(lat)
    breakdown = harness.per_op_breakdown(recorder.spans, range(n))
    zero = ([0] * n, [0.0] * n)
    metrics = {}
    layer_secs = {layer: [0.0] * n for layer in LAYERS}
    attributed = [0.0] * n
    for _, _, name in workloads.SPAN_TARGETS:
        calls, secs = breakdown.get(name, zero)
        metrics[f"{name}.calls"] = (sum(calls) / n, "1/op")
        metrics[f"{name}.self_ms"] = (statistics.median(secs) * 1e3, "ms")
        layer = name.split(".", 1)[0]
        for k in range(n):
            layer_secs[layer][k] += secs[k]
            attributed[k] += secs[k]
    for layer, secs in layer_secs.items():
        metrics[f"{layer}.self_ms"] = (statistics.median(secs) * 1e3, "ms")

    def mean_extra(name):
        values = recorder.extras.get(name, [])
        return sum(values) / len(values) if values else 0.0

    unknown_calls = sum(breakdown.get("sparse.recover_unknown_support", zero)[0])
    metrics.update({
        "gabor.generate_window.draws": (mean_extra("gabor.generate_window"), "count"),
        "rates.bunched_window_plan.draws": (mean_extra("rates.bunched_window_plan"), "count"),
        "sparse.mmv_omp.iterations": (mean_extra("sparse.mmv_omp"), "count"),
        "sparse.exact_frac": (traced["exact"] / unknown_calls if unknown_calls else 0.0, "frac"),
        "channel.apply_channel.peak_mb": (peaks.get("channel.apply_channel", 0.0), "MB"),
        "reconstruct.reconstruct_h_sharp.peak_mb": (
            peaks.get("reconstruct.reconstruct_h_sharp", 0.0), "MB"),
        "cli.startup_ms": (startup, "ms"),
        "trace.op_ms": (statistics.median(lat) * 1e3, "ms"),
        "trace.unattributed_ms": (
            statistics.median(t - a for t, a in zip(lat, attributed)) * 1e3, "ms"),
        "trace.overhead_frac": (
            statistics.median(normalized(traced)) / statistics.median(normalized(base)) - 1,
            "frac"),
    })
    failures = base["failures"] + traced["failures"]
    record = {
        "attempted": len(base["latencies"]) + n,
        "failed": len(failures),
        "untraced_ops": len(base["latencies"]),
        "traced_ops": n,
        "failures": failures[:10],
    }
    return metrics, record, recorder.spans


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def write_spans(spans, wl_name, seed):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{wl_name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump([vars(s) for s in spans], fh)
    return str(path.relative_to(ROOT))


def smoke(seed, workdir):
    """A few ops of every workload, untraced and traced; True when all pass."""
    ok = True
    for wl in workloads.WORKLOADS.values():
        state = wl.setup(seed, workdir)
        loop = harness.run_loop(wl, state, wl.op, workloads.OP, 0, SMOKE_OPS)
        metrics, record, _ = trace(wl, seed, 0, workdir, SMOKE_OPS, startup_samples=1)
        missing = [layer for layer in wl.layers if not metrics[f"{layer}.self_ms"][0] > 0]
        failures = loop["failures"] + record["failures"]
        good = not failures and not missing
        ok = ok and good
        print(json.dumps({
            "workload": wl.name, "ok": good, "failures": failures,
            "layers_without_spans": missing,
            "trace.overhead_frac": metrics["trace.overhead_frac"][0],
        }))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.smoke:
            return 0 if smoke(args.seed, workdir) else 1
        wl = workloads.WORKLOADS[args.workload]
        record = environment(args)
        if args.trace:
            metrics, ops, spans = trace(wl, args.seed, args.seconds, workdir)
            record["spans_file"] = write_spans(spans, wl.name, args.seed)
        else:
            metrics, ops = measure(wl, args.seed, args.seconds, workdir, _IMPORTED - _START)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(ops)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
