"""Alternating parent/change pairs of benchmark runs, with medians, quartiles and wins.

Usage:

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W [--workload W2 ...] \\
        --pairs N --seconds S --seed0 K

PARENT_ROOT and CHANGE_ROOT are two checkouts (for example `git archive` copies
of the parent commit and of the change).  The workloads run in turn, each its N
pairs.  Pair k, k = 0..N-1, runs each root's own
`perfbench/run.py --workload W --seed K+k --seconds S --trace 0` from that
root, the parent first in even pairs and the change first in odd ones, so N
must be even and each side runs first equally often.  Every run's metrics are
printed as one JSON line when it finishes.  After a workload's last pair, its
summary block follows: for each end-to-end metric of CHANGE_ROOT's
BENCHMARK.json, one line gives each side's median and quartiles and the number
of pairs the change won, judged in the metric's `better` direction; a tie
counts for neither side.  The same line says whether the change stays within
the metric's `bound` (its median worse than the parent's by at most that
fraction of the parent's median) and whether a claim of a gain would hold (at
least 9 of every 10 pairs won, and the medians apart by more than the parent's
quartile spread).  The line ends with the median of the paired ratios
change/parent, one per pair, and their min and max: the two runs of a pair are
close in time, so the ratio cancels the drift of the host between pairs.  It
decides nothing; the bound and the claim read the medians as before.

Both roots start from the same bytecode state.  A missing or stale `__pycache__`
recompiles on every import when PYTHONDONTWRITEBYTECODE is set, and `setup_s` and
every `cli_p64` op pay for it.  So each root gets a fresh PYTHONPYCACHEPREFIX in a
temporary directory, and every run of that root gets the same one (child_env).
Before the first pair, one child per root imports everything a run imports at
module level, which compiles it into that prefix (compile_root).  The script
writes no file outside that temporary directory, which it removes at the end.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_order(pairs):
    """(pair, side) in run order: the parent first in even pairs, the change first in odd."""
    if pairs < 2 or pairs % 2:
        raise ValueError(f"need an even number of pairs >= 2, got {pairs}")
    return [(k, side) for k in range(pairs) for side in (SIDES if k % 2 == 0 else SIDES[::-1])]


def schedule(workloads, pairs):
    """(workload, pair, side) in run order: each workload's run_order(pairs) in turn.
    A workload named twice is refused."""
    if not workloads or len(set(workloads)) != len(workloads):
        raise ValueError(f"need distinct workloads, got {workloads}")
    order = run_order(pairs)
    return [(workload, k, side) for workload in workloads for k, side in order]


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method (needs two values)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better):
    """Pairs in which the change's value beats the parent's in the direction `better`
    ("lower" or "higher"); equal values count for neither side."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change, strict=True) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """(within, claim) for one metric's pairs.  within: the change's median is worse than
    the parent's by at most bound times the parent's median.  claim: the change wins at
    least 9 of every 10 pairs, and its median beats the parent's by more than the parent's
    quartile spread (q3 - q1)."""
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    gain = cm - pm if better == "higher" else pm - cm
    won = wins(parent, change, better)
    return -gain <= bound * abs(pm), 10 * won >= 9 * len(parent) and gain > p3 - p1


def paired_ratios(parent, change):
    """(median, min, max) of change/parent over the pairs whose parent value is nonzero;
    None when there is no such pair."""
    ratios = [c / p for p, c in zip(parent, change, strict=True) if p]
    return (statistics.median(ratios), min(ratios), max(ratios)) if ratios else None


def directions(benchmark_json):
    """End-to-end metric name -> its `better` direction, in the file's order."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def bounds(benchmark_json):
    """End-to-end metric name -> its `bound`, in the file's order."""
    spec = json.loads(Path(benchmark_json).read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def child_env(prefix, environ=os.environ):
    """The environment of every child of one root: environ with the root's own bytecode
    cache prefix, and bytecode writing allowed, so a module is compiled once, not per run."""
    env = {key: value for key, value in environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def compile_root(root, env):
    """Compile what perfbench/run.py imports at module level (the package, numpy and the
    standard library modules it needs) into env's bytecode prefix, without running it."""
    # as `python3 perfbench/run.py` does, with perfbench/ first on the path; not as __main__
    code = "import runpy, sys; sys.path.insert(0, 'perfbench'); runpy.run_path('perfbench/run.py')"
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)


def run_once(root, workload, seed, seconds, env):
    """One untraced benchmark run in root; returns its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {root} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        order = schedule(args.workload, args.pairs)
    except ValueError as exc:
        parser.error(str(exc))
    better = directions(args.change_root / "BENCHMARK.json")
    bound = bounds(args.change_root / "BENCHMARK.json")
    roots = {"parent": args.parent_root, "change": args.change_root}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as caches:
        envs = {side: child_env(Path(caches) / side) for side in SIDES}
        for side in SIDES:
            compile_root(roots[side], envs[side])
        run_pairs(order, roots, envs, args, better, bound)
    return 0


def run_pairs(order, roots, envs, args, better, bound):
    """Run the pairs in order and print each run's line and each workload's summary."""
    for workload, runs in itertools.groupby(order, key=lambda run: run[0]):
        values = {side: {name: [None] * args.pairs for name in better} for side in SIDES}
        for _, k, side in runs:
            out = run_once(roots[side], workload, args.seed0 + k, args.seconds, envs[side])
            metrics = {name: m["value"] for name, m in out["metrics"].items()}
            print(json.dumps({"workload": workload, "pair": k, "side": side,
                              "seed": args.seed0 + k, "attempted": out["attempted"],
                              "failed": out["failed"], "metrics": metrics}), flush=True)
            for name in better:
                values[side][name][k] = metrics[name]
        print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
              f"{args.seed0}..{args.seed0 + args.pairs - 1}; median [q1, q3]")
        for name, direction in better.items():
            parent, change = values["parent"][name], values["change"][name]
            (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
            within, claim = verdict(parent, change, direction, bound[name])
            ratio = paired_ratios(parent, change)
            ratio = "n/a" if ratio is None else "{:.4f} [{:.4f}, {:.4f}]".format(*ratio)
            print(f"{name:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
                  f"[{c1:.6g}, {c3:.6g}]  change wins {wins(parent, change, direction)}/"
                  f"{args.pairs} ({direction} is better)  within bound {bound[name]:g}: "
                  f"{'yes' if within else 'NO'}  claim holds: {'yes' if claim else 'no'}  "
                  f"paired change/parent median [min, max] {ratio}")


if __name__ == "__main__":
    sys.exit(main())
