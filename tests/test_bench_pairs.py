"""The pure helpers of tools/bench_pairs.py: run order, schedule, quartiles, wins, verdicts,
paired ratios, directions and bounds.

No benchmark runs here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_order_alternates_and_refuses_an_odd_count(pairs):
    assert pairs.run_order(4) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change"), (3, "change"), (3, "parent"),
    ]
    for n in (0, 1, 3, 11):
        with pytest.raises(ValueError):
            pairs.run_order(n)


def test_schedule_runs_each_workload_s_pairs_in_turn(pairs):
    assert pairs.schedule(["certify_l5", "cli_p64"], 2) == [
        ("certify_l5", 0, "parent"), ("certify_l5", 0, "change"),
        ("certify_l5", 1, "change"), ("certify_l5", 1, "parent"),
        ("cli_p64", 0, "parent"), ("cli_p64", 0, "change"),
        ("cli_p64", 1, "change"), ("cli_p64", 1, "parent"),
    ]
    assert pairs.schedule(["unknown_l5"], 4) == [("unknown_l5", *run) for run in pairs.run_order(4)]
    for workloads, n in (([], 2), (["cli_p64", "cli_p64"], 2), (["cli_p64"], 3)):
        with pytest.raises(ValueError):
            pairs.schedule(workloads, n)


def test_quartiles(pairs):
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_wins_count_the_better_direction_and_no_ties(pairs):
    parent, change = [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0]
    assert pairs.wins(parent, change, "lower") == 2
    assert pairs.wins(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        pairs.wins(parent, change, "smaller")
    with pytest.raises(ValueError):
        pairs.wins(parent, change[:3], "lower")


def test_verdict_reads_the_bound_and_the_claim_rule(pairs):
    parent = [9.0, 9.5, 10.0, 10.5, 11.0] * 2  # median 10, quartile spread 10.5 - 9.5 = 1
    # 9 of 10 pairs won and a median gap of 1.5 > 1: within the bound, and a claim holds
    assert pairs.verdict(parent, [p - 1.5 for p in parent[:9]] + [14.0], "lower", 0.25) == (
        True, True)
    # the same gap in only 8 pairs: no claim
    assert pairs.verdict(parent, [p - 1.5 for p in parent[:8]] + [14.0] * 2, "lower", 0.25) == (
        True, False)
    # 10 wins but a median gap of 0.5, inside the parent's spread: no claim
    assert pairs.verdict(parent, [p - 0.5 for p in parent], "lower", 0.25) == (True, False)
    # 12.5 is 25% worse than 10, within a bound of 0.25; 12.6 is not
    assert pairs.verdict(parent, [12.5] * 10, "lower", 0.25) == (True, False)
    assert pairs.verdict(parent, [12.6] * 10, "lower", 0.25) == (False, False)
    assert pairs.verdict(parent, [7.5] * 10, "higher", 0.25) == (True, False)
    assert pairs.verdict(parent, [7.4] * 10, "higher", 0.25) == (False, False)
    assert pairs.verdict(parent, [11.5] * 10, "higher", 0.06) == (True, True)
    with pytest.raises(ValueError):
        pairs.verdict(parent, parent, "smaller", 0.25)


def test_paired_ratios_divide_within_each_pair(pairs):
    # the parent drifts from 10 to 20 and the change stays 10% below it in every pair
    parent = [10.0, 12.0, 16.0, 20.0]
    assert pairs.paired_ratios(parent, [0.9 * p for p in parent]) == pytest.approx((0.9, 0.9, 0.9))
    assert pairs.paired_ratios([1.0, 2.0, 4.0], [2.0, 1.0, 4.0]) == (1.0, 0.5, 2.0)
    # a zero parent value gives no ratio; no pair with a ratio gives None
    assert pairs.paired_ratios([0.0, 1.0], [1.0, 1.0]) == (1.0, 1.0, 1.0)
    assert pairs.paired_ratios([0.0, 0.0], [1.0, 1.0]) is None
    with pytest.raises(ValueError):
        pairs.paired_ratios([1.0, 2.0], [1.0])


def test_directions_follow_the_benchmark_file(pairs, tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "better": "higher", "bound": 0.1},
    ]}))
    assert pairs.directions(path) == {"op_p50_ms": "lower", "ops_per_s": "higher"}
    assert pairs.bounds(path) == {"op_p50_ms": 0.25, "ops_per_s": 0.1}
    assert pairs.directions(ROOT / "BENCHMARK.json")["exact_frac"] == "higher"
    assert pairs.bounds(ROOT / "BENCHMARK.json")["peak_rss_mb"] == 0.1
