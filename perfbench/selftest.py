"""Tests of the benchmark's own helpers; kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from types import SimpleNamespace

import pytest

from harness import (
    TAIL_MARGIN,
    Span,
    SpanRecorder,
    covered_length,
    latency_summary,
    per_op_breakdown,
    run_loop,
    self_times,
    tail_rank,
)


def test_self_time_of_nested_spans():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("grandchild", 2.0, 3.0, 1, 0),
        Span("child", 6.0, 7.5, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a on [3, 5]
        Span("c", 9.0, 12.0, 0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 1) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6), (-4, -1)], 0, 5.5) == pytest.approx(3.5)


def test_recorder_nests_spans_and_reads_probes():
    rec = SpanRecorder(probes={"inner": lambda result: result * 10})
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))
    rec.op = 7
    assert outer(1) == 4
    names = [(s.name, s.parent, s.op) for s in rec.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert rec.extras == {"inner": [20, 20]}


def test_per_op_breakdown_fills_zeros_and_skips_other_ops():
    spans = [
        Span("f", 0.0, 2.0, None, 0),
        Span("g", 0.5, 1.0, 0, 0),
        Span("g", 3.0, 4.0, None, 1),
        Span("f", 5.0, 6.0, None, None),  # outside any op
    ]
    out = per_op_breakdown(spans, [0, 1])
    assert out["f"] == ([1, 0], pytest.approx([1.5, 0.0]))
    assert out["g"] == ([1, 1], pytest.approx([0.5, 1.0]))


@pytest.mark.parametrize("n", [TAIL_MARGIN + 1, 20, 100, 1000])
def test_tail_is_the_highest_percentile_with_margin_beyond(n):
    rank, pct = tail_rank(n)
    assert n - 1 - rank == TAIL_MARGIN  # exactly TAIL_MARGIN samples beyond it
    assert pct == pytest.approx(100.0 * (n - TAIL_MARGIN) / n)
    summary = latency_summary([float(k) for k in reversed(range(n))])
    assert summary["tail"] == rank and summary["count"] == n


def test_tail_needs_more_than_margin_samples():
    assert tail_rank(TAIL_MARGIN) is None
    with pytest.raises(ValueError):
        latency_summary([1.0] * TAIL_MARGIN)


def test_raising_or_gate_failing_ops_count_as_failed():
    def op(state, stream, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(state, stream, i, out):
        return ["wrong"] if out == 2 else []

    wl = SimpleNamespace(check=check, exact=lambda out: (int(out % 2 == 0), 2))
    loop = run_loop(wl, None, op, 0, seconds=0, min_ops=4)
    assert len(loop["latencies"]) == 4  # nothing dropped or retried
    assert [f["op"] for f in loop["failures"]] == [1, 2]
    assert "RuntimeError: boom" in loop["failures"][0]["problems"][0]
    # ops 0 and 3 attempt 2 recoveries each (op 0 one exact); failed ops 1 and 2 one each
    assert (loop["exact"], loop["tried"]) == (1, 6)


def test_without_an_exact_counter_each_passing_op_is_one_exact_recovery():
    wl = SimpleNamespace(check=lambda s, st, i, out: ["wrong"] if out == 1 else [], exact=None)
    loop = run_loop(wl, None, lambda s, st, i: i, 0, seconds=0, min_ops=3)
    assert (loop["exact"], loop["tried"]) == (2, 3)


def test_a_raising_gate_counts_as_failed():
    def check(state, stream, i, out):
        raise KeyError("missing")

    wl = SimpleNamespace(check=check, exact=None)
    loop = run_loop(wl, None, lambda s, st, i: i, 0, seconds=0, min_ops=2)
    assert len(loop["failures"]) == 2


def test_the_loop_calibrates_around_its_ops():
    readings = iter([1.0, 3.0, 5.0, 7.0])
    wl = SimpleNamespace(check=lambda *a: [], exact=None)
    loop = run_loop(wl, None, lambda s, st, i: i, 0, seconds=0, min_ops=3,
                    calibrate=lambda: next(readings))
    # calibrations run before op 0 and after every op; each op gets the two around it
    assert loop["calibration"] == [2.0, 4.0, 6.0]
