"""The closed loop, span recording, self-time accounting and latency statistics.

Stdlib only, so the helpers can be tested without numpy or the package.

A span is one call of a wrapped library function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (``None`` at
the top of an op) and the id of the op that caused it.  Spans stay in memory
and are written out once, when the run ends.
"""

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: a latency percentile needs at least this many ops strictly beyond it
TAIL_MARGIN = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def tail_rank(n):
    """0-based rank of the highest percentile with TAIL_MARGIN samples beyond it.

    Returns ``(rank, percentile)`` for ``n`` sorted samples, or ``None`` when
    fewer than ``TAIL_MARGIN + 1`` samples exist.  The percentile is the share
    of samples at or below the rank, in percent.
    """
    if n <= TAIL_MARGIN:
        return None
    rank = n - TAIL_MARGIN - 1
    return rank, 100.0 * (rank + 1) / n


def latency_summary(latencies):
    """Median and tail of a list of latencies, with the tail's percentile."""
    ordered = sorted(latencies)
    tail = tail_rank(len(ordered))
    if tail is None:
        raise ValueError(f"need more than {TAIL_MARGIN} samples for a tail, got {len(ordered)}")
    rank, pct = tail
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": pct,
        "count": len(ordered),
    }


def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


class SpanRecorder:
    """Collects spans around wrapped calls, tagged with the current op id.

    ``probes`` maps a span name to a function of the call's return value whose
    number is recorded as an extra (for example draws per accepted window).
    """

    def __init__(self, probes=None):
        self.spans = []
        self.extras = {}
        self.op = None
        self._probes = probes or {}
        self._stack = []

    def wrap(self, name, fn):
        probe = self._probes.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)
            if probe is not None:
                self.extras.setdefault(name, []).append(probe(result))
            return result

        return recorded


@contextmanager
def patched(targets, make_wrapper, package="opsample"):
    """Replace each target function by ``make_wrapper(span_name, fn)``.

    ``targets`` lists ``(module, attribute, span_name)``.  Every module of the
    package that holds the same function object (the defining module and each
    module that imported it by name) gets the wrapper, so nested library calls
    are recorded too.  Everything is restored on exit.
    """
    saved = []
    try:
        for module_name, attr, span_name in targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = make_wrapper(span_name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


def per_op_breakdown(spans, op_ids):
    """Per-op call counts and self seconds by span name.

    Returns ``{name: ([calls per op], [self seconds per op])}`` with one entry
    per id in ``op_ids`` (zero where the op made no such call).
    """
    position = {op: k for k, op in enumerate(op_ids)}
    out = {}
    for span, own in zip(spans, self_times(spans)):
        k = position.get(span.op)
        if k is None:
            continue
        calls, secs = out.setdefault(span.name, ([0] * len(op_ids), [0.0] * len(op_ids)))
        calls[k] += 1
        secs[k] += own
    return out


def run_loop(wl, state, op, stream, seconds, min_ops, recorder=None, calibrate=None):
    """Issue ops back to back until ``seconds`` have passed and ``min_ops`` ran.

    ``wl.check(state, stream, i, out)`` returns the op's problems and
    ``wl.exact(out)`` (when set) the op's ``(exact, attempted)`` recoveries;
    without it an op that passes its gate is one exact recovery.  A failed op
    is one attempted recovery and no exact one.
    Each op is timed alone; its gate runs after the clock stops.  An op that
    raises or fails its gate counts as failed; it is neither dropped nor
    retried.

    ``calibrate()`` (optional) times a fixed reference kernel.  It runs before
    the first op and after every op; each op is given the mean of the two
    readings around it.
    """
    latencies, readings, failures = [], [], []
    exact = tried = 0
    if calibrate is not None:
        readings.append(calibrate())
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        if recorder is not None:
            recorder.op = i
        t0 = perf_counter()
        try:
            out = op(state, stream, i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if recorder is not None:
            recorder.op = None
        if out is not None:
            try:
                problems = wl.check(state, stream, i, out)
            except Exception as exc:
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"op": i, "problems": problems})
            tried += 1  # a failed op recovers nothing
        else:
            got, attempted = wl.exact(out) if wl.exact is not None else (1, 1)
            exact += got
            tried += attempted
        i += 1
        if calibrate is not None:
            readings.append(calibrate())
    calibration = [(a + b) / 2 for a, b in zip(readings, readings[1:])]
    return {"latencies": latencies, "calibration": calibration, "failures": failures,
            "exact": exact, "tried": tried}
