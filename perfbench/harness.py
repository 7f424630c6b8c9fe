"""Closed-loop operation runner, span recorder and statistics.

One caller sends every operation and waits for its result before sending
the next. An operation's latency is the time spent inside the program's
public functions it calls; the benchmark's own correctness checks run
outside that time. With tracing on, every such call is also a span, and the
benchmark may repeat a call the program makes internally as an
"attribution" span, which is never part of an operation's latency.
"""

from __future__ import annotations

import math
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class CheckFailed(Exception):
    """A program output failed the benchmark's correctness oracle."""


class Tracer:
    """Spans kept in memory until the run ends.

    Each span is [name, start, end, parent id, operation id, attribution,
    size]; ``size`` labels the input size (tiles, grid side, mesh
    resolution) so rows of the same call at one size can be grouped.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str, attribution: bool = False, size=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id, attribution, size])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        span = self.spans[sid]
        span[2] = perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict:
        """Per span name: calls, busy seconds and self seconds."""
        layers: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = layers.setdefault(span[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += span[2] - span[1]
            row["self_s"] += own
        return layers


class Op:
    """One closed-loop operation; see Run.op."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.elapsed = 0.0

    def call(self, layer: str, fn, *args, size=None, **kwargs):
        """Call a program function; its time counts toward the latency."""
        tr = self.tracer
        if tr is None:
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.elapsed += perf_counter() - t0
        sid = tr.open(layer, size=size)
        try:
            return fn(*args, **kwargs)
        finally:
            self.elapsed += tr.close(sid)

    def attribute(self, layer: str, fn, *args, size=None, **kwargs):
        """Traced runs only: repeat an inner call on the same input, untimed."""
        tr = self.tracer
        if tr is None:
            return None
        sid = tr.open(layer, attribution=True, size=size)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.close(sid)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.tracer is not None:
            self.tracer.counts[name] += value

    @staticmethod
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)


class Run:
    """Operations of one measured round, with their latencies and failures."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        return math.fsum(self.latencies)

    @contextmanager
    def op(self, kind: str, size=None):
        tr = self.tracer
        sid = -1
        if tr is not None:
            tr.op_id += 1
            sid = tr.open(f"op.{kind}", size=size)
        op = Op(tr)
        try:
            yield op
        except Exception:  # one failed operation must not stop the run
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"op {kind} (size {size}): {traceback.format_exc()}")
        finally:
            if tr is not None:
                tr.close(sid)
            self.latencies.append(op.elapsed)
            self.kinds.append(kind)

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[k]


def tail_percentile(n_ref: int) -> float:
    """Highest ladder percentile with at least ten of n_ref samples beyond it."""
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n_ref * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best
