"""In-memory spans for the traced run, self times, Chrome trace export.

A span is a list ``[id, parent_id, name, start_ns, end_ns, stage]``. The
first part of its dotted name is its layer (``autodiff``, ``model``, ...).
Spans of one benchmark op share an op id; op 0 is set-up. The tracer
keeps the spans of the op in progress; `end_op` hands them back and keeps
a copy only for the first few ops, which go into the Chrome trace.

Self time is layer-relative: a span's duration minus the part of it that
nested spans of the *same* layer cover. A model stage therefore includes
the autodiff ops it ran, and an autodiff op excludes only the autodiff
work nested in it (gradient accumulation inside a backward closure).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

KEEP_OPS = 2          # timed ops whose spans go into the Chrome trace


class Tracer:
    """Single-threaded span recorder; one instance per traced run."""

    def __init__(self):
        self.counts: defaultdict = defaultdict(int)
        self.kept: list[tuple[int, list]] = []
        self._spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._op = 0

    def begin(self, name: str, stage: str = "") -> list:
        parent = self._stack[-1][0] if self._stack else 0
        span = [self._next_id, parent, name, perf_counter_ns(), 0, stage]
        self._next_id += 1
        self._stack.append(span)
        self._spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = perf_counter_ns()
        self._stack.pop()

    def innermost(self, names: dict):
        """Value in `names` of the innermost open span listed there."""
        for span in reversed(self._stack):
            hit = names.get(span[2])
            if hit is not None:
                return hit
        return None

    def start_op(self, op: int) -> None:
        self._op = op
        self._spans = []
        self.counts.clear()

    def end_op(self) -> list[list]:
        spans = self._spans
        timed_kept = sum(1 for op, _ in self.kept if op)
        if self._op == 0 or timed_kept < KEEP_OPS:
            self.kept.append((self._op, spans))
        self._spans = []
        return spans

    def write_chrome(self, path: str, meta: dict) -> int:
        """Write the kept spans as Chrome trace-event JSON; returns the count."""
        events = []
        base = min((s[3] for _, spans in self.kept for s in spans), default=0)
        for op, spans in self.kept:
            for sid, parent, name, t0, t1, stage in spans:
                args = {"id": sid, "parent": parent, "op": op}
                if stage:
                    args["stage"] = stage
                events.append({"name": name, "cat": name.split(".", 1)[0],
                               "ph": "X", "pid": 1, "tid": 1,
                               "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                               "args": args})
        with open(path, "w", encoding="ascii") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, f)
        return len(events)


def summarize(spans: list[list]) -> dict[str, list[int]]:
    """Per span name: [calls, total ns, self ns], self time layer-relative."""
    by_id = {s[0]: s for s in spans}
    covered: defaultdict = defaultdict(int)
    for s in spans:
        layer = s[2].split(".", 1)[0]
        p = by_id.get(s[1])
        while p is not None and p[2].split(".", 1)[0] != layer:
            p = by_id.get(p[1])
        if p is not None:
            covered[p[0]] += s[4] - s[3]
    table: dict[str, list[int]] = {}
    for s in spans:
        row = table.setdefault(s[2], [0, 0, 0])
        dur = s[4] - s[3]
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered[s[0]]
    return table
