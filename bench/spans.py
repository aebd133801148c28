"""In-memory spans around calls into the program's layers.

The benchmark installs wrappers at the module attributes the program's own
callers look functions up by (``imcflab.flow.graph_frame`` for the flow's
right-hand side, ``imcflab.scenario.flow_graph`` for the runner's flow, and
so on), so the program itself is unchanged.  A span is
``[name, start, end, parent index, op id]``; they stay in a list until the
run ends and are written out then.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name: str, fn, label=None):
        """``fn`` recording one span per call; ``label(*args)`` refines the name."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            full = name if label is None else f"{name}:{label(*args)}"
            rec = [full, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Replace ``module.attr`` by a traced version for each
        ``(module, attr, span name[, label])`` in ``targets``."""
        for module, attr, name, *label in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, *label))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for name, s, e, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    return [(e - s) - _covered(s, e, children.get(i, ()))
            for i, (name, s, e, parent, op) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per span name: calls, total time and self time."""
    out: dict = {}
    for rec, own in zip(spans, self_times(spans)):
        agg = out.setdefault(rec[0], {"calls": 0, "total": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["total"] += rec[2] - rec[1]
        agg["self"] += own
    return out
