"""Spans recorded by the benchmark around its own calls into cqcsp.

A span is one call from the benchmark into a layer (or one benchmark case,
the root of its calls): workload, case id, layer, function, an optional
tag (decider tag, rule name, or what was evaluated), start, end and parent.
Spans stay in memory and are written when the run ends.  Nothing inside
the package is instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("textio", "model", "fastpath", "oracle", "reductions")


class NoTrace:
    """The untraced path: calls go straight through."""

    enabled = False

    def call(self, case, layer, function, fn, *args, tag=None, **kwargs):
        return fn(*args, **kwargs)

    def open(self, case, layer, function, tag=None):
        return None

    def close(self, span):
        pass


class Tracer:
    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        # [id, parent, case, layer, function, tag, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, case, layer, function, tag=None) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                case, layer, function, tag, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        span[6] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[7] = perf_counter()
        self._stack.pop()

    def call(self, case, layer, function, fn, *args, tag=None, **kwargs):
        span = self.open(case, layer, function, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def durations(self, layer: str, function: str, tags=(), in_setup=False) -> list[float]:
        """Durations of the matching spans, from set-up or from the passes;
        with ``tags``, only spans carrying one of them."""
        return [s[7] - s[6] for s in self.spans
                if s[3] == layer and s[4] == function and (s[2] == "setup") == in_setup
                and (not tags or s[5] in tags)]

    def self_times(self, roots: set[int]) -> dict[str, float]:
        """Self time per layer over the spans under the given root spans:
        a span's duration minus the part its child spans cover."""
        inside = set(roots)
        child_total: dict[int, float] = defaultdict(float)
        per_layer: dict[str, float] = defaultdict(float)
        for s in self.spans:  # parents precede their children
            if s[1] in inside:
                inside.add(s[0])
        for s in self.spans:
            if s[0] in inside and s[1] >= 0:
                child_total[s[1]] += s[7] - s[6]
        for s in self.spans:
            if s[0] in inside:
                per_layer[s[3]] += (s[7] - s[6]) - child_total[s[0]]
        return dict(per_layer)

    def write(self, path) -> None:
        keys = ("id", "parent", "case", "layer", "function", "tag", "start", "end")
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(zip(keys, s))
                row["workload"] = self.workload
                fh.write(json.dumps(row) + "\n")
