"""Spans recorded by the benchmark around its calls into each layer.

A span is [name, start, end, parent index, op id], kept in memory and
written out once, when the run ends.  Times are perf_counter seconds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Tracing off: the same calls as Tracer, recording nothing."""

    def begin(self, name: str, op_id: int, parent: int = -1) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, op_id: int, parent: int = -1) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, op_id])
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, so they are summed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
