"""Spans around the benchmark's calls into the package, kept in memory.

A span records a name, start, end, its parent span and the operation it
belongs to.  The untraced run passes :data:`OFF`, whose spans record
nothing, so both runs execute the same operation code.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s["name"], []).append(s["end"] - s["start"] - child_time[s["id"]])
        return out

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.self_times().items()}

    def write(self, fh, scope: str) -> None:
        """Append every span as one JSON line, tagged with ``scope``."""
        for s in self.spans:
            fh.write(json.dumps({"scope": scope, **s}) + "\n")


class _Off:
    def span(self, name: str):
        return nullcontext()


OFF = _Off()
