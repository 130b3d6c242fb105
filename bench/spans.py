"""Spans around calls into the program, recorded from the benchmark's side.

A span has a name, start and end (perf_counter seconds), the index of its
parent span and the id of the session it belongs to. Spans stay in memory
and are written once, when the run ends. With tracing off, `span` is a
no-op context manager, so the untraced run measures the program alone.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.session = None

    def span(self, name: str, malloc: bool = False):
        """Time the enclosed call; with malloc, also its peak traced allocation."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, malloc)

    @contextlib.contextmanager
    def _record(self, name, malloc):
        index = len(self.spans)
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "session": self.session,
        }
        self.spans.append(rec)
        self._stack.append(index)
        if malloc:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if malloc:
                rec["peak_traced_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str, default: float = 0.0) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else default

    def peak_mb(self, name: str) -> float:
        peaks = [s["peak_traced_bytes"] for s in self.spans if s["name"] == name]
        return max(peaks) / 2**20 if peaks else 0.0

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=0))
