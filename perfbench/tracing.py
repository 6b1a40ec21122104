"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, parent id, name, start, end, counts). Spans are kept in a
list while the benchmark runs and written out once, at the end. With
tracing off, ``span`` still yields a counts dict but records nothing, so
the untraced run pays one generator frame per call and no clock reads.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def rss_hwm_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict collects counts for it."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               "counts": counts}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            counts["rss_hwm_mb"] = rss_hwm_mb()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children(self, parent: dict, prefix: str) -> list[dict]:
        return [s for s in self.spans
                if s["parent"] == parent["id"] and s["name"].startswith(prefix)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


def duration(span: dict) -> float:
    return span["end"] - span["start"]
