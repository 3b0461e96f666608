"""In-memory spans and counts recorded around the benchmark's calls.

A span is one timed call into a package layer: its name is
``<layer>.<boundary>`` (for example ``linalg.pinned_solve``), and it carries
start and end times from ``time.perf_counter``, the id of the enclosing span
and the run id.  Counts are attached to the span open when they are recorded.
Nothing is written while a pass runs; ``Tracer.spans`` is serialized by the
caller afterwards.

A disabled tracer keeps the same interface and records nothing, so traced and
untraced passes execute the same job code.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, n) -> None:
        if self.enabled and self._stack:
            counts = self.spans[self._stack[-1]]["counts"]
            counts[name] = counts.get(name, 0) + n


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its spans minus the time their child spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - covered
    return out


def _replay(spans: list[dict], enabled: bool) -> float:
    """Wall time of re-entering the recorded span tree with empty bodies."""
    children: dict[int | None, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    tr = Tracer("replay", enabled)

    def walk(s):
        with tr.span(s["name"]):
            for c in children.get(s["id"], ()):
                walk(c)
            for name, n in s["counts"].items():
                tr.count(name, n)

    t0 = time.perf_counter()
    for root in children.get(None, ()):
        walk(root)
    return time.perf_counter() - t0


def overhead(spans: list[dict], repeats: int = 31) -> float:
    """Tracing cost of one pass: traced minus untraced wall time of the pass's
    span tree replayed with empty bodies (median of `repeats` replays each).

    The work inside the spans is identical with tracing on and off, so
    removing it isolates the difference; two full passes differ by far more
    run-to-run noise than the tracer costs.
    """
    on = statistics.median(_replay(spans, True) for _ in range(repeats))
    off = statistics.median(_replay(spans, False) for _ in range(repeats))
    return on - off
