"""Names, units and aggregation of the benchmark's metrics.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
the spans of a traced pass: a ``<boundary>_s`` metric is the time spent in
spans of that name during the pass (for ``resistance.query`` the median
span), a count is summed or maximized over the spans that recorded it, and
``<layer>.self_s`` is the layer's self time.  A boundary a workload never
crosses reads 0.
"""

from __future__ import annotations

import statistics

from tracing import self_times

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}

LAYERS = ("geometry", "linalg", "forms", "resistance", "measures", "scales",
          "realization", "walks", "acceptance")

#: Span names whose total time per pass is reported as ``<name>_s``.
TIMED = (
    "geometry.build_graph", "linalg.pinned_solve", "linalg.cg",
    "forms.matrix_stack", "forms.matrix_stack_exact", "forms.cascade_float",
    "forms.cascade_rational", "forms.ratio_check", "resistance.factor",
    "resistance.corner_rational", "measures.energy_measure",
    "measures.certificate", "measures.divergence", "scales.comparison",
    "realization.realize", "realization.compare", "walks.exit",
    *(f"acceptance.c{n:02d}" for n in range(1, 11)),
)

#: Span names reported as the median duration of one span.
MEDIAN_TIMED = ("resistance.query",)

SUMMED = {"geometry.cells": "count", "linalg.unknowns": "count",
          "measures.admissible": "count", "walks.steps": "count"}
MAXED = {"linalg.residual_max": "ratio", "realization.max_prec_bits": "count"}

PER_LAYER = {
    **{f"{n}_s": "s" for n in TIMED + MEDIAN_TIMED},
    **SUMMED,
    **MAXED,
    "walks.steps_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer(spans: list[dict], wall: float, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    durations: dict[str, list[float]] = {}
    counts: dict[str, list] = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
        for name, n in s["counts"].items():
            counts.setdefault(name, []).append(n)
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_s"] = sum(durations.get(name, ()))
    for name in MEDIAN_TIMED:
        out[f"{name}_s"] = statistics.median(durations.get(name, [0.0]))
    for name in SUMMED:
        out[name] = sum(counts.get(name, ()))
    for name in MAXED:
        out[name] = max(counts.get(name, [0]))
    exit_s = out["walks.exit_s"]
    out["walks.steps_per_s"] = out["walks.steps"] / exit_s if exit_s > 0 else 0.0
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = overhead
    out["trace.spans"] = len(spans)
    return out
