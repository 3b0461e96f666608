"""One benchmark run in a fresh interpreter, started by bench/run.py.

The worker imports the package, draws the workload's inputs and prints
``READY``; that point ends set-up.  With --setup-only it exits there.
Otherwise it runs passes over the job list until another pass would end
after --seconds (at least one pass), clearing the package's lru caches
before each pass so every pass starts cold, and prints one JSON line with
the per-pass results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import metrics
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "thin_gasket" or name.startswith("thin_gasket."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(jobs, run_id: str, trace: bool) -> dict:
    _clear_caches()
    tr = tracing.Tracer(run_id, trace)
    state: dict = {}
    errors: dict[str, str] = {}
    cpu0, t0 = _cpu(), time.perf_counter()
    for job in jobs:
        try:
            job.run(state, tr)
        except Exception:  # a failing job is counted, and the pass goes on
            errors[job.name] = traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    for job in jobs:
        if job.name in errors:
            continue
        try:
            msg = job.check(state)
        except Exception:
            msg = "check raised " + traceback.format_exc(limit=3)
        if msg:
            errors[job.name] = msg
    out = {"wall_s": wall, "cpu_s": cpu, "attempted": len(jobs), "errors": errors}
    if trace:
        out["layers"] = metrics.per_layer(tr.spans, wall, tracing.overhead(tr.spans))
        out["spans"] = tr.spans
    del state
    gc.collect()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import thin_gasket
    src = (ROOT / "src").resolve()
    if src not in Path(thin_gasket.__file__).resolve().parents:
        print(f"thin_gasket imported from {thin_gasket.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    jobs = workloads.build(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, f"{args.workload}-s{args.seed}-p{len(passes)}",
                               bool(args.trace)))
        longest = max(p["wall_s"] for p in passes)
        if time.perf_counter() - start + longest > args.seconds:
            break

    import mpmath
    import numpy
    import scipy
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
