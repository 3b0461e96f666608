"""Benchmark of the thin_gasket package: one command, three workloads.

    python3 bench/run.py --workload {verify,deep,thin} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all [--seed N] [--seconds S]

A run measures one workload in fresh interpreters started from this
checkout's ``src``: it times set-up (interpreter start, ``import thin_gasket``
and drawing the inputs) in three interpreters and takes the median, then runs
the workload's job list in the last of them, pass after pass, for about
--seconds.  Every job's output is checked.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 the passes are traced and it reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record, with the
environment, per-pass errors and the spans, goes to bench/results/.

``--workload all`` runs every workload untraced and traced, prints a table
with fail_frac and the tracing overhead (traced minus untraced wall time),
and exits 1 if any output check failed.  Workloads and metrics are listed in
BENCHMARK.json; why each workload was chosen is in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify", "deep", "thin")
SETUPS = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONHASHSEED"] = "0"
    return env


def _capture(cmd: list[str]) -> str | None:
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 and p.stdout.strip() else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [ROOT / "pyproject.toml"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    cap = _nproc()
    return {
        "commit": _capture(["git", "rev-parse", "HEAD"]),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
        "nproc": cap,
        "blas_threads_cap": cap,
        "l2_bytes_per_core": _capture(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _capture(["getconf", "LEVEL3_CACHE_SIZE"]),
    }


class Child:
    """One worker interpreter; its set-up time ends when it prints READY."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                     text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.kill()
            raise
        if line.strip() != "READY":
            self.kill()
            raise RunError(f"worker did not start (exit code {self.proc.returncode})")
        self.setup_s = time.perf_counter() - t0

    def _left(self) -> float:
        return max(self.deadline - time.perf_counter(), 0.0)

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.kill()
            raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s limit")
        except BaseException:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RunError(f"worker exited with code {self.proc.returncode}")
        return out

    def kill(self) -> None:
        self.proc.kill()
        self.proc.communicate()


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One run: set-up timed SETUPS times, then the passes in the last worker."""
    deadline = time.perf_counter() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--size", size]
    setups = []
    for _ in range(SETUPS - 1):
        child = Child(args + ["--setup-only"], deadline)
        child.finish()
        setups.append(child.setup_s)
    child = Child(args, deadline)
    setups.append(child.setup_s)
    data = json.loads(child.finish().strip().splitlines()[-1])

    passes = data["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    if trace:
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in metrics.PER_LAYER}
        units = metrics.PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": data["peak_rss_mb"],
            "pass_frac": 1.0 - failed / attempted,
        }
        units = metrics.END_TO_END
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "environment": {**environment(), **data["versions"]},
        "setup_samples_s": setups,
        "passes": passes,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _save(rec: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    path.write_text(json.dumps(rec, indent=1))
    return path


def _summary(rec: dict) -> dict:
    return {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}


def _report(rec: dict) -> None:
    env = rec["environment"]
    print(f"# {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"{len(rec['passes'])} pass(es); commit {env['commit']}; python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, mpmath {env['mpmath']}; "
          f"nproc {env['nproc']}, BLAS threads <= {env['blas_threads_cap']}; "
          f"L2 {env['l2_bytes_per_core']} B/core, L3 {env['l3_bytes']} B")
    for p in rec["passes"]:
        for job, err in p["errors"].items():
            print(f"# FAILED {job}: {err.strip().splitlines()[-1]}")
    for name, m in rec["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {rec['fail_frac']:.6g} ({rec['failed']}/{rec['attempted']})")


def run_all(seed: int, seconds: float, size: str) -> int:
    rows, ok = [], True
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, 0, size)
        traced = measure(workload, seed, seconds, 1, size)
        for rec in (plain, traced):
            _save(rec)
            _report(rec)
            ok = ok and rec["correct"]
        m = plain["metrics"]
        rows.append((workload, m["wall_s"]["value"], m["cpu_s"]["value"], m["setup_s"]["value"],
                     m["peak_rss_mb"]["value"], plain["fail_frac"],
                     traced["metrics"]["trace.wall_s"]["value"] - m["wall_s"]["value"],
                     traced["metrics"]["trace.overhead_s"]["value"]))
    print(f"{'workload':8} {'wall_s':>8} {'cpu_s':>8} {'setup_s':>8} {'peak_rss_mb':>11} "
          f"{'fail_frac':>9} {'traced-untraced_s':>17} {'span_overhead_s':>15}")
    for r in rows:
        print(f"{r[0]:8} {r[1]:8.3f} {r[2]:8.3f} {r[3]:8.3f} {r[4]:11.1f} {r[5]:9.3g} "
              f"{r[6]:17.3f} {r[7]:15.2e}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the job lists at reduced size, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thin_gasket" / "__init__.py").is_file():
        print(f"no thin_gasket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.size)
        rec = measure(args.workload, args.seed, args.seconds, args.trace, args.size)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    path = _save(rec)
    _report(rec)
    print(f"# record -> {path.relative_to(ROOT)}")
    print(json.dumps(_summary(rec)))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
