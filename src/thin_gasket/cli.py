"""Command-line entry point.

Subcommands cover graph construction and rendering, harmonic extension,
resistance, extension matrices, energy measures, the concentration
certificate and divergence statistic, scale-function checks, level
realization, slowly decaying profiles, random walks, and the acceptance
suite.  Outputs are deterministic for a fixed configuration: JSON for
machine reports, CSV for tables, SVG for figures.

Configuration comes from an optional key=value file (--config) overridden
by flags; the THIN_GASKET_OUT environment variable supplies the default
output directory.  Exit codes: 0 success, 1 failed check or domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import BudgetError, GasketError
from .forms import check_precision, harmonic_extend, harmonic_matrix
from .geometry import (boundary_cells, build_graph, graph_to_json, render_svg,
                       words)
from .measures import divergence_statistic, energy_measure, singularity_certificate
from .realization import (EtaFunction, comparability_report, realize_sequence,
                          slow_decay_eta, summability_report)
from .resistance import corner_resistance, effective_resistance
from .scales import (build_scale, comparison_checks, doubling_check,
                     knot_continuity_check, product_identity_check,
                     quadratic_envelope_check, same_segment_check)
from .sequence import LevelSequence
from .walks import WalkConfig, commute_time_check

OUT_ENV = "THIN_GASKET_OUT"

#: Largest l whose full listing `matrices` writes: its 3l - 3 matrices of
#: nine Fraction strings took 2.8 s and 210 MB peak at l = 10^4 on 2 vCPUs,
#: and grow linearly in l.  One --index is O(1) at any l.
MATRICES_MAX_L = 10_000

#: The words a config file's diverging= may hold; any other is refused.
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


# ---- Configuration -------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Normalized run configuration, read from key=value text and flags."""

    seq: tuple[int, ...] = (5,)
    continuation: str = "repeat-last"
    diverging: bool = False
    depth: int = 2
    seed: int = 0
    precision: str = "float"
    trials: int = 100_000
    out: str = "."

    @classmethod
    def from_items(cls, items: dict) -> "RunConfig":
        base = cls()
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(items) - known
        if unknown:
            raise GasketError(f"unknown config keys: {', '.join(sorted(unknown))}")
        vals = {}
        for key, raw in items.items():
            if key == "seq":
                vals[key] = _parse_seq(raw)
            elif key in ("depth", "seed", "trials"):
                vals[key] = _parse_int(key, raw)
            elif key == "diverging":
                word = raw.strip().lower()
                if word not in _BOOLEANS:
                    raise GasketError(f"diverging must be true, false, 1, 0, yes or no, "
                                      f"got {raw!r}")
                vals[key] = _BOOLEANS[word]
            elif key == "precision":
                vals[key] = raw.strip()
                check_precision(vals[key])
            else:
                vals[key] = raw.strip()
        return dataclasses.replace(base, **vals)

    def sequence(self) -> LevelSequence:
        cont = None if self.continuation == "none" else self.continuation
        return LevelSequence(self.seq, continuation=cont, diverging=self.diverging)


def _parse_int(key: str, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise GasketError(f"{key} must be an integer, got {raw!r}") from None


def _parse_fraction(key: str, raw) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise GasketError(f"{key} must be a fraction such as 1/5, got {raw!r}") from None


def _parse_seq(text) -> tuple[int, ...]:
    if isinstance(text, tuple):
        return text
    return tuple(_parse_int("seq entry", tok) for tok in str(text).split(",") if tok.strip())


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GasketError(f"cannot read config file {path}: {exc}") from None
    items = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GasketError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        items[key.strip()] = val.strip()
    return items


def resolve_config(args) -> RunConfig:
    """Merge defaults < config file < environment (out) < flags."""
    items = {}
    if getattr(args, "config", None):
        items.update(load_config(args.config))
    for key in ("seq", "continuation", "diverging", "depth", "seed",
                "precision", "trials", "out"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            items[key] = val
    if getattr(args, "out", None) is None and OUT_ENV in os.environ:
        items["out"] = os.environ[OUT_ENV]
    return RunConfig.from_items({k: v for k, v in items.items()})


# ---- Output helpers ------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"not serializable: {type(obj).__name__}")


def _write_json(path: Path, obj) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    return path


def _write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _write_csv(path: Path, header, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _seq_tag(cfg: RunConfig) -> str:
    return "-".join(str(l) for l in cfg.seq)


def _out_path(cfg: RunConfig, name: str) -> Path:
    return Path(cfg.out) / name


def _parse_pin(text: str, precision: str):
    parts = [tok.strip() for tok in text.split(",")]
    if len(parts) != 3:
        raise GasketError("pin must be three comma-separated corner values")
    values = tuple(_parse_fraction("pin value", tok) for tok in parts)
    if precision == "rational":
        return values
    try:
        return tuple(float(v) for v in values)
    except OverflowError:
        raise GasketError(f"float pin values must fit a double, got {text!r}") from None


def _value_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


def _word_tag(word) -> str:
    return "-".join(f"{a}.{b}" for a, b in word) if word else "root"


# ---- Subcommands ---------------------------------------------------------


def cmd_build(cfg: RunConfig, args) -> int:
    g = build_graph(cfg.sequence(), cfg.depth)
    path = _write_json(_out_path(cfg, f"build-{_seq_tag(cfg)}-d{cfg.depth}.json"),
                       graph_to_json(g))
    print(f"depth {cfg.depth} graph: {g.n_vertices} vertices, "
          f"{g.n_cells} cells, {g.n_edges} edges -> {path}")
    return 0


def cmd_render(cfg: RunConfig, args) -> int:
    g = build_graph(cfg.sequence(), cfg.depth)
    svg = render_svg(g, size=args.size)
    path = _write_text(_out_path(cfg, f"render-{_seq_tag(cfg)}-d{cfg.depth}.svg"), svg)
    print(f"rendered {g.n_cells} cells -> {path}")
    return 0


def cmd_energy(cfg: RunConfig, args) -> int:
    pin = _parse_pin(args.pin, cfg.precision)
    h = harmonic_extend(cfg.sequence(), pin, cfg.depth, method="cells",
                        precision=cfg.precision)
    value = h.energy(cfg.depth)
    report = {"seq": list(cfg.seq), "depth": cfg.depth, "pin": [str(p) for p in pin],
              "precision": cfg.precision, "energy": _value_str(value)}
    path = _write_json(_out_path(cfg, f"energy-{_seq_tag(cfg)}-d{cfg.depth}.json"),
                       report)
    print(f"extension energy at depth {cfg.depth}: {_value_str(value)} -> {path}")
    return 0


def cmd_extend(cfg: RunConfig, args) -> int:
    pin = _parse_pin(args.pin, cfg.precision)
    # the cascade runs inside extend, after build_graph's budget check
    h = harmonic_extend(cfg.sequence(), pin, 0, method="cells", precision=cfg.precision)
    g, values = h.extend(cfg.depth)
    rows = [(int(a), int(b), _value_str(v))
            for (a, b), v in zip(g.vertices, values)]
    path = _write_csv(_out_path(cfg, f"extend-{_seq_tag(cfg)}-d{cfg.depth}.csv"),
                      ("a", "b", "value"), rows)
    print(f"harmonic extension on {len(rows)} vertices -> {path}")
    return 0


def cmd_resistance(cfg: RunConfig, args) -> int:
    ls = cfg.sequence()
    if args.x is not None or args.y is not None:
        if args.x is None or args.y is None:
            raise GasketError("--x and --y must be given together")
        res = effective_resistance(ls, cfg.depth, args.x, args.y,
                                   precision=cfg.precision)
    else:
        corners = [_parse_int("corner", t) for t in args.corners.split(",")]
        if len(corners) != 2:
            raise GasketError(f"--corners takes two indices j,k, got {args.corners!r}")
        j, k = corners
        res = corner_resistance(ls, cfg.depth, j, k, precision=cfg.precision)
    report = {"seq": list(cfg.seq), "depth": cfg.depth, "x": res.x, "y": res.y,
              "method": res.method, "exact": res.exact,
              "value": _value_str(res.value), "residual": res.residual}
    path = _write_json(
        _out_path(cfg, f"resistance-{_seq_tag(cfg)}-d{cfg.depth}.json"), report)
    print(f"resistance({res.x}, {res.y}) = {_value_str(res.value)} -> {path}")
    return 0


def cmd_matrices(cfg: RunConfig, args) -> int:
    l = args.l
    if args.index:
        i = tuple(_parse_int("index entry", t) for t in args.index.split(","))
        mats = [harmonic_matrix(l, i)]
    else:
        if l > MATRICES_MAX_L:
            raise BudgetError(f"the full listing for level {l} holds {3 * l - 3} matrices "
                              f"(l > budget {MATRICES_MAX_L}); pick one with --index")
        mats = [harmonic_matrix(l, i) for i in boundary_cells(l)]
    payload = [{"index": list(m.index), "exact": True,
                "entries": [[str(x) for x in row] for row in m.entries]}
               for m in mats]
    path = _write_json(_out_path(cfg, f"matrices-l{l}.json"),
                       {"l": l, "matrices": payload})
    print(f"{len(mats)} extension matrices for level {l} -> {path}")
    return 0


def cmd_measure(cfg: RunConfig, args) -> int:
    pin = _parse_pin(args.pin, cfg.precision)
    h = harmonic_extend(cfg.sequence(), pin, cfg.depth, method="cells",
                        precision=cfg.precision)
    mu = energy_measure(h, cfg.depth)
    # a generator, so csv.writer streams the rows instead of holding them all
    rows = ((idx, _word_tag(w), _value_str(mu.masses[idx]))
            for idx, w in enumerate(words(h.ls, cfg.depth)))
    path = _write_csv(_out_path(cfg, f"measure-{_seq_tag(cfg)}-d{cfg.depth}.csv"),
                      ("index", "word", "mass"), rows)
    print(f"energy measure on {len(mu.masses)} cells, total {_value_str(mu.total)} "
          f"-> {path}")
    return 0


def cmd_certify(cfg: RunConfig, args) -> int:
    if cfg.precision == "rational":
        raise GasketError("certify runs in float precision only; it has no exact route")
    pin = _parse_pin(args.pin, "float")
    h = harmonic_extend(cfg.sequence(), pin, 0, method="cells", precision="float")
    rep = singularity_certificate(h, args.max_depth)
    payload = {"seq": list(cfg.seq), "pin": [repr(p) for p in pin],
               "max_depth": rep.max_depth, "gap": rep.gap,
               "n_admissible": rep.n_admissible, "max_excess": rep.max_excess,
               "records": [vars(r) for r in rep.records],
               "passed": rep.passed}
    path = _write_json(
        _out_path(cfg, f"certify-{_seq_tag(cfg)}-d{args.max_depth}.json"), payload)
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"[{verdict}] concentration certificate: {rep.n_admissible} admissible "
          f"cells, max excess {rep.max_excess:.2e} -> {path}")
    return 0 if rep.passed else 1


def cmd_diverge(cfg: RunConfig, args) -> int:
    if cfg.precision == "rational":
        raise GasketError("diverge runs in float precision only; it has no exact route")
    pin = _parse_pin(args.pin, "float")
    h = harmonic_extend(cfg.sequence(), pin, 0, method="cells", precision="float")
    rep = divergence_statistic(h, args.max_depth, n_samples=args.samples,
                               seed=cfg.seed)
    payload = {"seq": list(cfg.seq), "max_depth": rep.max_depth,
               "delta": rep.delta, "n_samples": rep.n_samples,
               "n_failures": rep.n_failures, "passed": rep.passed,
               "samples": [vars(s) for s in rep.samples]}
    path = _write_json(
        _out_path(cfg, f"diverge-{_seq_tag(cfg)}-d{args.max_depth}.json"), payload)
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"[{verdict}] divergence statistic on {rep.n_samples} addresses, "
          f"{rep.n_failures} failures -> {path}")
    return 0 if rep.passed else 1


def cmd_psi(cfg: RunConfig, args) -> int:
    if args.segments < 0:
        raise GasketError(f"psi lists knots 0..segments and needs segments >= 0, "
                          f"got {args.segments}")
    ls = cfg.sequence()
    kinds = ("time", "mass", "resistance") if args.kind == "all" else (args.kind,)
    payload = {"seq": list(cfg.seq), "kinds": {}}
    for kind in kinds:
        sc = build_scale(ls, kind)
        entry = {}
        if args.s is not None:
            s = _parse_fraction("--s", args.s)
            entry["s"] = str(s)
            entry["value"] = _value_str(sc.eval(s))
        if args.invert is not None:
            t = _parse_fraction("--invert", args.invert)
            entry["t"] = str(t)
            entry["inverse"] = str(sc.inverse(t))
        knots = []
        for n in range(args.segments + 1):
            s_n, v_n = sc.knot(n)
            knots.append({"n": n, "s": str(s_n), "value": str(v_n)})
        entry["knots"] = knots
        payload["kinds"][kind] = entry
    path = _write_json(_out_path(cfg, f"psi-{_seq_tag(cfg)}.json"), payload)
    for kind in kinds:
        entry = payload["kinds"][kind]
        bits = [f"{kind}"]
        if "value" in entry:
            bits.append(f"value({entry['s']}) = {entry['value']}")
        if "inverse" in entry:
            bits.append(f"inverse({entry['t']}) = {entry['inverse']}")
        print("  ".join(bits))
    print(f"scale report -> {path}")
    return 0


def cmd_doubling(cfg: RunConfig, args) -> int:
    ls = cfg.sequence()
    kinds = ("time", "mass", "resistance") if args.kind == "all" else (args.kind,)
    payload = {"seq": list(cfg.seq), "kinds": {}}
    ok = True
    for kind in kinds:
        sc = build_scale(ls, kind)
        checks = {
            "knots": knot_continuity_check(sc, args.segments),
            "doubling": doubling_check(sc, n_segments=args.segments),
        }
        if kind == "time":
            checks["product"] = product_identity_check(ls, n_segments=args.segments)
            checks["same_segment"] = same_segment_check(sc, args.segments)
            checks["envelope"] = quadratic_envelope_check(sc, args.segments)
        payload["kinds"][kind] = checks
        ok = ok and all(c["passed"] for c in checks.values())
    payload["passed"] = ok
    path = _write_json(_out_path(cfg, f"doubling-{_seq_tag(cfg)}.json"), payload)
    print(f"[{'PASS' if ok else 'FAIL'}] scale checks for kinds "
          f"{', '.join(kinds)} -> {path}")
    return 0 if ok else 1


def cmd_dm(cfg: RunConfig, args) -> int:
    g = build_graph(cfg.sequence(), cfg.depth)
    rep = comparison_checks(g, n_pairs=args.pairs, seed=cfg.seed)
    payload = {"seq": list(cfg.seq), "depth": rep.depth, "n_pairs": rep.n_pairs,
               "lambda_floor_count": rep.lambda_floor_count,
               "stats": [vars(s) for s in rep.stats],
               "passed": rep.passed}
    path = _write_json(_out_path(cfg, f"dm-{_seq_tag(cfg)}-d{cfg.depth}.json"),
                       payload)
    verdict = "PASS" if rep.passed else "FAIL"
    print(f"[{verdict}] comparison bounds on {rep.n_pairs} pairs -> {path}")
    return 0 if rep.passed else 1


def _eta_from_name(name: str) -> EtaFunction:
    if name.startswith("eta") and name[3:].isdigit():
        return EtaFunction.iterated(int(name[3:]))
    raise GasketError(f"unknown profile {name!r}; use eta1, eta2, ...")


def cmd_realize(cfg: RunConfig, args) -> int:
    eta = _eta_from_name(args.eta)
    res = realize_sequence(eta, args.n, n0=args.n0, min_ratio=args.min_ratio)
    # levels past n = 13 of eta1 outgrow the default 4300-digit int-to-str limit
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload = {"eta": res.eta_label, "n0": res.n0, "certified": res.certified,
                   "min_ratio": res.min_ratio,
                   "levels": [str(l) for l in res.entries],
                   "records": [dataclasses.asdict(r) for r in res.records]}
        path = _write_json(_out_path(cfg, f"realize-{args.eta}-n{args.n}.json"), payload)
    finally:
        sys.set_int_max_str_digits(digit_limit)
    head = ", ".join(str(l) for l in res.entries[:3])
    print(f"[{'PASS' if res.certified else 'FAIL'}] {args.n} levels from "
          f"{args.eta}: n0={res.n0}, levels {head}, ... -> {path}")
    return 0 if res.certified else 1


def cmd_compare(cfg: RunConfig, args) -> int:
    eta = _eta_from_name(args.eta)
    res = realize_sequence(eta, args.n)
    rep = comparability_report(eta, res)
    path = _write_json(_out_path(cfg, f"compare-{args.eta}-n{args.n}.json"), rep)
    verdict = "PASS" if rep["passed"] else "FAIL"
    print(f"[{verdict}] ratio range [{rep['ratio_min']:.4f}, "
          f"{rep['ratio_max']:.4f}] against budget "
          f"({rep['budget'][0]:.4f}, {rep['budget'][1]:.1f}) -> {path}")
    return 0 if rep["passed"] else 1


def cmd_slowdecay(cfg: RunConfig, args) -> int:
    power = args.power
    if not math.isfinite(power):
        raise GasketError(f"--power must be finite, got {power}")

    def psi0(r: float) -> float:
        return r ** power

    eta, rep = slow_decay_eta(psi0, n_max=args.n_max)
    summ = summability_report(eta, n_terms=args.n_max)
    payload = {"power": power, "report": rep, "summable": summ["summable"]}
    path = _write_json(_out_path(cfg, f"slowdecay-p{power}.json"), payload)
    ok = rep["passed"] and summ["summable"]
    print(f"[{'PASS' if ok else 'FAIL'}] slow-decay profile from r^{power}: "
          f"{args.n_max} knot levels, summable={summ['summable']} -> {path}")
    return 0 if ok else 1


def cmd_walk(cfg: RunConfig, args) -> int:
    g = build_graph(cfg.sequence(), cfg.depth)
    wc = WalkConfig(trials=cfg.trials, max_steps=args.max_steps, seed=cfg.seed)
    rep = commute_time_check(g, x=args.x, y=args.y, cfg=wc)
    rows = [
        ("empirical_mean", repr(rep["empirical_mean"])),
        ("stderr", repr(rep["stderr"])),
        ("predicted", repr(rep["predicted"])),
        ("z_score", repr(rep["z_score"])),
        ("trials", rep["trials"]),
        ("capped", rep["capped"]),
    ]
    path = _write_csv(_out_path(cfg, f"walk-{_seq_tag(cfg)}-d{cfg.depth}.csv"),
                      ("metric", "value"), rows)
    verdict = "PASS" if rep["passed"] else "FAIL"
    print(f"[{verdict}] commute {rep['empirical_mean']:.3f} vs "
          f"{rep['predicted']:.3f} (z {rep['z_score']:+.2f}) -> {path}")
    return 0 if rep["passed"] else 1


def cmd_verify_all(cfg: RunConfig, args) -> int:
    numbers = None
    if args.only:
        numbers = {_parse_int("criterion number", t) for t in args.only.split(",")}
    results = acceptance.run_all(numbers=numbers, out=None)
    payload = acceptance.results_json(results)
    path = _write_json(_out_path(cfg, "verify-all.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"verdict -> {path}", file=sys.stderr)
    return 0 if payload["passed"] else 1


# ---- Parser --------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seq", type=str, default=None,
                        help="comma-separated subdivision levels, e.g. 5,7,6")
    common.add_argument("--continuation", choices=("none", "repeat-last"),
                        default=None)
    common.add_argument("--diverging", action="store_const", const="true",
                        default=None, help="mark the sequence as diverging")
    common.add_argument("--depth", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--precision", choices=("rational", "float"), default=None)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--out", type=str, default=None,
                        help=f"output directory (default: ${OUT_ENV} or .)")
    common.add_argument("--config", type=str, default=None,
                        help="key=value configuration file")

    p = argparse.ArgumentParser(prog="thin-gasket",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="verb", required=True)

    sub.add_parser("build", parents=[common]).set_defaults(fn=cmd_build)

    sp = sub.add_parser("render", parents=[common])
    sp.add_argument("--size", type=float, default=600.0)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("energy", parents=[common])
    sp.add_argument("--pin", type=str, default="1,0,0")
    sp.set_defaults(fn=cmd_energy)

    sp = sub.add_parser("extend", parents=[common])
    sp.add_argument("--pin", type=str, default="1,0,0")
    sp.set_defaults(fn=cmd_extend)

    sp = sub.add_parser("resistance", parents=[common])
    sp.add_argument("--corners", type=str, default="0,1")
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--y", type=int, default=None)
    sp.set_defaults(fn=cmd_resistance)

    sp = sub.add_parser("matrices", parents=[common])
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--index", type=str, default=None,
                    help="single cell index i1,i2")
    sp.set_defaults(fn=cmd_matrices)

    sp = sub.add_parser("measure", parents=[common])
    sp.add_argument("--pin", type=str, default="1,0,0")
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("certify", parents=[common])
    sp.add_argument("--pin", type=str, default="1,0,0")
    sp.add_argument("--max-depth", type=int, default=3)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("diverge", parents=[common])
    sp.add_argument("--pin", type=str, default="1,0,0")
    sp.add_argument("--max-depth", type=int, default=3)
    sp.add_argument("--samples", type=int, default=200)
    sp.set_defaults(fn=cmd_diverge)

    sp = sub.add_parser("psi", parents=[common])
    sp.add_argument("--kind", choices=("time", "mass", "resistance", "all"),
                    default="all")
    sp.add_argument("--s", type=str, default=None,
                    help="evaluation point as a fraction, e.g. 1/5")
    sp.add_argument("--invert", type=str, default=None,
                    help="value whose preimage to compute")
    sp.add_argument("--segments", type=int, default=4)
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("doubling", parents=[common])
    sp.add_argument("--kind", choices=("time", "mass", "resistance", "all"),
                    default="all")
    sp.add_argument("--segments", type=int, default=5)
    sp.set_defaults(fn=cmd_doubling)

    sp = sub.add_parser("dm", parents=[common])
    sp.add_argument("--pairs", type=int, default=200)
    sp.set_defaults(fn=cmd_dm)

    sp = sub.add_parser("realize", parents=[common])
    sp.add_argument("--eta", type=str, default="eta1")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--n0", type=int, default=None)
    sp.add_argument("--min-ratio", type=int, default=5)
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("compare", parents=[common])
    sp.add_argument("--eta", type=str, default="eta1")
    sp.add_argument("--n", type=int, default=8)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("slowdecay", parents=[common])
    sp.add_argument("--power", type=float, default=2.5)
    sp.add_argument("--n-max", type=int, default=6)
    sp.set_defaults(fn=cmd_slowdecay)

    sp = sub.add_parser("walk", parents=[common])
    sp.add_argument("--max-steps", type=int, default=10_000_000)
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--y", type=int, default=None)
    sp.set_defaults(fn=cmd_walk)

    sp = sub.add_parser("verify-all", parents=[common])
    sp.add_argument("--only", type=str, default=None,
                    help="comma-separated criterion numbers")
    sp.set_defaults(fn=cmd_verify_all)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.fn(cfg, args)
    except GasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
