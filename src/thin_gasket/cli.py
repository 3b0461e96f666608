"""Command-line entry point.

Verbs cover graph construction and rendering, harmonic extension, resistance,
extension matrices, energy measures, the concentration certificate and
divergence statistic, scale-function checks, level realization, slowly
decaying profiles, random walks, and the acceptance suite.  One table, VERBS,
declares each verb's handler, the flags it reads (any other is a usage error)
and whether it runs in float only (certify, diverge, dm, walk:
precision rational is refused).  Outputs are deterministic for a fixed
configuration: JSON for machine reports, CSV for tables, SVG for figures.

Configuration comes from an optional key=value file (--config) overridden
by flags.  Every key of the file is checked, whichever verb runs; a verb
ignores the keys it does not read.  The THIN_GASKET_OUT environment variable
supplies the default output directory.  Exit codes: 0 success, 1 failed
check or domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import numbers
import os
import re
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

from .errors import BudgetError, GasketError
from .forms import check_precision, harmonic_extend, harmonic_matrix
from .geometry import (boundary_cells, build_graph, graph_to_json, render_svg,
                       words)
from .measures import divergence_statistic, energy_measure, singularity_certificate
from .realization import (EtaFunction, comparability_report, realize_sequence,
                          slow_decay_eta, summability_report)
from .resistance import corner_resistance, effective_resistance
from .scales import (KINDS, PiecewiseScale, comparison_checks, doubling_check,
                     knot_continuity_check, product_identity_check,
                     quadratic_envelope_check, same_segment_check)
from .sequence import LevelSequence
from .walks import WalkConfig, commute_time_check

OUT_ENV = "THIN_GASKET_OUT"

#: Largest l whose full listing `matrices` writes: its 3l - 3 matrices of
#: nine Fraction strings took 2.8 s and 210 MB peak at l = 10^4 on 2 vCPUs,
#: and grow linearly in l.  One --index is O(1) at any l.
MATRICES_MAX_L = 10_000

#: Input fractions' numerators and denominators stay below the default
#: int-to-str limit, which main lifts: none reaches the quadratic conversion.
_MAX_INPUT = 10 ** 4300
#: A decimal with an exponent, in the syntax Fraction accepts.
_DECIMAL = re.compile(r"\s*[-+]?(?=\d|\.\d)(?P<int>\d+(?:_\d+)*)?"
                      r"(?:\.(?P<frac>\d+(?:_\d+)*)?)?[eE](?P<exp>[-+]?\d+(?:_\d+)*)\s*", re.ASCII)


# ---- Configuration -------------------------------------------------------


def _parse_int(key: str, raw) -> int:
    try:
        return int(raw)
    except ValueError:
        raise GasketError(f"{key} must be an integer, got {raw!r}") from None


def _parse_fraction(key: str, raw) -> Fraction:
    too_large = f"{key} is too large: its numerator or denominator has more than 4300 digits"
    # Fraction computes 10**exp: answer a zero mantissa first, and refuse an
    # exponent past 4300 + the mantissa's digits, which fails the check below
    decimal = _DECIMAL.fullmatch(raw)
    if decimal:
        digits = ((decimal["int"] or "") + (decimal["frac"] or "")).replace("_", "")
        if not digits.strip("0"):
            return Fraction(0)
        # the length first: int() refuses a string past the digit limit
        exp = decimal["exp"].lstrip("+-").replace("_", "").lstrip("0")
        if len(exp) > 20 or int(exp or 0) > 4300 + len(digits):
            raise GasketError(too_large)
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise GasketError(f"{key} must be a fraction such as 1/5, got {raw!r}") from None
    if max(abs(value.numerator), value.denominator) >= _MAX_INPUT:
        raise GasketError(too_large)
    return value


def _parse_seq(text) -> tuple[int, ...]:
    return tuple(_parse_int("seq entry", tok) for tok in text.split(",") if tok.strip())


def _parse_continuation(raw) -> str | None:
    word = raw.strip()
    if word not in ("none", "repeat-last"):
        raise GasketError(f"unknown continuation rule {word!r}")
    return None if word == "none" else word


def _parse_diverging(raw) -> bool:
    word = raw.strip().lower()
    if word not in ("true", "1", "yes", "false", "0", "no"):
        raise GasketError(f"diverging must be true, false, 1, 0, yes or no, got {raw!r}")
    return word in ("true", "1", "yes")


def _parse_precision(raw) -> str:
    check_precision(raw.strip())
    return raw.strip()


#: The keys a config file may set: key -> (default, the parser a file's or a
#: flag's value goes through).
_SETTINGS = {
    "seq": ((5,), _parse_seq),
    "continuation": ("repeat-last", _parse_continuation),
    "diverging": (False, _parse_diverging),
    "depth": (2, partial(_parse_int, "depth")),
    "seed": (0, partial(_parse_int, "seed")),
    "precision": ("float", _parse_precision),
    "trials": (100_000, partial(_parse_int, "trials")),
    "out": (".", str.strip),
}


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


def _resolve_settings(args) -> None:
    """Set each key of _SETTINGS on args: flag > $THIN_GASKET_OUT (out only) >
    config file > default.  Every key of the file is parsed."""
    items = load_config(args.config) if args.config else {}
    unknown = set(items) - set(_SETTINGS)
    if unknown:
        raise GasketError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if args.out is None and OUT_ENV in os.environ:
        items["out"] = os.environ[OUT_ENV]
    for key, (default, parse) in _SETTINGS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            items[key] = flag
        setattr(args, key, parse(items[key]) if key in items else default)


def _sequence(args) -> LevelSequence:
    return LevelSequence(args.seq, continuation=args.continuation, diverging=args.diverging)


# ---- Output helpers ------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
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


def _seq_tag(args) -> str:
    return "-".join(str(l) for l in args.seq)


def _out_path(args, name: str) -> Path:
    return Path(args.out) / name


def _extension(args, depth: int):
    """The harmonic extension of the --pin text, three comma-separated
    fractions, to `depth`: exact in rational precision, doubles otherwise."""
    parts = [tok.strip() for tok in args.pin.split(",")]
    if len(parts) != 3:
        raise GasketError("pin must be three comma-separated corner values")
    pin = tuple(_parse_fraction("pin value", tok) for tok in parts)
    if args.precision != "rational":
        try:
            pin = tuple(float(v) for v in pin)
        except OverflowError:
            raise GasketError(f"float pin values must fit a double, "
                              f"got {args.pin!r}") from None
    return harmonic_extend(_sequence(args), pin, depth, precision=args.precision)


def _verdict(ok, text: str, path: Path) -> int:
    """Print a check's [PASS] or [FAIL] line; its exit code."""
    print(f"[{'PASS' if ok else 'FAIL'}] {text} -> {path}")
    return 0 if ok else 1


def _value_str(x) -> str:
    return str(x) if isinstance(x, Fraction) else repr(float(x))


def _word_tag(word) -> str:
    return "-".join(f"{a}.{b}" for a, b in word) if word else "root"


# ---- Subcommands ---------------------------------------------------------


def cmd_build(args) -> int:
    g = build_graph(_sequence(args), args.depth)
    path = _write_json(_out_path(args, f"build-{_seq_tag(args)}-d{args.depth}.json"),
                       graph_to_json(g))
    print(f"depth {args.depth} graph: {g.n_vertices} vertices, "
          f"{g.n_cells} cells, {g.n_edges} edges -> {path}")
    return 0


def cmd_render(args) -> int:
    g = build_graph(_sequence(args), args.depth)
    svg = render_svg(g, size=args.size)
    path = _write_text(_out_path(args, f"render-{_seq_tag(args)}-d{args.depth}.svg"), svg)
    print(f"rendered {g.n_cells} cells -> {path}")
    return 0


def cmd_energy(args) -> int:
    h = _extension(args, args.depth)
    value = h.energy(args.depth)
    report = {"seq": list(args.seq), "depth": args.depth, "pin": [str(p) for p in h.pin],
              "precision": args.precision, "energy": _value_str(value)}
    path = _write_json(_out_path(args, f"energy-{_seq_tag(args)}-d{args.depth}.json"),
                       report)
    print(f"extension energy at depth {args.depth}: {_value_str(value)} -> {path}")
    return 0


def cmd_extend(args) -> int:
    # the cascade runs inside extend, after build_graph's budget check
    h = _extension(args, 0)
    g, values = h.extend(args.depth)
    rows = [(int(a), int(b), _value_str(v))
            for (a, b), v in zip(g.vertices, values)]
    path = _write_csv(_out_path(args, f"extend-{_seq_tag(args)}-d{args.depth}.csv"),
                      ("a", "b", "value"), rows)
    print(f"harmonic extension on {len(rows)} vertices -> {path}")
    return 0


def cmd_resistance(args) -> int:
    ls = _sequence(args)
    if args.x is not None or args.y is not None:
        if args.x is None or args.y is None or args.corners is not None:
            raise GasketError("--x and --y must be given together, and without --corners")
        res = effective_resistance(ls, args.depth, args.x, args.y,
                                   precision=args.precision)
    else:
        text = "0,1" if args.corners is None else args.corners
        corners = [_parse_int("corner", t) for t in text.split(",")]
        if len(corners) != 2:
            raise GasketError(f"--corners takes two indices j,k, got {text!r}")
        j, k = corners
        res = corner_resistance(ls, args.depth, j, k, precision=args.precision)
    report = {"seq": list(args.seq), "depth": args.depth, "x": res.x, "y": res.y,
              "method": res.method, "exact": res.exact,
              "value": _value_str(res.value), "residual": res.residual}
    path = _write_json(
        _out_path(args, f"resistance-{_seq_tag(args)}-d{args.depth}.json"), report)
    print(f"resistance({res.x}, {res.y}) = {_value_str(res.value)} -> {path}")
    return 0


def cmd_matrices(args) -> int:
    l = args.l
    if args.index is not None:
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
    path = _write_json(_out_path(args, f"matrices-l{l}.json"),
                       {"l": l, "matrices": payload})
    print(f"{len(mats)} extension matrices for level {l} -> {path}")
    return 0


def cmd_measure(args) -> int:
    h = _extension(args, args.depth)
    mu = energy_measure(h, args.depth)
    # a generator, so csv.writer streams the rows instead of holding them all
    rows = ((idx, _word_tag(w), _value_str(mu.masses[idx]))
            for idx, w in enumerate(words(h.ls, args.depth)))
    path = _write_csv(_out_path(args, f"measure-{_seq_tag(args)}-d{args.depth}.csv"),
                      ("index", "word", "mass"), rows)
    print(f"energy measure on {len(mu.masses)} cells, total {_value_str(mu.total)} "
          f"-> {path}")
    return 0


def cmd_certify(args) -> int:
    h = _extension(args, 0)
    rep = singularity_certificate(h, args.max_depth)
    payload = {"seq": list(args.seq), "pin": [repr(p) for p in h.pin],
               "max_depth": rep.max_depth, "gap": rep.gap,
               "n_admissible": rep.n_admissible, "max_excess": rep.max_excess,
               "records": [vars(r) for r in rep.records],
               "passed": rep.passed}
    path = _write_json(
        _out_path(args, f"certify-{_seq_tag(args)}-d{args.max_depth}.json"), payload)
    return _verdict(rep.passed, f"concentration certificate: {rep.n_admissible} "
                    f"admissible cells, max excess {rep.max_excess:.2e}", path)


def cmd_diverge(args) -> int:
    rep = divergence_statistic(_extension(args, 0), args.max_depth,
                               n_samples=args.samples, seed=args.seed)
    payload = {"seq": list(args.seq), "max_depth": rep.max_depth,
               "delta": rep.delta, "n_samples": rep.n_samples,
               "n_failures": rep.n_failures, "passed": rep.passed,
               "samples": [vars(s) for s in rep.samples]}
    path = _write_json(
        _out_path(args, f"diverge-{_seq_tag(args)}-d{args.max_depth}.json"), payload)
    return _verdict(rep.passed, f"divergence statistic on {rep.n_samples} addresses, "
                    f"{rep.n_failures} failures", path)


def cmd_psi(args) -> int:
    if args.segments < 0:
        raise GasketError(f"psi lists knots 0..segments and needs segments >= 0, "
                          f"got {args.segments}")
    ls = _sequence(args)
    kinds = KINDS if args.kind == "all" else (args.kind,)
    payload = {"seq": list(args.seq), "kinds": {}}
    for kind in kinds:
        sc = PiecewiseScale(ls, kind)
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
    path = _write_json(_out_path(args, f"psi-{_seq_tag(args)}.json"), payload)
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


def cmd_doubling(args) -> int:
    ls = _sequence(args)
    kinds = KINDS if args.kind == "all" else (args.kind,)
    payload = {"seq": list(args.seq), "kinds": {}}
    ok = True
    for kind in kinds:
        sc = PiecewiseScale(ls, kind)
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
    path = _write_json(_out_path(args, f"doubling-{_seq_tag(args)}.json"), payload)
    return _verdict(ok, f"scale checks for kinds {', '.join(kinds)}", path)


def cmd_dm(args) -> int:
    g = build_graph(_sequence(args), args.depth)
    rep = comparison_checks(g, n_pairs=args.pairs, seed=args.seed)
    payload = {"seq": list(args.seq), "depth": rep.depth, "n_pairs": rep.n_pairs,
               "lambda_floor_count": rep.lambda_floor_count,
               "stats": [vars(s) for s in rep.stats],
               "passed": rep.passed}
    path = _write_json(_out_path(args, f"dm-{_seq_tag(args)}-d{args.depth}.json"),
                       payload)
    return _verdict(rep.passed, f"comparison bounds on {rep.n_pairs} pairs", path)


def _eta_from_name(name: str) -> EtaFunction:
    if name.startswith("eta") and name[3:].isdigit():
        return EtaFunction.iterated(int(name[3:]))
    raise GasketError(f"unknown profile {name!r}; use eta1, eta2, ...")


def cmd_realize(args) -> int:
    eta = _eta_from_name(args.eta)
    res = realize_sequence(eta, args.n, n0=args.n0, min_ratio=args.min_ratio)
    payload = {"eta": res.eta_label, "n0": res.n0, "certified": res.certified,
               "min_ratio": res.min_ratio,
               "levels": [str(l) for l in res.entries],
               "records": [dataclasses.asdict(r) for r in res.records]}
    path = _write_json(_out_path(args, f"realize-{args.eta}-n{args.n}.json"), payload)
    head = ", ".join(str(l) for l in res.entries[:3])
    return _verdict(res.certified, f"{args.n} levels from {args.eta}: n0={res.n0}, "
                    f"levels {head}, ...", path)


def cmd_compare(args) -> int:
    eta = _eta_from_name(args.eta)
    res = realize_sequence(eta, args.n)
    rep = comparability_report(eta, res)
    path = _write_json(_out_path(args, f"compare-{args.eta}-n{args.n}.json"), rep)
    return _verdict(rep["passed"], f"ratio range [{rep['ratio_min']:.4f}, "
                    f"{rep['ratio_max']:.4f}] against budget "
                    f"({rep['budget'][0]:.4f}, {rep['budget'][1]:.1f})", path)


def cmd_slowdecay(args) -> int:
    power = args.power
    eta, rep = slow_decay_eta(power, n_max=args.n_max)
    summ = summability_report(eta, n_terms=args.n_max)
    payload = {"power": power, "report": rep, "summable": summ["summable"]}
    path = _write_json(_out_path(args, f"slowdecay-p{power}.json"), payload)
    return _verdict(rep["passed"] and summ["summable"],
                    f"slow-decay profile from r^{power}: {args.n_max} knot levels, "
                    f"summable={summ['summable']}", path)


def cmd_walk(args) -> int:
    g = build_graph(_sequence(args), args.depth)
    wc = WalkConfig(trials=args.trials, max_steps=args.max_steps, seed=args.seed)
    rep = commute_time_check(g, x=args.x, y=args.y, cfg=wc)
    rows = [
        ("empirical_mean", repr(rep["empirical_mean"])),
        ("stderr", repr(rep["stderr"])),
        ("predicted", repr(rep["predicted"])),
        ("z_score", repr(rep["z_score"])),
        ("trials", rep["trials"]),
        ("capped", rep["capped"]),
    ]
    path = _write_csv(_out_path(args, f"walk-{_seq_tag(args)}-d{args.depth}.csv"),
                      ("metric", "value"), rows)
    return _verdict(rep["passed"], f"commute {rep['empirical_mean']:.3f} vs "
                    f"{rep['predicted']:.3f} (z {rep['z_score']:+.2f})", path)


def cmd_verify_all(args) -> int:
    numbers = None
    if args.only is not None:
        numbers = {_parse_int("criterion number", t) for t in args.only.split(",")}
    from . import acceptance  # here, not at load: acceptance loads linalg and scipy
    results = acceptance.run_all(numbers=numbers, out=None)
    payload = acceptance.results_json(results)
    path = _write_json(_out_path(args, "verify-all.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"verdict -> {path}", file=sys.stderr)
    return 0 if payload["passed"] else 1


# ---- Verb table and parser -----------------------------------------------


# Flags that more than one verb takes: (option string, add_argument keywords).
_SEQ = (("--seq", dict(type=str, default=None,
                       help="comma-separated subdivision levels, e.g. 5,7,6")),
        ("--continuation", dict(choices=("none", "repeat-last"), default=None)))
_DIVERGING = (("--diverging", dict(action="store_const", const="true", default=None,
                                   help="mark the sequence as diverging")),)
_DEPTH = (("--depth", dict(type=int, default=None)),)
_SEED = (("--seed", dict(type=int, default=None)),)
_PRECISION = (("--precision", dict(choices=("rational", "float"), default=None)),)
_OUT_CONFIG = (("--out", dict(type=str, default=None,
                              help=f"output directory (default: ${OUT_ENV} or .)")),
               ("--config", dict(type=str, default=None, help="key=value configuration file")))
_PIN = (("--pin", dict(type=str, default="1,0,0")),)
_MAX_DEPTH = (("--max-depth", dict(type=int, default=3)),)
_KIND = (("--kind", dict(choices=(*KINDS, "all"), default="all")),)
_XY = (("--x", dict(type=int, default=None)), ("--y", dict(type=int, default=None)))
_ETA_N = (("--eta", dict(type=str, default="eta1")), ("--n", dict(type=int, default=8)))

#: verb -> (handler, the flags it reads besides --out and --config, float
#: only).  A float-only verb has no exact route: precision rational, from a
#: flag or a config file, is refused before any work.
VERBS = {
    "build": (cmd_build, (*_SEQ, *_DEPTH), False),
    "render": (cmd_render, (*_SEQ, *_DEPTH, ("--size", dict(type=float, default=600.0))), False),
    "energy": (cmd_energy, (*_SEQ, *_DEPTH, *_PRECISION, *_PIN), False),
    "extend": (cmd_extend, (*_SEQ, *_DEPTH, *_PRECISION, *_PIN), False),
    "resistance": (cmd_resistance, (*_SEQ, *_DEPTH, *_PRECISION,
                                    ("--corners", dict(type=str, default=None)), *_XY), False),
    "matrices": (cmd_matrices, (
        ("--l", dict(type=int, required=True)),
        ("--index", dict(type=str, default=None, help="single cell index i1,i2"))), False),
    "measure": (cmd_measure, (*_SEQ, *_DEPTH, *_PRECISION, *_PIN), False),
    "certify": (cmd_certify, (*_SEQ, *_PRECISION, *_PIN, *_MAX_DEPTH), True),
    "diverge": (cmd_diverge, (*_SEQ, *_SEED, *_PRECISION, *_PIN, *_MAX_DEPTH,
                              ("--samples", dict(type=int, default=200))), True),
    "psi": (cmd_psi, (
        *_SEQ, *_DIVERGING, *_KIND,
        ("--s", dict(type=str, default=None, help="evaluation point as a fraction, e.g. 1/5")),
        ("--invert", dict(type=str, default=None, help="value whose preimage to compute")),
        ("--segments", dict(type=int, default=4))), False),
    "doubling": (cmd_doubling, (*_SEQ, *_DIVERGING, *_KIND,
                                ("--segments", dict(type=int, default=5))), False),
    "dm": (cmd_dm, (*_SEQ, *_DIVERGING, *_DEPTH, *_SEED, *_PRECISION,
                    ("--pairs", dict(type=int, default=200))), True),
    "realize": (cmd_realize, (*_ETA_N, ("--n0", dict(type=int, default=None)),
                              ("--min-ratio", dict(type=int, default=5))), False),
    "compare": (cmd_compare, _ETA_N, False),
    "slowdecay": (cmd_slowdecay, (("--power", dict(type=float, default=2.5)),
                                  ("--n-max", dict(type=int, default=6))), False),
    "walk": (cmd_walk, (*_SEQ, *_DEPTH, *_SEED, *_PRECISION,
                        ("--trials", dict(type=int, default=None)),
                        ("--max-steps", dict(type=int, default=10_000_000)), *_XY), True),
    "verify-all": (cmd_verify_all, (
        ("--only", dict(type=str, default=None, help="comma-separated criterion numbers")),),
        False),
}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thin-gasket",
                                description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (_, flags, _) in VERBS.items():
        sp = sub.add_parser(verb)
        for option, kwargs in (*flags, *_OUT_CONFIG):
            sp.add_argument(option, **kwargs)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler, _, float_only = VERBS[args.verb]
    try:
        _resolve_settings(args)
        if float_only and args.precision == "rational":
            raise GasketError(f"{args.verb} runs in float precision only; "
                              "it has no exact route")
        # exact values and realized levels (l_14 of eta1 has 7116 digits) outgrow
        # the default 4300-digit int-to-str limit; _parse_fraction keeps inputs within it
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return handler(args)
        finally:
            sys.set_int_max_str_digits(digit_limit)
    except GasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
