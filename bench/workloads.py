"""The benchmark's three workloads: job lists, seeded inputs and output checks.

Each workload is a list of jobs run one after another in one process.  A job
calls public functions of the package inside spans named after the layer it
enters and stores what it produced in a shared state dict; its check reads
that state after the timed pass and returns None or a failure message.  A
job whose input is missing because an earlier job failed raises, and so
counts as failed too.

Inputs come from ``numpy.random.default_rng(seed)`` and are drawn before the
first job, as part of set-up.  The package receives only the drawn values.
Why each workload exists is written in bench/README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.sparse import csgraph

from thin_gasket import (acceptance, forms, geometry, linalg, measures,
                         realization, resistance, scales, walks)
from thin_gasket.sequence import LevelSequence

#: Tolerance `linalg.pinned_solve` enforces with its default rtol of 1e-12.
SOLVE_TOL = 1e-10
#: The realized eta1 prefix stated in the paper's example.
ETA1_PREFIX = (9, 58, 3001, 8888829)


@dataclass
class Job:
    name: str
    run: Callable[[dict, object], None]
    check: Callable[[dict], str | None]


# Full sizes are the benchmark; tiny sizes exist for the harness self-test.
SIZES = {
    "verify": {
        "full": {"criteria": tuple(range(1, 11))},
        # criterion 10 alone takes most of a minute
        "tiny": {"criteria": tuple(range(1, 10))},
    },
    "deep": {
        "full": {"graph_depths": (4, 5), "solve_depth": 5, "cg_depth": 4,
                 "factor_depth": 5, "queries": 24, "cascade_depth": 6,
                 "div_samples": 200, "compare_depth": 3, "compare_pairs": 200,
                 "exit_depth": 3, "exit_radii": (1, 2, 3, 4), "exit_cells": 12,
                 "exit_trials": 20_000},
        "tiny": {"graph_depths": (2, 3), "solve_depth": 3, "cg_depth": 2,
                 "factor_depth": 3, "queries": 4, "cascade_depth": 3,
                 "div_samples": 20, "compare_depth": 2, "compare_pairs": 20,
                 "exit_depth": 2, "exit_radii": (1, 2), "exit_cells": 2,
                 "exit_trials": 2_000},
    },
    "thin": {
        "full": {"realize_levels": 17, "cascade_prefix": 2, "cascade_depth": 2,
                 "exact_levels": (12, 20), "corners": (((20,), 2), ((5, 7, 6, 12), 3)),
                 "rational_seq": (5, 6, 5), "rational_depth": 3,
                 "ratio_levels": tuple(range(5, 13))},
        "tiny": {"realize_levels": 6, "cascade_prefix": 1, "cascade_depth": 2,
                 "exact_levels": (6,), "corners": (((6,), 2), ((5, 7), 2)),
                 "rational_seq": (5, 6), "rational_depth": 2,
                 "ratio_levels": (5, 6)},
    },
}


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """Draw the workload's inputs from `seed` and return its job list."""
    p = SIZES[workload][size]
    return {"verify": _verify, "deep": _deep, "thin": _thin}[workload](
        np.random.default_rng(seed), p)


# ---- shared oracles --------------------------------------------------------


def _e0(u) -> object:
    """Base energy of a corner triple, exact for Fractions."""
    u0, u1, u2 = u
    return (u0 - u1) ** 2 + (u0 - u2) ** 2 + (u1 - u2) ** 2


def _graph_energy(g, u) -> float:
    """Depth-n energy sum_cells E0 / R_n of vertex values u, computed here."""
    v = np.asarray(u)[g.cells]
    d = v[:, [0, 0, 1]] - v[:, [1, 2, 2]]
    return float((d * d).sum() / float(g.ls.R(g.level)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _within_pin(values, pin, tol: float = 1e-12) -> bool:
    """Maximum principle: harmonic values stay inside the pin's range."""
    lo, hi = min(pin), max(pin)
    if isinstance(lo, Fraction):
        return all(lo <= x <= hi for row in values for x in row)
    arr = np.asarray(values)
    return bool(np.isfinite(arr).all() and arr.min() >= lo - tol and arr.max() <= hi + tol)


def _residual(g, u, pin) -> float:
    """Relative residual of L u = 0 on the free vertices, computed here."""
    lap = linalg.laplacian(g.adjacency)
    free = np.ones(g.n_vertices, dtype=bool)
    free[g.boundary] = False
    b = (lap[:, g.boundary] @ np.asarray(pin))[free]
    return float(np.linalg.norm((lap @ u)[free]) / np.linalg.norm(b))


def _exit_mean_exact(g, w, k: int, start: int) -> float:
    """Expected exit time of simple random walk from the k-neighbourhood of
    cell w, by a dense solve of (D - A) t = deg on the inside vertices."""
    inside = geometry.neighborhood_vertex_ids(g, w, k)
    deg = g.degrees[inside].astype(float)
    a = g.adjacency[inside][:, inside].toarray().astype(float)
    t = np.linalg.solve(np.diag(deg) - a, deg)
    return float(t[int(np.searchsorted(inside, start))])


# ---- verify ----------------------------------------------------------------


def _verify(rng, p) -> list[Job]:
    # The acceptance spec fixes every seed; the benchmark seed is unused.
    def job(n):
        name = f"acceptance.c{n:02d}"

        def run(st, tr):
            with tr.span(name):
                st[name] = acceptance.criterion(n)

        def check(st):
            r = st[name]
            return None if r.passed else r.detail

        return Job(name, run, check)

    return [job(n) for n in p["criteria"]]


# ---- deep ------------------------------------------------------------------


def _deep(rng, p) -> list[Job]:
    ls = LevelSequence((5,), continuation="repeat-last")
    solve_pin = rng.uniform(-1.0, 1.0, 3)
    cg_pin = rng.uniform(-1.0, 1.0, 3)
    cascade_pin = tuple(rng.uniform(-1.0, 1.0, 3))
    pair_draws = rng.integers(0, 1 << 62, size=(p["queries"] - 1, 2))
    exit_draws = rng.integers(0, 1 << 62, size=p["exit_cells"])
    div_seed, compare_seed, walk_seed = (int(x) for x in rng.integers(0, 1 << 31, 3))
    jobs = []

    def build_job(depth):
        key = f"g{depth}"

        def run(st, tr):
            with tr.span("geometry.build_graph"):
                g = st[key] = geometry.build_graph(ls, depth)
                tr.count("geometry.cells", g.n_cells)

        def check(st):
            g = st[key]
            m = ls.M(depth)
            if g.n_cells != m or g.n_edges != 3 * m:
                return f"{g.n_cells} cells, {g.n_edges} edges; expected {m}, {3 * m}"
            if len(set(g.boundary.tolist())) != 3:
                return "outer corners are not three distinct vertices"
            if csgraph.connected_components(g.adjacency, directed=False)[0] != 1:
                return "graph is not connected"
            return None

        return Job(f"build_graph_d{depth}", run, check)

    for depth in sorted(set(p["graph_depths"]) | {p["compare_depth"], p["exit_depth"]}):
        jobs.append(build_job(depth))

    def solve_job(span, key, depth, pin, method):
        def run(st, tr):
            g = st[f"g{depth}"]
            with tr.span(span):
                u, res = linalg.pinned_solve(linalg.laplacian(g.adjacency), g.boundary,
                                             pin, method=method)
                if method == "direct":
                    tr.count("linalg.unknowns", g.n_vertices - len(g.boundary))
                tr.count("linalg.residual_max", res)
            st[key] = u

        def check(st):
            g, u = st[f"g{depth}"], st[key]
            res = _residual(g, u, pin)
            if not res <= SOLVE_TOL:
                return f"residual {res:.2e} above {SOLVE_TOL:.0e}"
            err = _rel(_graph_energy(g, u), _e0(pin))
            if not err <= 1e-12:
                return f"extension energy off the pin energy by {err:.2e} relative"
            return None

        return Job(f"{span}_d{depth}", run, check)

    jobs.append(solve_job("linalg.pinned_solve", "u_direct", p["solve_depth"], solve_pin, "direct"))
    jobs.append(solve_job("linalg.cg", "u_cg", p["cg_depth"], cg_pin, "cg"))

    fd = p["factor_depth"]

    def factor_run(st, tr):
        with tr.span("resistance.factor"):
            st["solver"] = resistance.ResistanceSolver(st[f"g{fd}"])

    def factor_check(st):
        g, s = st[f"g{fd}"], st["solver"]
        return None if s.free.size == g.n_vertices - 1 else "grounded system has wrong size"

    jobs.append(Job(f"resistance.factor_d{fd}", factor_run, factor_check))

    def query_run(st, tr):
        g, s = st[f"g{fd}"], st["solver"]
        v = g.n_vertices
        pairs = [(g.corner_id(0), g.corner_id(1))]
        for a, b in pair_draws:
            x, y = int(a % v), int(b % v)
            pairs.append((x, (y + 1) % v if x == y else y))
        values = []
        for x, y in pairs:
            with tr.span("resistance.query"):
                values.append(s.unit_resistance(x, y))
        st["pairs"], st["unit_r"] = pairs, values

    def query_check(st):
        g = st[f"g{fd}"]
        pairs, values = st["pairs"], st["unit_r"]
        corner = float(ls.R(fd)) * values[0]
        if not abs(corner - 2 / 3) <= 1e-9:
            return f"corner resistance {corner!r}, expected 2/3 within 1e-9"
        deg = g.degrees
        for (x, y), r in zip(pairs, values):
            # Nash-Williams on the star of x or y below; a path of at most
            # 6 |x - y| L_n hops (criterion 4's bound) above
            da, db = (int(c) for c in g.vertices[x] - g.vertices[y])
            if not 1 / min(deg[x], deg[y]) <= r <= 6 * math.sqrt(da * da + da * db + db * db):
                return f"unit resistance {r!r} of ({x}, {y}) outside its bounds"
        return None

    jobs.append(Job("resistance.query", query_run, query_check))

    cd = p["cascade_depth"]

    def cascade_run(st, tr):
        with tr.span("forms.matrix_stack"):
            forms.matrix_stack(ls.level(1))
        with tr.span("forms.cascade_float"):
            st["h"] = forms.harmonic_extend(ls, cascade_pin, cd, method="cells")

    def cascade_check(st):
        vals = st["h"].cell_values(cd)
        if vals.shape != (ls.M(cd), 3) or not _within_pin(vals, cascade_pin):
            return "cell values break the maximum principle"
        return None

    jobs.append(Job(f"forms.cascade_float_d{cd}", cascade_run, cascade_check))
    jobs.extend(_measure_jobs(cascade_pin, cd, p["div_samples"], div_seed))

    gd = p["compare_depth"]

    def compare_run(st, tr):
        with tr.span("scales.comparison"):
            st["comparison"] = scales.comparison_checks(st[f"g{gd}"], n_pairs=p["compare_pairs"],
                                                       seed=compare_seed)

    def compare_check(st):
        rep = st["comparison"]
        return None if rep.passed else f"violated: {[s.name for s in rep.stats if not s.ok]}"

    jobs.append(Job(f"scales.comparison_d{gd}", compare_run, compare_check))

    ed, radii = p["exit_depth"], p["exit_radii"]

    def exit_run(st, tr):
        g = st[f"g{ed}"]
        profiles = []
        for i, draw in enumerate(exit_draws):
            w = geometry.index_to_word(ls, ed, int(draw % g.n_cells))
            cfg = walks.WalkConfig(trials=p["exit_trials"], seed=walk_seed + i)
            with tr.span("walks.exit"):
                prof = walks.exit_time_profile(g, w, radii, cfg=cfg)
                tr.count("walks.steps", sum(round(r["mean"] * r["trials"]) for r in prof))
            profiles.append((w, prof))
        st["exits"] = profiles

    def exit_check(st):
        g = st[f"g{ed}"]
        for w, prof in st["exits"]:
            start = int(g.cells[geometry.word_to_index(ls, w)][0])
            for r in prof:
                exact = _exit_mean_exact(g, w, r["k"], start)
                if r["capped"] or not abs(r["mean"] - exact) <= 5 * r["stderr"]:
                    return (f"exit mean {r['mean']:.3f} +- {r['stderr']:.3f} at radius "
                            f"{r['k']} of {w}; exact {exact:.3f}")
        return None

    jobs.append(Job(f"walks.exit_d{ed}", exit_run, exit_check))
    return jobs


def _measure_jobs(pin, depth: int, div_samples: int | None, div_seed: int) -> list[Job]:
    """Energy measure and certificate of the float extension in st["h"], and
    its divergence statistic when `div_samples` is given."""

    def energy_run(st, tr):
        with tr.span("measures.energy_measure"):
            st["mu"] = measures.energy_measure(st["h"], depth)

    def energy_check(st):
        err = _rel(float(st["mu"].total), _e0(pin))
        return None if err <= 1e-12 else f"total mass off the pin energy by {err:.2e} relative"

    def cert_run(st, tr):
        with tr.span("measures.certificate"):
            rep = st["cert"] = measures.singularity_certificate(st["h"], depth)
            tr.count("measures.admissible", rep.n_admissible)

    def cert_check(st):
        rep = st["cert"]
        return None if rep.passed else f"ceiling exceeded by {rep.max_excess:.2e}"

    jobs = [Job(f"measures.energy_measure_d{depth}", energy_run, energy_check),
            Job(f"measures.certificate_d{depth}", cert_run, cert_check)]
    if div_samples:
        def div_run(st, tr):
            with tr.span("measures.divergence"):
                st["div"] = measures.divergence_statistic(st["h"], depth, n_samples=div_samples,
                                                          seed=div_seed)

        def div_check(st):
            rep = st["div"]
            return None if rep.passed else f"{rep.n_failures} addresses below the bound"

        jobs.append(Job(f"measures.divergence_d{depth}", div_run, div_check))
    return jobs


# ---- thin ------------------------------------------------------------------


def _thin(rng, p) -> list[Job]:
    eta = realization.EtaFunction.elementary()
    cascade_pin = tuple(rng.uniform(-1.0, 1.0, 3))
    rational_pin = tuple(Fraction(int(a), int(b))
                         for a, b in zip(rng.integers(-9, 10, 3), rng.integers(1, 10, 3)))
    ratio_seed = int(rng.integers(0, 1 << 31))
    n_levels, cd = p["realize_levels"], p["cascade_depth"]
    jobs = []

    def realize_run(st, tr):
        with tr.span("realization.realize"):
            res = st["realized"] = realization.realize_sequence(eta, n_levels)
            tr.count("realization.max_prec_bits", max(r.prec for r in res.records))

    def realize_check(st):
        res = st["realized"]
        if res.entries[:4] != ETA1_PREFIX:
            return f"levels start {res.entries[:4]}, expected {ETA1_PREFIX}"
        if not res.certified or len(res.records) != n_levels or not all(
                r.bracket_ok for r in res.records):
            return "realization is not certified"
        return None

    jobs.append(Job(f"realization.realize_n{n_levels}", realize_run, realize_check))

    def compare_run(st, tr):
        with tr.span("realization.compare"):
            st["comparability"] = realization.comparability_report(eta, st["realized"])

    def compare_check(st):
        rep = st["comparability"]
        return None if rep["passed"] else (
            f"ratio range [{rep['ratio_min']:.3f}, {rep['ratio_max']:.3f}] outside the budget")

    jobs.append(Job("realization.compare", compare_run, compare_check))

    def cascade_run(st, tr):
        ls = LevelSequence(st["realized"].entries[:p["cascade_prefix"]],
                           continuation="repeat-last")
        for l in sorted(set(ls.prefix(cd))):
            with tr.span("forms.matrix_stack"):
                forms.matrix_stack(l)
        with tr.span("forms.cascade_float"):
            st["h"] = forms.harmonic_extend(ls, cascade_pin, cd, method="cells")

    def cascade_check(st):
        h = st["h"]
        vals = h.cell_values(cd)
        if vals.shape != (h.ls.M(cd), 3) or not _within_pin(vals, cascade_pin):
            return "cell values break the maximum principle"
        return None

    jobs.append(Job(f"forms.cascade_float_d{cd}", cascade_run, cascade_check))
    jobs.extend(_measure_jobs(cascade_pin, cd, None, 0))

    for l in p["exact_levels"]:
        def exact_run(st, tr, l=l):
            with tr.span("forms.matrix_stack_exact"):
                st[f"exact{l}"] = forms.matrix_stack_exact(l)

        def exact_check(st, l=l):
            stack = st[f"exact{l}"]
            if len(stack) != 3 * l - 3:
                return f"{len(stack)} matrices at l={l}, expected {3 * l - 3}"
            for mat in stack:
                for row in mat:
                    if sum(row, Fraction(0)) != 1 or min(row) < 0:
                        return f"row {row} at l={l} is not a probability vector"
            return None

        jobs.append(Job(f"forms.matrix_stack_exact_l{l}", exact_run, exact_check))

    for entries, depth in p["corners"]:
        key = f"corner{entries}d{depth}"

        def corner_run(st, tr, entries=entries, depth=depth, key=key):
            with tr.span("resistance.corner_rational"):
                st[key] = resistance.corner_resistance(
                    LevelSequence(entries, continuation="repeat-last"), depth,
                    precision="rational")

        def corner_check(st, key=key):
            value = st[key].value
            return None if value == Fraction(2, 3) else f"corner resistance {value}, expected 2/3"

        jobs.append(Job(f"resistance.corner_rational_{key}", corner_run, corner_check))

    rseq, rd = LevelSequence(p["rational_seq"]), p["rational_depth"]

    def rational_run(st, tr):
        with tr.span("forms.cascade_rational"):
            st["hr"] = forms.harmonic_extend(rseq, rational_pin, rd, method="cells",
                                             precision="rational")

    def rational_check(st):
        vals = st["hr"].cell_values(rd)
        if len(vals) != rseq.M(rd) or not _within_pin(vals, rational_pin):
            return "rational cell values break the maximum principle"
        return None

    def rational_measure_run(st, tr):
        with tr.span("measures.energy_measure"):
            st["mur"] = measures.energy_measure(st["hr"], rd)

    def rational_measure_check(st):
        total = sum(st["mur"].masses, Fraction(0))
        return None if total == _e0(rational_pin) else f"total mass {total} != pin energy"

    jobs.append(Job(f"forms.cascade_rational_d{rd}", rational_run, rational_check))
    jobs.append(Job(f"measures.energy_measure_rational_d{rd}", rational_measure_run,
                    rational_measure_check))

    def ratio_run(st, tr):
        reports = st["ratios"] = []
        for l in p["ratio_levels"]:
            with tr.span("forms.ratio_check"):
                reports.append(forms.extension_ratio_check(l, seed=ratio_seed,
                                                           precision="rational"))

    def ratio_check(st):
        bad = [r["l"] for r in st["ratios"] if not r["passed"]]
        return f"energy ratio not exact at l in {bad}" if bad else None

    jobs.append(Job("forms.ratio_check", ratio_run, ratio_check))
    return jobs
