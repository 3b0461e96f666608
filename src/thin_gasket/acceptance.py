"""End-to-end acceptance suite.

Ten numbered criteria exercise the package against its frozen oracles:
exact subdivision energy ratios, closed-form extension matrices checked
against elimination, depth-independent corner resistance, metric and
neighborhood bounds, energy-measure calculus, the mass concentration
certificate, scale function inequalities, certified level realization,
and random-walk cross-validation.  The general-solver oracles of
criteria 1, 2, 3 and 6 live in linalg, which this module, alone of the
package, imports at load time.  Criteria with a stated wall-clock
budget fail when they run over it.  `run_all` prints one verdict line
per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import DomainError
from .forms import (base_energy, cell_energies, extension_ratio_check,
                    harmonic_extend, matrix_stack_exact)
from .geometry import (_cell_hops, boundary_cells, build_graph,
                       geodesic_hops, words)
from .measures import (ceiling_below_sup, divergence_statistic,
                       energy_measure, singularity_certificate)
from .rand import stream
from .realization import (EtaFunction, comparability_report, realize_sequence)
from .scales import (build_scale, comparison_checks, doubling_check,
                     knot_continuity_check, product_identity_check)
from .sequence import LevelSequence, cell_count
from .walks import WalkConfig, commute_time_check


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float | None
    detail: str

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        budget = f", budget {self.budget:.0f} s" if self.budget else ""
        return (f"criterion {self.number:2d} [{verdict}] {self.name}: "
                f"{self.detail} [{self.elapsed:.1f} s{budget}]")


def _run(number: int, name: str, budget: float | None, body) -> CriterionResult:
    t0 = time.perf_counter()
    ok, detail = body()
    dt = time.perf_counter() - t0
    if ok and budget is not None and dt > budget:
        ok = False
        detail += f"; exceeded {budget:.0f} s budget"
    return CriterionResult(number, name, ok, dt, budget, detail)


# ---- 1: one-subdivision energy ratio -------------------------------------


def _c1():
    worst = 0.0
    for l in range(5, 13):
        exact = extension_ratio_check(l, precision="rational")
        if not exact["passed"]:
            return False, f"rational ratio mismatch at l={l}"
        approx = extension_ratio_check(l, seed=7, precision="float")
        worst = max(worst, approx["max_rel_err"])
        if not approx["passed"]:
            return False, f"float ratio error {approx['max_rel_err']:.2e} at l={l}"
    return True, f"l in 5..12 exact over 103 pins each; float err <= {worst:.1e}"


# ---- 2: interior extension matrices --------------------------------------


def _c2():
    n_matched = 0
    for l in range(5, 11):
        letters = boundary_cells(l)
        stack = matrix_stack_exact(l)
        oracle = linalg.matrix_stack_by_elimination(l)
        for pos, i in enumerate(letters):
            mat = stack[pos]
            for row in mat:
                if sum(row, Fraction(0)) != 1:
                    return False, f"row sum != 1 at l={l}, cell {i}"
            if mat != oracle[pos]:
                return False, f"closed form differs from elimination at l={l}, cell {i}"
            n_matched += 1
    return True, (f"{n_matched} closed-form matrices over 6l+1 equal elimination "
                  "for l in 5..10; all row sums exactly 1")


# ---- 3: corner resistance invariance -------------------------------------


def _c3():
    seqs = ((5, 5, 5, 5), (5, 7, 6, 12), (9, 58))
    worst = 0.0
    for entries in seqs:
        ls = LevelSequence(entries, continuation="repeat-last")
        for n in range(4):
            value = float(linalg.corner_resistance_by_reduction(ls, n))
            err = abs(value - 2.0 / 3.0)
            worst = max(worst, err)
            if err > 1e-9:
                return False, (f"resistance off by {err:.2e} at depth {n} "
                               f"of {entries}")
    return True, f"2/3 at depths 0..3 for 3 sequences; worst err {worst:.1e}"


# ---- 4: geodesic-Euclidean comparability ---------------------------------


def _c4():
    graphs = (((5,), 1), ((5,), 2), ((5,), 3), ((5, 7, 6), 3), ((9, 58), 2))
    checked = 0
    for gi, (entries, depth) in enumerate(graphs):
        g = build_graph(LevelSequence(entries, continuation="repeat-last"), depth)
        rng = stream(19, gi)
        src = rng.integers(0, g.n_vertices, size=100)
        tgt = rng.integers(0, g.n_vertices, size=100)
        hops = geodesic_hops(g, src)
        coords = g.vertices.astype(np.int64)
        for a, row in zip(src, hops):
            da = coords[a, 0] - coords[tgt, 0]
            db = coords[a, 1] - coords[tgt, 1]
            qf = da * da + da * db + db * db
            h = row[tgt].astype(np.int64)
            ok = np.where(qf == 0, h == 0, (h * h >= qf) & (h * h <= 36 * qf))
            if not ok.all():
                j = int(np.flatnonzero(~ok)[0])
                return False, (f"ratio violation at {entries} depth {depth}: "
                               f"hops {h[j]}, squared distance {qf[j]}")
            checked += int(ok.size)
    return True, f"{checked} sampled pairs within [1, 6], zero violations"


# ---- 5: cell neighborhood growth -----------------------------------------


def _c5():
    seqs = ((5,), (6,), (5, 6), (6, 5))
    checked = 0
    for entries in seqs:
        ls = LevelSequence(entries, continuation="repeat-last")
        for depth in (1, 2):
            g = build_graph(ls, depth)
            l_n = ls.level(depth)
            for w in words(ls, depth):
                # sizes at every radius from one BFS of radius l_n
                hops = _cell_hops(g, w, (l_n,))
                sizes = np.cumsum(np.bincount(hops[hops <= l_n].astype(np.int64),
                                              minlength=l_n + 1))
                for k in range(l_n + 1):
                    size = int(sizes[k])
                    if not 2 * k + 1 <= size <= max(6 * k, 1):
                        return False, (f"size {size} at radius {k} of {w}, "
                                       f"{entries} depth {depth}")
                    if k == 1 and size > 4:
                        return False, (f"one-hop size {size} > 4 at {w}, "
                                       f"{entries} depth {depth}")
                    checked += 1
    return True, (f"{checked} neighborhoods within [2k+1, max(6k, 1)]; "
                  "one-hop size <= 4 throughout")


# ---- 6: energy measure calculus ------------------------------------------


def _c6():
    ls = LevelSequence((5, 6, 5))
    pins = ((Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(2, 3), Fraction(1, 9)))
    worst = 0.0
    for pin in pins:
        h = harmonic_extend(ls, pin, 3, precision="rational")
        total = base_energy(list(pin))
        by_depth = {d: energy_measure(h, d).masses for d in range(4)}
        for d in range(4):
            if sum(by_depth[d], Fraction(0)) != total:
                return False, f"total mass != pin energy at depth {d}"
        for d in range(1, 4):
            m = cell_count(ls.level(d))
            child = by_depth[d]
            for p, pm in enumerate(by_depth[d - 1]):
                if sum(child[p * m:(p + 1) * m], Fraction(0)) != pm:
                    return False, f"additivity failure at depth {d}, parent {p}"
        hf = harmonic_extend(ls, tuple(float(x) for x in pin), 3, precision="float")
        a = energy_measure(hf, 3).masses
        # the oracle: masses off a sparse LU solve on the depth-3 graph
        b = cell_energies(linalg.cell_values_from_graph(hf, 3)) / float(ls.R(3))
        worst = max(worst, float(np.max(np.abs(a - b))))
        if worst > 1e-12:
            return False, f"matrix/graph route disagree by {worst:.2e}"
    return True, (f"additivity and totals exact to depth 3; "
                  f"route agreement {worst:.1e}")


# ---- 7: mass concentration certificate -----------------------------------


def _c7():
    seqs = ((5, 7, 9, 6), (5, 5, 5, 5), (9, 8, 7, 6), (6, 6, 6, 6))
    for l in range(5, 10):
        if not ceiling_below_sup(l):
            return False, f"level ceiling above global bound at l={l}"
    n_admissible = 0
    worst = -math.inf
    for si, entries in enumerate(seqs):
        ls = LevelSequence(entries)
        rng = stream(13, si)
        pins = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        pins += [tuple(rng.uniform(-1.0, 1.0, size=3)) for _ in range(50)]
        for pin in pins:
            h = harmonic_extend(ls, pin, 0, precision="float")
            rep = singularity_certificate(h, 4)
            if not rep.passed:
                return False, (f"coefficient above ceiling for {entries}, "
                               f"excess {rep.max_excess:.2e}")
            n_admissible += rep.n_admissible
            worst = max(worst, rep.max_excess)
        hb = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, precision="float")
        div = divergence_statistic(hb, 4, n_samples=200, seed=29)
        if not div.passed:
            return False, (f"divergence below delta bound on "
                           f"{div.n_failures} addresses for {entries}")
    return True, (f"{n_admissible} admissible cells across 4 sequences x 53 "
                  f"pins, max ceiling excess {worst:.1e}; divergence bound "
                  "on 4 x 200 addresses")


# ---- 8: space-time scale checks ------------------------------------------


def _c8():
    seqs = ((5,), (5, 7, 6, 12), (9, 58))
    min_pairs = math.inf
    for entries in seqs:
        ls = LevelSequence(entries, continuation="repeat-last")
        for kind in ("time", "mass", "resistance"):
            kc = knot_continuity_check(build_scale(ls, kind), 6)
            if not kc["passed"]:
                return False, f"{kind} knot mismatch for {entries}"
        pi = product_identity_check(ls, n_segments=6)
        if not pi["passed"]:
            return False, (f"scale product identity off by "
                           f"{pi['tail_rel_err']:.2e} for {entries}")
        for kind, c in (("time", Fraction(81)), ("resistance", Fraction(6))):
            db = doubling_check(build_scale(ls, kind), c, n_segments=6,
                                target_points=48)
            if not db["passed"]:
                return False, f"{kind} doubling violation for {entries}"
            min_pairs = min(min_pairs, db["n_pairs"])
    if min_pairs < 1000:
        return False, f"doubling grid too small ({min_pairs} pairs)"
    g = build_graph(LevelSequence((5, 6), continuation="repeat-last"), 2)
    rep = comparison_checks(g, n_pairs=200, seed=11)
    if not rep.passed:
        bad = [s.name for s in rep.stats if not s.ok]
        return False, f"comparison bounds violated: {', '.join(bad)}"
    return True, (f"knots and identity hold for 3 sequences; doubling on "
                  f">= {min_pairs} pairs; resistance/mass/time comparisons "
                  f"on {rep.n_pairs} vertex pairs")


# ---- 9: level sequence realization ---------------------------------------


def _c9():
    eta = EtaFunction.elementary()
    res = realize_sequence(eta, 12)
    if not res.certified or res.n0 != 1:
        return False, f"uncertified result (n0={res.n0})"
    if res.entries[:2] != (9, 58):
        return False, f"levels start {res.entries[:2]}, expected (9, 58)"
    if len(res.records) != 12 or not all(r.bracket_ok for r in res.records):
        return False, "bracket certification failure"
    rep = comparability_report(eta, res)
    if not rep["passed"]:
        return False, (f"ratio range [{rep['ratio_min']:.3f}, "
                       f"{rep['ratio_max']:.3f}] outside budget "
                       f"({rep['budget'][0]:.3f}, {rep['budget'][1]:.1f})")
    for kind, c in (("time", Fraction(81)), ("resistance", Fraction(6))):
        db = doubling_check(build_scale(res.sequence, kind), c)
        if not db["passed"]:
            return False, f"{kind} doubling failed on realized sequence"
    return True, (f"n0=1, levels start (9, 58), 12 certified brackets; "
                  f"ratios [{rep['ratio_min']:.3f}, {rep['ratio_max']:.3f}] "
                  f"within ({rep['budget'][0]:.3f}, {rep['budget'][1]:.1f}); "
                  "doubling holds downstream")


# ---- 10: random walk cross-validation ------------------------------------


def _c10():
    ls = LevelSequence((5,), continuation="repeat-last")
    details = []
    for depth in (0, 1, 2):
        g = build_graph(ls, depth)
        rep = commute_time_check(g, cfg=WalkConfig(trials=100_000, seed=17))
        if not rep["passed"]:
            return False, (f"commute z-score {rep['z_score']:+.2f} at "
                           f"depth {depth}")
        if depth == 0 and rep["predicted_exact"] != 4:
            return False, f"depth-0 prediction {rep['predicted_exact']} != 4"
        details.append(f"depth {depth} z {rep['z_score']:+.2f}")
    return True, ("commute identity within 4 stderr at 1e5 trials; "
                  + "; ".join(details))


_TABLE = (
    (1, "one-subdivision energy ratio", 10.0, _c1),
    (2, "interior extension matrices", 10.0, _c2),
    (3, "corner resistance invariance", 120.0, _c3),
    (4, "geodesic-Euclidean comparability", None, _c4),
    (5, "cell neighborhood growth", None, _c5),
    (6, "energy measure calculus", None, _c6),
    (7, "mass concentration certificate", None, _c7),
    (8, "space-time scale checks", None, _c8),
    (9, "level sequence realization", 30.0, _c9),
    (10, "random walk cross-validation", 60.0, _c10),
)


def criterion(number: int) -> CriterionResult:
    for num, name, budget, body in _TABLE:
        if num == number:
            return _run(num, name, budget, body)
    raise ValueError(f"no criterion {number}")


def run_all(numbers=None, out=print) -> list:
    if numbers is not None:
        unknown = set(numbers) - {row[0] for row in _TABLE}
        if unknown or not numbers:
            raise DomainError(f"criteria are numbered 1 to {len(_TABLE)}, "
                              f"got {sorted(numbers)}")
    results = []
    for num, name, budget, body in _TABLE:
        if numbers is not None and num not in numbers:
            continue
        r = _run(num, name, budget, body)
        results.append(r)
        if out is not None:
            out(r.line)
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)


def results_json(results) -> dict:
    return {
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "elapsed_s": round(r.elapsed, 3), "budget_s": r.budget,
             "detail": r.detail}
            for r in results
        ],
        "passed": all_passed(results),
    }
