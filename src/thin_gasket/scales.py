"""Piecewise space-time scale functions and two-sided comparisons.

On the segment [1/L_n, 1/L_{n-1}] write x = s L_n - 1, which runs over
[0, l_n - 1].  With A = (3l-4)/(l-1) and B = (6l-8)/(9(l-1)):

    time scale        Psi(s)   = (1/T_n) (1 + A x)(1 + B x)
    mass scale        Psi_M(s) = (1/M_n) (1 + A x)
    resistance scale  Psi_R(s) = R_n (1 + B x)

All three are continuous across knots, multiply as Psi = Psi_M * Psi_R,
and extend past s = 1 by pure powers.  Evaluation is exact rational on
(0, 1]; comparisons against power laws run in the log domain so that
astronomically deep sequences stay usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DomainError, SequenceError
from .geometry import ApproximationGraph, ball_mass, geodesic_hops
from .rand import stream
from .resistance import ResistanceSolver
from .sequence import LevelSequence, cell_count, time_factor, walk_exponent

KINDS = ("time", "mass", "resistance")


def mass_exponent(l: int) -> float:
    """log base l of 3l - 3; decreases to 1."""
    return math.log(3 * l - 3) / math.log(l)


def resistance_exponent(l: int) -> float:
    """log base l of (6l + 1)/9; increases to 1."""
    return (math.log(6 * l + 1) - math.log(9)) / math.log(l)


@dataclass(frozen=True)
class BetaBundle:
    """Lower/upper power-law exponents for the three scales.

    mode "prefix" takes min/max over the stored levels; mode "diverging"
    uses the l -> infinity limits on the side they bound.
    """

    mode: str
    time: tuple[float, float]
    mass: tuple[float, float]
    resistance: tuple[float, float]

    def for_kind(self, kind: str) -> tuple[float, float]:
        return getattr(self, kind)


def beta_bundle(ls: LevelSequence, mode: str = "auto") -> BetaBundle:
    if mode == "auto":
        mode = "diverging" if ls.diverging else "prefix"
    entries = ls.materialized()
    if not entries:
        raise SequenceError("cannot derive exponents from an empty sequence")
    walks = [walk_exponent(l) for l in entries]
    masses = [mass_exponent(l) for l in entries]
    ress = [resistance_exponent(l) for l in entries]
    if mode == "prefix":
        return BetaBundle(mode, (min(walks), max(walks)), (min(masses), max(masses)),
                          (min(ress), max(ress)))
    if mode == "diverging":
        return BetaBundle(mode, (2.0, max(walks)), (1.0, max(masses)), (min(ress), 1.0))
    raise DomainError(f"unknown beta mode {mode!r}")


class PiecewiseScale:
    """One of the three scale functions, evaluated exactly per segment."""

    def __init__(self, ls: LevelSequence, kind: str, mode: str = "auto",
                 max_segments: int = 200):
        if kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}")
        self.ls = ls
        self.kind = kind
        self.max_segments = max_segments
        self.bundle = beta_bundle(ls, mode)
        if kind == "time":
            self.tail_beta = self.bundle.time[0]
        elif kind == "mass":
            self.tail_beta = self.bundle.mass[0]
        else:
            self.tail_beta = self.bundle.resistance[1]
        self._levels: list[int] = []      # l_n per segment
        self._Ls: list[int] = [1]         # L_0, L_1, ...
        self._leads: list = []            # lead coefficient per segment
        self._lead_running = Fraction(1)  # 1/T, 1/M, or R at current depth

    # -- segments ----------------------------------------------------------

    def _append_segment(self):
        n = len(self._levels) + 1
        if n > self.max_segments:
            raise DomainError(f"scale limited to {self.max_segments} segments")
        l = self.ls.level(n)  # raises SequenceError past the sequence
        self._levels.append(l)
        self._Ls.append(self._Ls[-1] * l)
        if self.kind == "time":
            self._lead_running /= time_factor(l)
        elif self.kind == "mass":
            self._lead_running /= cell_count(l)
        else:
            self._lead_running *= Fraction(9, 6 * l + 1)
        self._leads.append(self._lead_running)

    def _segment_of(self, s: Fraction) -> int:
        """1-based segment index n with 1/L_n <= s <= 1/L_{n-1}."""
        n = 1
        while True:
            if n > len(self._levels):
                try:
                    self._append_segment()
                except SequenceError:
                    raise DomainError(
                        f"s = {s} lies below the resolution of the stored sequence")
            if s * self._Ls[n] >= 1:
                return n
            n += 1

    def segment_data(self, n: int):
        while n > len(self._levels):
            self._append_segment()
        l = self._levels[n - 1]
        a = Fraction(3 * l - 4, l - 1)
        b = Fraction(6 * l - 8, 9 * (l - 1))
        return l, self._Ls[n], self._leads[n - 1], a, b

    def knot(self, n: int):
        """(s, value) at the segment boundary s = 1/L_n."""
        if n == 0:
            return Fraction(1), Fraction(1)
        _, ln, lead, _, _ = self.segment_data(n)
        return Fraction(1, ln), lead

    # -- evaluation --------------------------------------------------------

    def eval(self, s):
        """Exact value at rational s > 0 (float for irrational tails)."""
        s = Fraction(s)
        if s <= 0:
            raise DomainError("scales are defined for s > 0")
        if s >= 1:
            if s == 1:
                return Fraction(1)
            beta = self.tail_beta
            if float(beta).is_integer():
                return s ** int(beta)
            return float(s) ** beta
        n = self._segment_of(s)
        l, ln, lead, a, b = self.segment_data(n)
        x = s * ln - 1
        if self.kind == "time":
            return lead * (1 + a * x) * (1 + b * x)
        if self.kind == "mass":
            return lead * (1 + a * x)
        return lead * (1 + b * x)

    def __call__(self, s) -> float:
        return float(self.eval(s))

    def log_eval(self, s, prec: int = 120):
        """Natural log of the value as an mpmath float; safe for values far
        outside double range."""
        with mpmath.workprec(prec):
            s = Fraction(s)
            if s >= 1:
                val = self.eval(s)
                if isinstance(val, Fraction):
                    return mpmath.log(mpmath.mpf(val.numerator)) - \
                        mpmath.log(mpmath.mpf(val.denominator))
                return mpmath.log(mpmath.mpf(val))
            val = self.eval(s)
            return mpmath.log(mpmath.mpf(val.numerator)) - \
                mpmath.log(mpmath.mpf(val.denominator))

    def inverse(self, t, rtol: float = 1e-14):
        """Rational bisection solve of eval(s) = t; monotonicity is exact."""
        t = Fraction(t)
        if t <= 0:
            raise DomainError("scale values are positive")
        if t == 1:
            return Fraction(1)
        if t > 1:
            return float(t) ** (1.0 / self.tail_beta)
        n = 1
        while True:
            _, knot_val = self.knot(n)
            if knot_val <= t:
                break
            n += 1
        lo, hi = Fraction(1, self._Ls[n]), Fraction(1, self._Ls[n - 1])
        if self.eval(lo) == t:
            return lo
        while hi - lo > rtol * lo:
            mid = (lo + hi) / 2
            if self.eval(mid) >= t:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


def build_scale(ls: LevelSequence, kind: str, mode: str = "auto") -> PiecewiseScale:
    return PiecewiseScale(ls, kind, mode)


def scale_triple(ls: LevelSequence, mode: str = "auto"):
    return (build_scale(ls, "time", mode), build_scale(ls, "mass", mode),
            build_scale(ls, "resistance", mode))


# ---- Structural checks ---------------------------------------------------


def knot_continuity_check(scale: PiecewiseScale, n_segments: int) -> dict:
    """Exact continuity at segment boundaries: the segment-n formula at its
    upper endpoint must reproduce the depth n-1 knot value."""
    mismatches = []
    for n in range(1, n_segments + 1):
        l, ln, lead, a, b = scale.segment_data(n)
        x = Fraction(l - 1)
        if scale.kind == "time":
            top = lead * (1 + a * x) * (1 + b * x)
        elif scale.kind == "mass":
            top = lead * (1 + a * x)
        else:
            top = lead * (1 + b * x)
        _, prev = scale.knot(n - 1)
        if top != prev:
            mismatches.append(n)
    return {"kind": scale.kind, "n_segments": n_segments,
            "mismatches": mismatches, "passed": not mismatches}


def product_identity_check(ls: LevelSequence, mode: str = "auto",
                           n_segments: int = 4, samples_per_segment: int = 5,
                           tol: float = 1e-14) -> dict:
    """Psi = Psi_M * Psi_R: exact on (0, 1], within tol on the tails."""
    psi, psi_m, psi_r = scale_triple(ls, mode)
    exact_ok = True
    for n in range(1, n_segments + 1):
        l, ln, _, _, _ = psi.segment_data(n)
        for j in range(samples_per_segment):
            s = (1 + Fraction(j * (l - 1), max(samples_per_segment - 1, 1))) / ln
            if psi.eval(s) != psi_m.eval(s) * psi_r.eval(s):
                exact_ok = False
    tail_err = 0.0
    for s in (Fraction(3, 2), Fraction(2), Fraction(5)):
        lhs = float(psi.eval(s))
        rhs = float(psi_m.eval(s)) * float(psi_r.eval(s))
        tail_err = max(tail_err, abs(lhs - rhs) / rhs)
    return {"exact_on_segments": exact_ok, "tail_rel_err": tail_err,
            "passed": exact_ok and tail_err <= tol}


def _sample_pool(scale: PiecewiseScale, n_segments: int, target_points: int = 46):
    """Deterministic rational s pool covering the first n_segments segments
    and the tail."""
    pts = [Fraction(1), Fraction(3, 2), Fraction(2)]
    per = max(3, -(-(target_points - len(pts) - n_segments) // n_segments))
    for n in range(1, n_segments + 1):
        l, ln, _, _, _ = scale.segment_data(n)
        pts.append(Fraction(1, ln))
        for j in range(1, per + 1):
            x = Fraction(j * (l - 1), per + 1)
            pts.append((1 + x) / ln)
    return sorted(set(pts))


def doubling_check(scale: PiecewiseScale, c: Fraction | None = None,
                   n_segments: int | None = None, target_points: int = 46) -> dict:
    """Two checks over a deterministic pool: the factor-2 bound
    value(2s) <= c * value(s), and for every ordered pool pair the power
    sandwich (1/c)(S/s)^beta_lo <= ratio <= c (S/s)^beta_hi."""
    if c is None:
        c = Fraction(6) if scale.kind == "resistance" else Fraction(81)
    if n_segments is None:
        n_segments = min(len(scale.ls.materialized()), scale.max_segments)
    beta_lo, beta_hi = scale.bundle.for_kind(scale.kind)
    pool = _sample_pool(scale, n_segments, target_points)

    double_viol = []
    for s in pool:
        v1, v2 = scale.eval(s), scale.eval(2 * s)
        if isinstance(v1, Fraction) and isinstance(v2, Fraction):
            ok = v2 <= c * v1
        else:
            ok = float(v2) <= float(c) * float(v1) * (1 + 1e-12)
        if not ok:
            double_viol.append(s)

    lnc = math.log(float(c))
    logs = {s: float(scale.log_eval(s)) for s in pool}
    lns = {s: math.log(s.numerator) - math.log(s.denominator) for s in pool}
    pair_viol = []
    n_pairs = 0
    for i, s in enumerate(pool):
        for big in pool[i + 1:]:
            n_pairs += 1
            gap = lns[big] - lns[s]
            ratio = logs[big] - logs[s]
            if ratio > lnc + beta_hi * gap + 1e-9 or ratio < -lnc + beta_lo * gap - 1e-9:
                pair_viol.append((s, big))
    return {"kind": scale.kind, "c": c, "beta": (beta_lo, beta_hi),
            "n_points": len(pool), "n_pairs": n_pairs,
            "doubling_violations": double_viol, "pair_violations": pair_viol,
            "passed": not double_viol and not pair_viol}


def same_segment_check(scale: PiecewiseScale, n_segments: int,
                       samples_per_segment: int = 6) -> dict:
    """Exact same-segment sandwich (2/9)(S/s)^2 <= ratio <= (9/2)(S/s)^2
    for the time scale."""
    if scale.kind != "time":
        raise DomainError("the same-segment sandwich applies to the time scale")
    lo_c, hi_c = Fraction(2, 9), Fraction(9, 2)
    violations = []
    for n in range(1, n_segments + 1):
        l, ln, _, _, _ = scale.segment_data(n)
        ss = [(1 + Fraction(j * (l - 1), samples_per_segment - 1)) / ln
              for j in range(samples_per_segment)]
        vals = [scale.eval(s) for s in ss]
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                q = (ss[j] / ss[i]) ** 2
                ratio = vals[j] / vals[i]
                if not (lo_c * q <= ratio <= hi_c * q):
                    violations.append((n, ss[i], ss[j]))
    return {"n_segments": n_segments, "violations": violations,
            "passed": not violations}


def quadratic_envelope_check(scale: PiecewiseScale, n_segments: int,
                             samples_per_segment: int = 9) -> dict:
    """Within segment n, value(u/L_n) / (u^2 value(1/L_n)) lies in [1, 2),
    and the knot values of value(s)/s^2 never increase with depth."""
    if scale.kind != "time":
        raise DomainError("the quadratic envelope applies to the time scale")
    violations = []
    for n in range(1, n_segments + 1):
        l, ln, lead, a, b = scale.segment_data(n)
        base = scale.eval(Fraction(1, ln))
        for j in range(samples_per_segment + 1):
            u = 1 + Fraction(j * (l - 1), samples_per_segment)
            ratio = scale.eval(u / ln) / (u * u * base)
            if not (1 <= ratio < 2):
                violations.append((n, u))
    knots = []
    for n in range(n_segments + 1):
        s, v = scale.knot(n)
        knots.append(v / (s * s))
    knot_monotone = all(knots[i + 1] <= knots[i] for i in range(len(knots) - 1))
    return {"n_segments": n_segments, "violations": violations,
            "knot_ratios_nonincreasing": knot_monotone,
            "passed": not violations and knot_monotone}


# ---- Resistance/metric/measure comparisons on a graph --------------------


@dataclass
class CheckStat:
    name: str
    lower: float
    upper: float
    min_ratio: float
    max_ratio: float
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


@dataclass
class ComparisonReport:
    depth: int
    n_pairs: int
    stats: list
    lambda_floor_count: int
    passed: bool


def _ball_mass_value(g: ApproximationGraph, x: int, s: Fraction) -> float:
    return float(ball_mass(g, x, s).value)


def sample_vertex_pairs(g: ApproximationGraph, n_pairs: int, seed: int):
    v = g.n_vertices
    if not 1 <= n_pairs <= v * (v - 1):
        raise DomainError(f"need 1 to {v * (v - 1)} distinct ordered vertex pairs on the "
                          f"depth-{g.level} graph, got {n_pairs}")
    rng = stream(seed, 2)
    out = []
    seen = set()
    while len(out) < n_pairs:
        draw = rng.integers(0, g.n_vertices, size=2 * (n_pairs - len(out) + 4))
        for i in range(0, len(draw) - 1, 2):
            x, y = int(draw[i]), int(draw[i + 1])
            if x != y and (x, y) not in seen:
                seen.add((x, y))
                out.append((x, y))
                if len(out) == n_pairs:
                    break
    return out


def comparison_checks(g: ApproximationGraph, n_pairs: int = 200, seed: int = 11,
                      lambdas=(Fraction(7, 10), Fraction(2, 5), Fraction(3, 20)),
                      mode: str = "auto") -> ComparisonReport:
    """Sampled two-sided comparisons between resistance, the time scale and
    ball masses on a built graph.

    Static bounds checked for sampled pairs (x, y), d = graph distance:

        6^-4  <= R(x,y) m(B(x,d)) / Psi(d)       <= 2^8
        1/16  <= m(B(x,d)) / Psi_M(d)            <= 12
        1/12  <= (Psi(d)/m(B(x,d))) / Psi_R(d)   <= 16
        2^-14 <= R(x,y) / Psi_R(d)               <= 2^12

    and for each shrink factor lambda (floored at lattice resolution):

        6^-4 lam^b1 Q(d) <= Q(lam d) <= 6^4 lam^b0 Q(d),

    where Q(t) = Psi(t)/m(B(x,t)) and (b0, b1) are the resistance
    exponents.
    """
    ls, n = g.ls, g.level
    psi, psi_m, psi_r = scale_triple(ls, mode)
    b0, b1 = psi.bundle.resistance
    solver = ResistanceSolver(g)
    scale_r = ls.R(n)
    pairs = sample_vertex_pairs(g, n_pairs, seed)

    bounds = {
        "resistance-mass-time": (6.0 ** -4, 2.0 ** 8),
        "mass-vs-mass-scale": (1.0 / 16, 12.0),
        "time-over-mass-vs-resistance-scale": (1.0 / 12, 16.0),
        "resistance-vs-resistance-scale": (2.0 ** -14, 2.0 ** 12),
        "shrink-lower": (6.0 ** -4, math.inf),
        "shrink-upper": (0.0, 6.0 ** 4),
    }
    ranges = {k: [math.inf, -math.inf, 0] for k in bounds}

    def record(name, ratio):
        lo, hi = bounds[name]
        st = ranges[name]
        st[0] = min(st[0], ratio)
        st[1] = max(st[1], ratio)
        if not (lo * (1 - 1e-9) <= ratio <= hi * (1 + 1e-9)):
            st[2] += 1

    floor_count = 0
    big_l = ls.L(n)
    for x, y in pairs:
        hops = int(geodesic_hops(g, x)[0, y])
        d = Fraction(hops, big_l)
        r_val = float(scale_r) * solver.unit_resistance(x, y)
        mb = _ball_mass_value(g, x, d)
        pv = float(psi.eval(d))
        record("resistance-mass-time", r_val * mb / pv)
        record("mass-vs-mass-scale", mb / float(psi_m.eval(d)))
        q_base = pv / mb
        record("time-over-mass-vs-resistance-scale", q_base / float(psi_r.eval(d)))
        record("resistance-vs-resistance-scale", r_val / float(psi_r.eval(d)))
        for lam in lambdas:
            lam = Fraction(lam)
            lam_floor = Fraction(1, big_l) / d
            if lam < lam_floor:
                lam = lam_floor
                floor_count += 1
            sd = lam * d
            q = float(psi.eval(sd)) / _ball_mass_value(g, x, sd)
            lamf = float(lam)
            record("shrink-lower", q / (lamf ** b1 * q_base))
            record("shrink-upper", q / (lamf ** b0 * q_base))

    stats = [CheckStat(k, bounds[k][0], bounds[k][1], ranges[k][0], ranges[k][1],
                       ranges[k][2]) for k in bounds]
    return ComparisonReport(n, len(pairs), stats, floor_count,
                            all(s.ok for s in stats))
