"""Piecewise space-time scale functions and two-sided comparisons.

On the segment [1/L_n, 1/L_{n-1}] write x = s L_n - 1, which runs over
[0, l_n - 1].  With A = (3l-4)/(l-1) and B = (6l-8)/(9(l-1)):

    time scale        Psi(s)   = (1/T_n) (1 + A x)(1 + B x)
    mass scale        Psi_M(s) = (1/M_n) (1 + A x)
    resistance scale  Psi_R(s) = R_n (1 + B x)

All three are continuous across knots, multiply as Psi = Psi_M * Psi_R,
and extend past s = 1 by pure powers.  Each kind is one row of _ROWS.
Evaluation is exact rational on (0, 1]; comparisons against power laws run
in the log domain so that astronomically deep sequences stay usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, SequenceError
from .geometry import (ApproximationGraph, _cell_least_hops, _outer_ball_mass,
                       geodesic_hops)
from .rand import stream
from .resistance import ResistanceSolver
from .sequence import LevelSequence, walk_exponent

#: Segments a PiecewiseScale extends to before refusing a smaller s.
_MAX_SEGMENTS = 200


def mass_exponent(l: int) -> float:
    """log base l of 3l - 3; decreases to 1."""
    return math.log(3 * l - 3) / math.log(l)


def resistance_exponent(l: int) -> float:
    """log base l of (6l + 1)/9; increases to 1."""
    return (math.log(6 * l + 1) - math.log(9)) / math.log(l)


#: Per kind: the per-level exponent, its l -> infinity limit, the knot value
#: at 1/L_n as a prefix product and its power (+-1), the linear factors
#: 1 + c x it multiplies, each as (p, q, r) with c = (p l - q)/(r (l - 1)),
#: so A is (3, 4, 1) and B (6, 8, 9), and the default doubling constant.
_ROWS = {
    "time": (walk_exponent, 2.0, LevelSequence.T, -1, ((3, 4, 1), (6, 8, 9)), Fraction(81)),
    "mass": (mass_exponent, 1.0, LevelSequence.M, -1, ((3, 4, 1),), Fraction(81)),
    "resistance": (resistance_exponent, 1.0, LevelSequence.R, 1, ((6, 8, 9),), Fraction(6)),
}
KINDS = tuple(_ROWS)


class PiecewiseScale:
    """One of the three scale functions, exact per segment from the
    sequence's prefix products.  The inverse is exact for mass and
    resistance, and for time within 2^-64 relative (exact at eval(s)).
    betas: the kind's exponent band over the stored levels, widened to its
    limit for a diverging sequence; tail_beta, the bound nearer the limit."""

    def __init__(self, ls: LevelSequence, kind: str):
        if kind not in _ROWS:
            raise DomainError(f"kind must be one of {KINDS}")
        if not ls.entries:
            raise SequenceError("cannot derive exponents from an empty sequence")
        exponent, limit, self._product, self._power, self._factors, self.doubling_c = _ROWS[kind]
        self.ls = ls
        self.kind = kind
        self._segments = {}
        exps = [exponent(l) for l in ls.entries]
        lo, hi = min(exps), max(exps)
        if ls.diverging:
            lo, hi = min(lo, limit), max(hi, limit)
        self.betas = (lo, hi)
        self.tail_beta = lo if abs(lo - limit) <= abs(hi - limit) else hi

    # -- segments ----------------------------------------------------------

    def _segment_of(self, s: Fraction) -> int:
        """1-based segment index n with 1/L_n <= s <= 1/L_{n-1}."""
        n = 1
        while True:
            if n > _MAX_SEGMENTS:
                raise DomainError(f"scale limited to {_MAX_SEGMENTS} segments")
            try:
                ln = self.ls.L(n)
            except SequenceError:
                raise DomainError(
                    f"s = {s} lies below the resolution of the stored sequence")
            if s.numerator * ln >= s.denominator:
                return n
            n += 1

    def segment_data(self, n: int):
        """(l_n, L_n, lead, slopes), computed once per segment: lead is the
        value at the knot 1/L_n and slopes the c of each linear factor
        1 + c x the kind multiplies."""
        if n > _MAX_SEGMENTS:
            raise DomainError(f"scale limited to {_MAX_SEGMENTS} segments")
        data = self._segments.get(n)
        if data is None:
            ln = self.ls.L(n)  # raises SequenceError past the sequence
            l = self.ls.level(n)
            data = self._segments[n] = (
                l, ln, Fraction(self._product(self.ls, n)) ** self._power,
                tuple(Fraction(p * l - q, r * (l - 1)) for p, q, r in self._factors))
        return data

    def knot(self, n: int):
        """(s, value) at the segment boundary s = 1/L_n."""
        if n == 0:
            return Fraction(1), Fraction(1)
        _, ln, lead, _ = self.segment_data(n)
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
            try:
                return float(s) ** beta
            except OverflowError:
                raise DomainError(f"the {self.kind} scale s^{float(beta):.6g} is past double "
                                  "range at this s") from None
        n = self._segment_of(s)
        return self._segment_value(n, s * self.ls.L(n) - 1)

    def _segment_value(self, n: int, x):
        """The segment-n formula at x = s L_n - 1, exact for rational x."""
        _, _, value, slopes = self.segment_data(n)
        for c in slopes:
            value = value * (1 + c * x)
        return value

    def log_eval(self, s):
        """Natural log of the value as a 120-bit mpmath float; safe for
        values far outside double range."""
        with mpmath.workprec(120):
            val = self.eval(s)
            if isinstance(val, Fraction):
                return mpmath.log(mpmath.mpf(val.numerator)) - \
                    mpmath.log(mpmath.mpf(val.denominator))
            return mpmath.log(mpmath.mpf(val))

    def inverse(self, t):
        """The s with eval(s) = t.  On (0, 1], t's segment in closed form
        with tau = t / lead: exact for one linear factor; for two
        x = 2(tau - 1)/(A + B + sqrt(D)), D = (A - B)^2 + 4AB tau, with sqrt(D)
        floored 64 bits past D's denominator, so s is exact when D is a
        rational square (t = eval(s) at a rational s), else at most 2^-64 s
        above the root.  Past 1, the power tail in floats."""
        t = Fraction(t)
        if t <= 0:
            raise DomainError("scale values are positive")
        if t == 1:
            return Fraction(1)
        if t > 1:
            try:
                return float(t) ** (1.0 / self.tail_beta)
            except OverflowError:
                beta = float(self.tail_beta)
                raise DomainError(f"the {self.kind} scale inverse t^(1/{beta:.6g}) is past "
                                  "double range at this t") from None
        n = 1
        try:
            while self.knot(n)[1] > t:
                n += 1
        except SequenceError:
            raise DomainError(f"t = {t} lies below the resolution of the stored sequence")
        _, ln, lead, slopes = self.segment_data(n)
        tau = t / lead
        if len(slopes) == 2:
            a, b = slopes
            d = (a - b) ** 2 + 4 * a * b * tau
            root = Fraction(math.isqrt(d.numerator * d.denominator << 128),
                            d.denominator << 64)
            x = 2 * (tau - 1) / (a + b + root)
        else:
            x = (tau - 1) / slopes[0]
        return (1 + x) / ln


# ---- Structural checks ---------------------------------------------------


def _grid(scale: PiecewiseScale, n: int, k: int) -> list:
    """The k + 1 points (1 + j(l_n - 1)/k)/L_n, j = 0..k, of segment n."""
    l, ln, _, _ = scale.segment_data(n)
    return [(1 + Fraction(j * (l - 1), k)) / ln for j in range(k + 1)]


def knot_continuity_check(scale: PiecewiseScale, n_segments: int) -> dict:
    """Exact continuity at segment boundaries: the segment-n formula at its
    upper endpoint must reproduce the depth n-1 knot value."""
    mismatches = []
    for n in range(1, n_segments + 1):
        l = scale.segment_data(n)[0]
        top = scale._segment_value(n, Fraction(l - 1))
        _, prev = scale.knot(n - 1)
        if top != prev:
            mismatches.append(n)
    return {"kind": scale.kind, "n_segments": n_segments,
            "mismatches": mismatches, "passed": not mismatches}


def product_identity_check(ls: LevelSequence, n_segments: int = 4) -> dict:
    """Psi = Psi_M * Psi_R: exact at 5 points per segment of (0, 1], within
    1e-14 relative on the tails."""
    psi, psi_m, psi_r = (PiecewiseScale(ls, kind) for kind in KINDS)
    exact_ok = all(psi.eval(s) == psi_m.eval(s) * psi_r.eval(s)
                   for n in range(1, n_segments + 1) for s in _grid(psi, n, 4))
    tail_err = 0.0
    for s in (Fraction(3, 2), Fraction(2), Fraction(5)):
        lhs = float(psi.eval(s))
        rhs = float(psi_m.eval(s)) * float(psi_r.eval(s))
        tail_err = max(tail_err, abs(lhs - rhs) / rhs)
    return {"exact_on_segments": exact_ok, "tail_rel_err": tail_err,
            "passed": exact_ok and tail_err <= 1e-14}


def _sample_pool(scale: PiecewiseScale, n_segments: int, target_points: int = 46):
    """Deterministic rational s pool covering the first n_segments segments
    and the tail."""
    pts = [Fraction(1), Fraction(3, 2), Fraction(2)]
    per = max(3, -(-(target_points - len(pts) - n_segments) // n_segments))
    for n in range(1, n_segments + 1):
        pts += _grid(scale, n, per + 1)[:-1]
    return sorted(set(pts))


def doubling_check(scale: PiecewiseScale, c: Fraction | None = None,
                   n_segments: int | None = None, target_points: int = 46) -> dict:
    """Two checks over a deterministic pool: the factor-2 bound
    value(2s) <= c * value(s), and for every ordered pool pair the power
    sandwich (1/c)(S/s)^beta_lo <= ratio <= c (S/s)^beta_hi."""
    if c is None:
        c = scale.doubling_c
    if n_segments is None:
        n_segments = min(len(scale.ls.entries), _MAX_SEGMENTS)
    if n_segments < 1:
        raise DomainError(f"doubling checks need n_segments >= 1, got {n_segments}")
    beta_lo, beta_hi = scale.betas
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
    logs = [float(scale.log_eval(s)) for s in pool]
    lns = [math.log(s.numerator) - math.log(s.denominator) for s in pool]
    pair_viol = []
    for i, s in enumerate(pool):
        for j in range(i + 1, len(pool)):
            gap = lns[j] - lns[i]
            ratio = logs[j] - logs[i]
            if ratio > lnc + beta_hi * gap + 1e-9 or ratio < -lnc + beta_lo * gap - 1e-9:
                pair_viol.append((s, pool[j]))
    return {"kind": scale.kind, "c": c, "beta": (beta_lo, beta_hi),
            "n_points": len(pool), "n_pairs": len(pool) * (len(pool) - 1) // 2,
            "doubling_violations": double_viol, "pair_violations": pair_viol,
            "passed": not double_viol and not pair_viol}


def same_segment_check(scale: PiecewiseScale, n_segments: int) -> dict:
    """Exact same-segment sandwich (2/9)(S/s)^2 <= ratio <= (9/2)(S/s)^2
    for the time scale, over all pairs of 6 points per segment."""
    if scale.kind != "time":
        raise DomainError("the same-segment sandwich applies to the time scale")
    lo_c, hi_c = Fraction(2, 9), Fraction(9, 2)
    violations = []
    for n in range(1, n_segments + 1):
        ss = _grid(scale, n, 5)
        vals = [scale.eval(s) for s in ss]
        for i in range(len(ss)):
            for j in range(i + 1, len(ss)):
                q = (ss[j] / ss[i]) ** 2
                ratio = vals[j] / vals[i]
                if not (lo_c * q <= ratio <= hi_c * q):
                    violations.append((n, ss[i], ss[j]))
    return {"n_segments": n_segments, "violations": violations,
            "passed": not violations}


def quadratic_envelope_check(scale: PiecewiseScale, n_segments: int) -> dict:
    """Within segment n, value(u/L_n) / (u^2 value(1/L_n)) lies in [1, 2)
    at the 10 points u = 1 + j(l-1)/9, and the knot values of
    value(s)/s^2 never increase with depth."""
    if scale.kind != "time":
        raise DomainError("the quadratic envelope applies to the time scale")
    violations = []
    for n in range(1, n_segments + 1):
        ss = _grid(scale, n, 9)
        base = scale.eval(ss[0])
        for s in ss:
            u = s / ss[0]
            ratio = scale.eval(s) / (u * u * base)
            if not (1 <= ratio < 2):
                violations.append((n, u))
    knots = [v / (s * s) for s, v in map(scale.knot, range(n_segments + 1))]
    knot_monotone = all(knots[i + 1] <= knots[i] for i in range(len(knots) - 1))
    return {"n_segments": n_segments, "violations": violations,
            "knot_ratios_nonincreasing": knot_monotone,
            "passed": not violations and knot_monotone}


# ---- Resistance/metric/measure comparisons on a graph --------------------


#: Shrink factors lambda of the comparison checks' Q(lambda d) bounds.
_SHRINK_FACTORS = (Fraction(7, 10), Fraction(2, 5), Fraction(3, 20))


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


def comparison_checks(g: ApproximationGraph, n_pairs: int = 200,
                      seed: int = 11) -> ComparisonReport:
    """Sampled two-sided comparisons between resistance, the time scale and
    ball masses on a built graph.

    Static bounds checked for sampled pairs (x, y), d = graph distance:

        6^-4  <= R(x,y) m(B(x,d)) / Psi(d)       <= 2^8
        1/16  <= m(B(x,d)) / Psi_M(d)            <= 12
        1/12  <= (Psi(d)/m(B(x,d))) / Psi_R(d)   <= 16
        2^-14 <= R(x,y) / Psi_R(d)               <= 2^12

    and for each shrink factor lambda in _SHRINK_FACTORS (floored at lattice
    resolution):

        6^-4 lam^b1 Q(d) <= Q(lam d) <= 6^4 lam^b0 Q(d),

    where Q(t) = Psi(t)/m(B(x,t)) and (b0, b1) are Psi_R's betas.
    """
    ls, n = g.ls, g.level
    psi, psi_m, psi_r = (PiecewiseScale(ls, kind) for kind in KINDS)
    b0, b1 = psi_r.betas
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
        hops = geodesic_hops(g, x)[0]
        least_hops = _cell_least_hops(g, hops)
        d = Fraction(int(hops[y]), big_l)
        r_val = float(scale_r) * solver.unit_resistance(x, y)
        mb = float(_outer_ball_mass(g, least_hops, d))
        pv = float(psi.eval(d))
        record("resistance-mass-time", r_val * mb / pv)
        record("mass-vs-mass-scale", mb / float(psi_m.eval(d)))
        q_base = pv / mb
        record("time-over-mass-vs-resistance-scale", q_base / float(psi_r.eval(d)))
        record("resistance-vs-resistance-scale", r_val / float(psi_r.eval(d)))
        for lam in _SHRINK_FACTORS:
            lam_floor = Fraction(1, big_l) / d
            if lam < lam_floor:
                lam = lam_floor
                floor_count += 1
            sd = lam * d
            q = float(psi.eval(sd)) / float(_outer_ball_mass(g, least_hops, sd))
            lamf = float(lam)
            record("shrink-lower", q / (lamf ** b1 * q_base))
            record("shrink-upper", q / (lamf ** b0 * q_base))

    stats = [CheckStat(k, bounds[k][0], bounds[k][1], ranges[k][0], ranges[k][1],
                       ranges[k][2]) for k in bounds]
    return ComparisonReport(n, len(pairs), stats, floor_count,
                            all(s.ok for s in stats))
