"""Realizing a prescribed space-time scale by a subdivision sequence.

Given an increasing eta on (0, 1] with eta(1) = 1 whose inverse shrinks
fast enough (summability of eta^{-1}(2^{-n})/eta^{-1}(2^{1-n})), the
realization picks an offset n0 and levels

    l_n = floor( eta^{-1}(2^{-n0}) / (L_{n-1} eta^{-1}(2^{-n-n0})) ),

which keeps 1/L_n within a factor 6/5 of eta^{-1}(2^{-n-n0}) relative to
eta^{-1}(2^{-n0}) and makes the piecewise time scale of the sequence
comparable to r^2 eta(r).  Floors are certified with interval arithmetic
at adaptive precision, so the doubly exponential growth of the levels is
exact, not floating point.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import iv

from .errors import DomainError, RealizationError
from .sequence import MIN_LEVEL, LevelSequence, time_factor

E_MINUS_1 = math.e - 1.0

#: Largest magnitude, in bits, of an argument the inverses pass to exp.
#: mpmath reduces x modulo log 2 at about mag(x) extra bits (0.24 s at 1e5
#: bits, 19 s at 2^20 bits on 2 vCPUs).  At y = 2^-n, eta1 passes n + 1
#: bits, eta2 about 1.44 * 2^n (about 6000 in its summability screen), and
#: more than 2^16 is passed by eta3 from n = 4 on and by eta4 from n = 2.
_EXP_ARG_MAX_MAG = 1 << 16


# ---- The eta family ------------------------------------------------------


def _eta1_float(r: float) -> float:
    return 1.0 / math.log(E_MINUS_1 + 1.0 / r)


class EtaFunction:
    """A space-time profile eta: (0, 1] -> (0, 1], increasing, eta(1) = 1.

    Kinds: "elementary" is 1/log(e-1+1/r); "iterated" composes it k times;
    "piecewise" interpolates exact rational knots linearly.  Every kind
    has a certified interval inverse.
    """

    def __init__(self, kind: str, k: int = 1, knots=None,
                 label: str | None = None):
        self.kind = kind
        self.k = k
        self.knots = None
        if kind == "piecewise":
            if not knots or len(knots) < 2:
                raise DomainError("piecewise eta needs at least two knots")
            ks = sorted((Fraction(r), Fraction(y)) for r, y in knots)
            for (r1, y1), (r2, y2) in zip(ks, ks[1:]):
                if r1 >= r2 or y1 >= y2:
                    raise DomainError("piecewise eta knots must be strictly increasing")
            if ks[-1][0] != 1 or ks[-1][1] != 1:
                raise DomainError("piecewise eta must end at the knot (1, 1)")
            self.knots = ks
        elif kind not in ("elementary", "iterated"):
            raise DomainError(f"unknown eta kind {kind!r}")
        self.label = label or kind

    # -- constructors

    @classmethod
    def elementary(cls) -> "EtaFunction":
        return cls("elementary", k=1, label="log-profile")

    @classmethod
    def iterated(cls, k: int) -> "EtaFunction":
        if k < 1:
            raise DomainError("iterate count must be >= 1")
        if k == 1:
            return cls.elementary()
        return cls("iterated", k=k, label=f"log-profile^{k}")

    @classmethod
    def piecewise(cls, knots, label: str = "piecewise") -> "EtaFunction":
        return cls("piecewise", knots=knots, label=label)

    # -- evaluation

    def __call__(self, r) -> float:
        r = float(r)
        if r <= 0:
            raise DomainError("eta is defined for r > 0")
        if r >= 1:
            return 1.0
        if self.kind in ("elementary", "iterated"):
            if r < 1e-300:
                return float(self.mp_value(r))
            v = r
            for _ in range(self.k):
                v = _eta1_float(v)
            return v
        return float(self._piecewise_value(Fraction(r)))

    def _piecewise_value(self, r: Fraction) -> Fraction:
        ks = self.knots
        if r < ks[0][0]:
            raise DomainError(f"r = {float(r)} below the stored knots")
        for (r1, y1), (r2, y2) in zip(ks, ks[1:]):
            if r <= r2:
                return y1 + (y2 - y1) * (r - r1) / (r2 - r1)
        return Fraction(1)

    def mp_value(self, r, prec: int = 120):
        """eta(r) as an mpmath float; r may be a Fraction with a huge
        denominator."""
        with mpmath.workprec(prec):
            r = Fraction(r)
            if r >= 1:
                return mpmath.mpf(1)
            if self.kind in ("elementary", "iterated"):
                inv_r = mpmath.mpf(r.denominator) / mpmath.mpf(r.numerator)
                v = 1 / mpmath.log(mpmath.e - 1 + inv_r)
                for _ in range(self.k - 1):
                    v = 1 / mpmath.log(mpmath.e - 1 + 1 / v)
                return v
            v = self._piecewise_value(r)
            return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)

    # -- inverses

    def inverse(self, y) -> float:
        y = float(y)
        if not 0 < y <= 1:
            raise DomainError("eta values lie in (0, 1]")
        if self.kind in ("elementary", "iterated"):
            r = float(self.mp_inverse(y))
            if r == 0.0:
                raise DomainError(f"eta^-1({y}) lies below double range")
            return r
        return float(self._piecewise_inverse(Fraction(y)))

    def _piecewise_inverse(self, y: Fraction) -> Fraction:
        ks = self.knots
        if y < ks[0][1]:
            raise DomainError(f"y = {float(y)} below the stored knots")
        for (r1, y1), (r2, y2) in zip(ks, ks[1:]):
            if y <= y2:
                return r1 + (r2 - r1) * (y - y1) / (y2 - y1)
        return Fraction(1)

    def mp_inverse(self, y, prec: int = 120):
        with mpmath.workprec(prec):
            y = Fraction(y)
            if self.kind in ("elementary", "iterated"):
                v = mpmath.mpf(y.numerator) / mpmath.mpf(y.denominator)
                for _ in range(self.k):
                    x = 1 / v
                    if mpmath.mag(x) > _EXP_ARG_MAX_MAG:
                        raise RealizationError(
                            f"{self.label} inverse at {y} needs exp of a number "
                            f"past 2^{_EXP_ARG_MAX_MAG}")
                    v = 1 / (mpmath.exp(x) - mpmath.e + 1)
                return v
            v = self._piecewise_inverse(y)
            return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)

    def iv_inverse(self, y):
        """Certified interval enclosure of eta^{-1}(y) at the current
        iv precision; y is a Fraction (piecewise) or Fraction/interval."""
        if self.kind == "piecewise":
            if not isinstance(y, Fraction):
                raise DomainError("piecewise inversion needs an exact rational y")
            r = self._piecewise_inverse(y)
            return iv.mpf(r.numerator) / iv.mpf(r.denominator)
        if isinstance(y, Fraction):
            y = iv.mpf(y.numerator) / iv.mpf(y.denominator)
        e_iv = iv.exp(iv.mpf(1))
        v = y
        for _ in range(self.k):
            x = 1 / v
            if mpmath.mag(x.b) > _EXP_ARG_MAX_MAG:
                raise RealizationError(f"{self.label} inverse needs exp of a number "
                                       f"past 2^{_EXP_ARG_MAX_MAG}")
            v = 1 / (iv.exp(x) - e_iv + 1)
        return v


# ---- Summability ---------------------------------------------------------


def summability_report(eta: EtaFunction, n_terms: int = 16,
                       threshold: float = 0.45, prec: int = 160) -> dict:
    """Terms eta^{-1}(2^{-n})/eta^{-1}(2^{1-n}) and their partial sums.

    The tail must drop below the threshold and keep decreasing for the
    realization to make sense; the identity profile eta(r) = r stalls at
    1/2 and is flagged.
    """
    logs = []
    terms = []
    partial = []
    with mpmath.workprec(prec):
        prev = None
        acc = mpmath.mpf(0)
        for n in range(1, n_terms + 1):
            cur = eta.mp_inverse(Fraction(1, 2 ** n), prec=mpmath.mp.prec)
            if prev is None:
                prev = eta.mp_inverse(Fraction(1), prec=mpmath.mp.prec)
            t = cur / prev
            acc += t
            try:
                tf = float(t)
            except OverflowError:
                tf = 0.0
            terms.append(tf)
            lg = mpmath.log(t)
            logs.append(float(lg) if mpmath.isfinite(lg) else -math.inf)
            partial.append(float(acc))
            prev = cur
    tail = terms[max(0, n_terms - 5):]
    decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
    below = terms[-1] <= threshold
    return {"eta": eta.label, "n_terms": n_terms, "terms": terms,
            "log_terms": logs, "partial_sums": partial,
            "threshold": threshold, "tail_decreasing": decreasing,
            "below_threshold": below, "summable": decreasing and below}


# ---- Growth criterion ----------------------------------------------------


@dataclass(frozen=True)
class CriterionParams:
    """Constants (delta, alpha, beta, c) in the growth bound

    eta(R)/eta(r) <= 1 + delta + c (R/r)^beta / log(e-1+1/R)^alpha."""

    delta: float
    alpha: float
    beta: float
    c: float


def elementary_params(beta: float) -> CriterionParams:
    """The elementary profile satisfies the bound with delta 0, alpha 1
    and c = 1/(e beta) for any beta > 0."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    return CriterionParams(0.0, 1.0, beta, 1.0 / (math.e * beta))


def compose_params(inner: CriterionParams, inner_eta: EtaFunction,
                   outer: CriterionParams) -> CriterionParams:
    """Parameters certified for outer_eta composed with inner_eta, given
    that the outer profile satisfies the bound with beta = 1.

    The new delta is (1 + outer.delta)/2; alpha and beta carry over from
    the inner profile."""
    if abs(outer.beta - 1.0) > 1e-12:
        raise DomainError("composition requires outer beta = 1")
    d, c = inner.delta, inner.c
    dt, at, ct = outer.delta, outer.alpha, outer.c
    r_t = inner_eta.inverse(math.exp(-((2 * ct * (1 + d) / (1 - dt)) ** (1.0 / at))))
    log_term = math.log(E_MINUS_1 + 1.0 / r_t)
    c_new = ct * (1 + d) * log_term ** inner.alpha + ct * c
    return CriterionParams((1 + dt) / 2.0, inner.alpha, inner.beta, c_new)


def growth_criterion_check(eta: EtaFunction, params: CriterionParams,
                           n_points: int = 24, ratios=(2.0, 8.0, 64.0, 1024.0),
                           r_min: float = 1e-8) -> dict:
    """Sampled check of the growth bound over a geometric grid."""
    worst = -math.inf
    violations = []
    for i in range(n_points):
        big_r = r_min ** (1 - i / (n_points - 1)) if n_points > 1 else 1.0
        for rho in ratios:
            r = big_r / rho
            lhs = eta(big_r) / eta(r)
            rhs = 1 + params.delta + params.c * rho ** params.beta / \
                math.log(E_MINUS_1 + 1 / big_r) ** params.alpha
            margin = lhs / rhs
            worst = max(worst, margin)
            if margin > 1 + 1e-9:
                violations.append((r, big_r, lhs, rhs))
    return {"eta": eta.label, "params": params, "n_checked": n_points * len(ratios),
            "max_ratio_to_bound": worst, "violations": violations,
            "passed": not violations}


def eta_doubling_check(eta: EtaFunction, beta_eta: float, c: float = 4.0,
                       n_points: int = 40, ratios=(2.0, 16.0, 256.0),
                       r_min: float = 1e-10) -> dict:
    """Sampled check of eta(R)/eta(r) <= c (R/r)^beta_eta."""
    violations = []
    for i in range(n_points):
        r = r_min ** (1 - i / (n_points - 1)) if n_points > 1 else 1.0
        for rho in ratios:
            big_r = min(1.0, r * rho)
            lhs = eta(big_r) / eta(r)
            rhs = c * (big_r / r) ** beta_eta
            if lhs > rhs * (1 + 1e-9):
                violations.append((r, big_r, lhs, rhs))
    return {"eta": eta.label, "beta_eta": beta_eta, "c": c,
            "violations": violations, "passed": not violations}


# ---- Realization ---------------------------------------------------------


@dataclass
class LevelRecord:
    n: int
    level: int
    prec: int
    bracket_ok: bool


@dataclass
class RealizationResult:
    eta_label: str
    n0: int
    n_levels: int
    sequence: LevelSequence
    records: list
    certified: bool
    min_ratio: int

    @property
    def entries(self) -> tuple[int, ...]:
        return self.sequence.entries


def _mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float endpoint."""
    t = getattr(x, "_mpf_", None)
    if t is None:
        # iv-context endpoints come back as degenerate intervals
        lo, hi = x._mpi_
        if lo != hi:
            raise RealizationError("endpoint is not degenerate")
        t = lo
    sign, man, exp, _ = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise RealizationError("non-finite interval endpoint")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _iv_ratio_at(eta: EtaFunction, n: int):
    """Interval for eta^{-1}(2^{1-n})/eta^{-1}(2^{-n})."""
    num = eta.iv_inverse(Fraction(1, 2 ** (n - 1)))
    den = eta.iv_inverse(Fraction(1, 2 ** n))
    return num / den


def _certify_ge(make_iv, bound: int, start_prec: int, max_prec: int):
    """True/False for value >= bound, raising precision until decidable."""
    prec = start_prec
    while prec <= max_prec:
        saved = iv.prec
        try:
            iv.prec = prec
            val = make_iv()
            if val.a >= bound:
                return True, prec
            if val.b < bound:
                return False, prec
        finally:
            iv.prec = saved
        prec *= 2
    raise RealizationError(f"cannot decide comparison at precision {max_prec}")


def _choose_n0(eta: EtaFunction, min_ratio: int, window: int,
               start_prec: int, max_prec: int) -> int:
    for cand in range(1, 41):
        ok = True
        for n in range(cand, cand + window + 1):
            ge, _ = _certify_ge(lambda n=n: _iv_ratio_at(eta, n),
                                min_ratio, start_prec, max_prec)
            if not ge:
                ok = False
                break
        if ok:
            return cand
    raise RealizationError("no admissible offset n0 found below 41")


def realize_sequence(eta: EtaFunction, n_levels: int, n0: int | None = None,
                     min_ratio: int = 5, horizon_extra: int = 8,
                     start_prec: int = 192, max_prec: int = 1 << 22,
                     summability_terms: int = 12) -> RealizationResult:
    """Compute the level sequence realizing eta, with certified floors.

    Raises RealizationError when eta fails the summability screen, when no
    offset makes consecutive inverse values shrink by min_ratio, when a
    computed level falls below the minimum, or, by magnitude before any
    precision is raised, when a level has more than max_prec bits or an
    inverse would take exp of a number past 2^_EXP_ARG_MAX_MAG.
    """
    if n_levels < 1:
        raise DomainError("need at least one level")

    screen = summability_report(eta, n_terms=summability_terms)
    if not screen["summable"]:
        raise RealizationError(
            "eta fails the summability screen; partial sums "
            f"{[round(p, 4) for p in screen['partial_sums'][:8]]}, last term "
            f"{screen['terms'][-1]:.4g} above threshold {screen['threshold']}")

    window = n_levels + horizon_extra
    if n0 is None:
        n0 = _choose_n0(eta, min_ratio, window, start_prec, max_prec)
    else:
        for n in range(n0, n0 + window + 1):
            ge, _ = _certify_ge(lambda n=n: _iv_ratio_at(eta, n),
                                min_ratio, start_prec, max_prec)
            if not ge:
                raise RealizationError(f"offset n0 = {n0} violates the ratio "
                                       f"condition at n = {n}")

    entries = []
    records = []
    big_l = 1
    prec = start_prec
    for n in range(1, n_levels + 1):
        while True:
            if prec > max_prec:
                raise RealizationError(f"cannot certify level {n} below "
                                       f"precision {max_prec}")
            saved = iv.prec
            try:
                iv.prec = prec
                base = eta.iv_inverse(Fraction(1, 2 ** n0))
                x = eta.iv_inverse(Fraction(1, 2 ** (n + n0)))
                q = base / (iv.mpf(big_l) * x)
                # no precision up to the cap decides the floor of a larger number
                if mpmath.mag(q.b) > max_prec:
                    raise RealizationError(f"level {n} has more than {max_prec} bits; "
                                           "no precision up to the cap certifies it")
                lo = math.floor(_mpf_to_fraction(q.a))
                hi = math.floor(_mpf_to_fraction(q.b))
                if lo == hi:
                    l_n = lo
                    lhs = iv.mpf(big_l * l_n) * x
                    ok_lower = lhs.b <= base.a
                    ok_upper = base.b <= ((iv.mpf(6) / iv.mpf(5)) * lhs).a
                    if ok_lower and ok_upper:
                        break
            finally:
                iv.prec = saved
            prec *= 2
        if l_n < MIN_LEVEL:
            raise RealizationError(
                f"realized level l_{n} = {l_n} below the minimum {MIN_LEVEL}; "
                "eta decays too slowly at this offset")
        entries.append(l_n)
        records.append(LevelRecord(n, l_n, prec, True))
        big_l *= l_n
    seq = LevelSequence(tuple(entries), diverging=True)
    return RealizationResult(eta.label, n0, n_levels, seq, records, True, min_ratio)


# ---- Comparability of the realized time scale ----------------------------


def comparability_report(eta: EtaFunction, result: RealizationResult,
                         samples_per_segment: int = 3, prec: int = 320) -> dict:
    """Compare the realized piecewise time scale against r^2 eta(r).

    Evaluates ratio(r) = Psi(r) / (r^2 eta(r)) at the knots 1/L_n and at
    interior sample points, in the log domain, and checks the whole range
    against the budget [c'/2, max(c, c^2) 2^{n0+1}] built from the ratio
    infimum of eta and the realized levels.
    """
    ls = result.sequence
    entries = ls.entries
    big_n = len(entries)
    n0 = result.n0

    with mpmath.workprec(prec):
        # ratio infimum of eta over the realization window (finite surrogate)
        ratios = []
        for n in range(1, big_n + n0 + result_horizon(result)):
            num = eta.mp_inverse(Fraction(1, 2 ** (n - 1)), prec=prec)
            den = eta.mp_inverse(Fraction(1, 2 ** n), prec=prec)
            ratios.append(num / den)
        c_eta = min(ratios)
        beta_eta = 1.0 / float(mpmath.log(c_eta, 2))

        inv_base = eta.mp_inverse(Fraction(1, 2 ** n0), prec=prec)
        c_hi = float(2 ** (2 - n0) * ((mpmath.mpf(6) / 5) / inv_base) ** beta_eta)
        prod = mpmath.mpf(1)
        for l in entries:
            prod *= 1 - mpmath.mpf(5) / (6 * l) - mpmath.mpf(1) / (6 * l * l)
        c_lo = float(mpmath.mpf(2) ** -n0 * prod)

        identity_ok = _knot_identity_exact(entries)

        # sampled ratios of Psi against r^2 eta(r)
        knot_ratios = []
        sample_ratios = []
        t_run = Fraction(1)
        l_run = 1
        for n in range(1, big_n + 1):
            l = entries[n - 1]
            t_run *= time_factor(l)
            l_run *= l
            ln_t = mpmath.log(mpmath.mpf(t_run.numerator)) - \
                mpmath.log(mpmath.mpf(t_run.denominator))
            ln_l = mpmath.log(mpmath.mpf(l_run))
            eta_val = eta.mp_value(Fraction(1, l_run), prec=prec)
            v = float(mpmath.exp(ln_t + mpmath.log(eta_val) - 2 * ln_l))
            knot_ratios.append(v)
            a = Fraction(3 * l - 4, l - 1)
            b = Fraction(6 * l - 8, 9 * (l - 1))
            for j in range(1, samples_per_segment + 1):
                u = 1 + Fraction(j * (l - 1), samples_per_segment + 1)
                # Psi(u/L_n) = (1/T_n)(1+A(u-1))(1+B(u-1))
                fac = (1 + a * (u - 1)) * (1 + b * (u - 1))
                ln_psi = mpmath.log(mpmath.mpf(fac.numerator)) - \
                    mpmath.log(mpmath.mpf(fac.denominator)) - ln_t
                r = u / l_run
                ln_r = mpmath.log(mpmath.mpf(r.numerator)) - \
                    mpmath.log(mpmath.mpf(r.denominator))
                eta_r = eta.mp_value(r, prec=prec)
                sample_ratios.append(float(mpmath.exp(2 * ln_r + mpmath.log(eta_r)
                                                      - ln_psi)))

    lo_budget = c_lo / 2.0
    hi_budget = max(c_hi, c_hi ** 2) * 2.0 ** (n0 + 1)
    all_ratios = knot_ratios + sample_ratios
    in_budget = all(lo_budget * (1 - 1e-9) <= v <= hi_budget * (1 + 1e-9)
                    for v in all_ratios)
    knots_in_core = all(c_lo * (1 - 1e-9) <= v <= c_hi * (1 + 1e-9)
                        for v in knot_ratios)
    return {"eta": eta.label, "n0": n0, "n_levels": big_n,
            "c_eta": float(c_eta), "beta_eta": beta_eta,
            "c_hi": c_hi, "c_lo": c_lo,
            "knot_identity_exact": identity_ok,
            "knot_ratios": knot_ratios,
            "ratio_min": min(all_ratios), "ratio_max": max(all_ratios),
            "budget": (lo_budget, hi_budget),
            "knots_in_core": knots_in_core,
            "passed": in_budget and identity_ok}


def result_horizon(result: RealizationResult) -> int:
    return max(8, result.n_levels)


def _knot_identity_exact(entries) -> bool:
    """T_n / L_n^2 = 2^n prod (1 - 5/(6 l_k) - 1/(6 l_k^2)), exactly."""
    t_acc = Fraction(1)
    l_acc = 1
    p_acc = Fraction(1)
    for k, l in enumerate(entries, start=1):
        t_acc *= time_factor(l)
        l_acc *= l
        p_acc *= 1 - Fraction(5, 6 * l) - Fraction(1, 6 * l * l)
        if t_acc != 2 ** k * l_acc * l_acc * p_acc:
            return False
    return True


# ---- Slowly decaying profiles -------------------------------------------


def slow_decay_eta(psi0, n_max: int = 6, r_min: float = 1e-12,
                   grid_points: int = 600) -> tuple[EtaFunction, dict]:
    """Build a summable piecewise eta dominating psi0(r)/r^2 up to scale.

    psi0 is a positive nondecreasing callable on (0, 1].  With
    eta0(r) = sup over s <= r of psi0(s)/s^2 and s_n the largest s with
    eta0(s) <= 2^{-n} eta0(1), the knots (2^{-n^2} s_n, 2^{-n}) define a
    piecewise linear eta whose summability terms are bounded by 2^{1-2n},
    so the partial sums never exceed 2/3.
    """
    if n_max < 1:
        raise DomainError("need at least one knot level")
    grid = [r_min * (1.0 / r_min) ** (i / (grid_points - 1))
            for i in range(grid_points)]
    env = []
    cur = -math.inf
    for s in grid:
        cur = max(cur, psi0(s) / (s * s))
        env.append(cur)
    eta0_one = env[-1]
    if eta0_one <= 0:
        raise DomainError("psi0 must be positive somewhere on the grid")

    def eta0(s: float) -> float:
        j = bisect.bisect_right(grid, s) - 1
        base = env[j] if j >= 0 else 0.0
        return max(base, psi0(s) / (s * s))

    s_list = []
    for n in range(n_max + 1):
        target = eta0_one / 2 ** n
        if eta0(1.0) <= target:
            s_list.append(1.0)
            continue
        if eta0(grid[0]) > target:
            raise DomainError(f"grid floor {r_min} too coarse for level {n}")
        lo, hi = grid[0], 1.0
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if eta0(mid) <= target:
                lo = mid
            else:
                hi = mid
        # the exact maximizers are nonincreasing in n; keep that exact
        s_list.append(min(lo, s_list[-1]) if s_list else lo)

    knots = []
    for n in range(n_max + 1):
        r = Fraction(1, 2 ** (n * n)) * Fraction(s_list[n])
        knots.append((r, Fraction(1, 2 ** n)))
    knots = sorted(knots)
    eta = EtaFunction.piecewise(knots, label="slow-decay")

    terms = []
    for n in range(1, n_max + 1):
        r_n = knots[n_max - n][0]
        r_prev = knots[n_max - n + 1][0]
        terms.append(r_n / r_prev)
    partial = []
    acc = Fraction(0)
    for t in terms:
        acc += t
        partial.append(float(acc))
    bound_ok = all(t <= Fraction(1, 2 ** (2 * n - 1)) for n, t in enumerate(terms, 1))

    dom_grid = [s for s in grid if s >= float(knots[0][0])]
    dominated = all(eta(s) >= psi0(s) / (s * s) / (2 * eta0_one) * (1 - 1e-9)
                    for s in dom_grid)
    report = {"n_max": n_max, "s_values": s_list,
              "knots": [(float(r), float(y)) for r, y in knots],
              "terms": [float(t) for t in terms], "partial_sums": partial,
              "terms_below_geometric": bound_ok,
              "partial_sum_bound": 2.0 / 3.0,
              "partial_sums_ok": partial[-1] <= 2.0 / 3.0 + 1e-12,
              "dominates": dominated,
              "passed": bound_ok and partial[-1] <= 2.0 / 3.0 + 1e-12 and dominated}
    return eta, report
