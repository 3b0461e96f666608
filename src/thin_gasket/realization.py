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

Reciprocal enclosures.  The realization needs only ratios of inverse
values, so it encloses the reciprocals B = 1/eta^{-1}(2^{-n0}) and
X = 1/eta^{-1}(2^{-n-n0}) directly.  For the log profiles that is
exp(x) - e + 1 at the last iterate (x = 1/y, then x <- exp(x) - e + 1), with
no division at all when y is a power of 1/2; for piecewise eta it is the
exact reciprocal of the knot interpolant.  There is no other eta^{-1}: the
summability screen and the comparability report read the midpoints of the
same enclosures, at 160 and 320 bits.  At y = 2^-m the first iterate is
exp of the point 2^m, enclosed at precision p from one squaring chain: e
rounded down at wp = p + m + _EXP_CHAIN_GUARD bits and squared m times with
truncation to wp bits gives a_m <= exp(2^m).  Each of those 1 + m roundings
leaves exact / rounded < 1 + 2^{1-wp} and enters a_m raised to at most 2^m,
the powers summing to 2^{m+1} - 1, so
exp(2^m) < a_m (1 + 2^{1-wp})^{2^{m+1}} <= a_m exp(2^{m+2-wp})
<= a_m (1 + 2^{m+3-wp}); both ends are then rounded outward to p bits.
Arguments that are not such points (the later iterates) go through iv.exp.

Floors and brackets.  With S the enclosure of L_{n-1} B, the floor
l_n = floor(X / (L_{n-1} B)) is decided by one integer floor division,
f = floor(X.a / S.b), and one cross-multiplication, X.b < (f + 1) S.a, which
puts the upper quotient X.b / S.a below f + 1 as well.  The division is
_floor_div: the recursive division of Burnikel and Ziegler once quotient
and divisor both pass _DIV_LIMIT bits, so a floor costs a few Karatsuba
products rather than the builtin's quadratic long division (about 80 ms
for the 393k-bit by 197k-bit floor of the top eta1 rung).  The brackets are
the cross-multiplied, all-positive forms L_n B <= X and 5 X <= 6 L_n B.

Magnitude-guided precision ladder.  Precision rises in the doubling order
_START_PREC, 2 _START_PREC, ... and carries over from one level to the
next, so each LevelRecord.prec is the first rung, at or above the previous
level's, that certifies the level.  A cheap probe of q = X / (L_{n-1} B) at
_START_PREC gives M = mag(q), and refuses a level of more than _MAX_PREC
bits before any precision is raised; the ladder then skips every rung p < M - 2.
Such a rung cannot decide.  The ends of its enclosure of X are p-bit
floats, distinct for the log profiles (exp of a nonzero rational is
irrational, so no enclosure built on it is a point), so
X.b - X.a > 2^{-p} X.a and the quotients X.a / S.b <= q <= X.b / S.a differ
by more than 2^{-p} X.a / S.b.  The probe's lower end gives q >= 2^{M-1}.
Were the floors equal, X.a / S.b >= floor(q) >= 2^{M-1}, so the quotients
would differ by more than 2^{M-1-p} >= 4 > 1, a contradiction.  Piecewise
eta may give an exact point enclosure, so its ladder skips nothing.

Offsets and the cap.  The level-(k-1) bracket L_{k-1} B <= X_{k-1} gives
l_k >= floor(X_k / X_{k-1}), the window ratio at n = n0 + k, so a ratio
whose lower end reaches 2^_MAX_PREC shows level k past the cap, and the
window scan refuses the run there: the later terms, each an exp(2^n), and
the levels before k are never computed.  With a given n0 any refusal
stands, since the full scan and the levels would refuse too.  While n0 is
being chosen the scan refuses only for the log profiles, whose ratios
increase with n: with f(x) = e^x - e + 1, c = e - 1 and v = f^{k-1}(2^n),
f(2a) - 2 f(a) = (e^a - 1)^2 + c - 1 > 0 and f(a) >= a >= 1 give
ratio(n + 1) >= f(2v)/f(v) >= e^v + c > f(v) >= ratio(n).  A candidate
whose ratio at n passed min_ratio then passes its whole window and is the
offset chosen.

In the comparability report, ln T_n and ln Psi are sums of the logs of
the per-level factors (6l+1), (l-1), 3, (s1 + j(3l-4)) and (9 s1 + j(6l-8)),
so no level-size product is formed only to be logged.  The knot identity is
checked exactly per level, and r and eta(r) come from integer
numerator/denominator pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter

import mpmath
from mpmath import iv
from mpmath.libmp import mpf_e, normalize, round_ceiling, round_floor

from .errors import DomainError, RealizationError
from .sequence import MIN_LEVEL, LevelSequence, time_factor

#: Largest magnitude, in bits, of an argument the inverses pass to exp.
#: mpmath reduces x modulo log 2 at about mag(x) extra bits (0.24 s at 1e5
#: bits, 19 s at 2^20 bits on 2 vCPUs).  At y = 2^-n, eta1 passes n + 1
#: bits, eta2 about 1.44 * 2^n (about 6000 in its summability screen), and
#: more than 2^16 is passed by eta3 from n = 4 on and by eta4 from n = 2.
_EXP_ARG_MAX_MAG = 1 << 16

#: Guard bits of the squaring chain that encloses exp(2^m): its relative
#: error bound 2^(m+3-wp) is then 2^-45 of an ulp at the iv precision, so
#: the outward rounding lands on the ends iv.exp gives.
_EXP_CHAIN_GUARD = 48

#: First and last rungs, in bits, of the realization's precision ladder.
_START_PREC = 192
_MAX_PREC = 1 << 22

#: Quotient or divisor bits up to which _floor_div uses the builtin
#: division; CPython 3.12's _pylong recursion stops at the same size.
_DIV_LIMIT = 4000

#: Extra levels past the requested ones over which an offset n0 must keep
#: the ratio condition.
_HORIZON_EXTRA = 8

#: Terms of the summability screen run before a realization.
_SCREEN_TERMS = 12

#: The last screened term must not exceed this for eta to count as summable.
_SUMMABILITY_THRESHOLD = 0.45


# ---- The eta family ------------------------------------------------------


class EtaFunction:
    """A space-time profile eta: (0, 1] -> (0, 1], increasing, eta(1) = 1.

    Kinds: "iterated" composes the log profile 1/log(e-1+1/r) k >= 1 times
    (k = 1 is the elementary profile); "piecewise" interpolates exact
    rational knots linearly.  Every kind has a certified interval enclosure
    of 1/eta^{-1}.
    """

    def __init__(self, kind: str, k: int = 1, knots=None,
                 label: str | None = None):
        if not isinstance(k, int) or k < 1:
            raise DomainError(f"iterate count k must be an integer >= 1, got {k!r}")
        self.kind = kind
        self.k = k
        self.knots = None
        self._inverse_knots = None  # the knots swapped, (y, r): eta^{-1}'s interpolant
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
            self._inverse_knots = [(y, r) for r, y in ks]
        elif kind != "iterated":
            raise DomainError(f"unknown eta kind {kind!r}")
        self.label = label or kind

    # -- constructors

    @classmethod
    def elementary(cls) -> "EtaFunction":
        return cls.iterated(1)

    @classmethod
    def iterated(cls, k: int) -> "EtaFunction":
        return cls("iterated", k=k, label="log-profile" if k == 1 else f"log-profile^{k}")

    @classmethod
    def piecewise(cls, knots, label: str = "piecewise") -> "EtaFunction":
        return cls("piecewise", knots=knots, label=label)

    # -- evaluation

    def __call__(self, r) -> float:
        r = float(r)
        if not r > 0:
            raise DomainError("eta is defined for r > 0")
        if r >= 1:
            return 1.0
        r = Fraction(r)
        with mpmath.workprec(120):
            return float(self._mp_ratio_value(r.numerator, r.denominator))

    def _mp_ratio_value(self, num: int, den: int):
        """eta(num/den) at the working precision, for positive integers
        num and den that need not be coprime; den may be huge."""
        if num >= den:
            return mpmath.mpf(1)
        if self.kind == "iterated":
            inv_r = mpmath.mpf(den) / mpmath.mpf(num)
            v = 1 / mpmath.log(mpmath.e - 1 + inv_r)
            for _ in range(self.k - 1):
                v = 1 / mpmath.log(mpmath.e - 1 + 1 / v)
            return v
        v = _interpolate(Fraction(num, den), self.knots, "r")
        return mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator)

    # -- the inverse

    def iv_inverse_recip(self, y: Fraction):
        """Certified interval enclosure of 1/eta^{-1}(y) at the current iv
        precision, for a rational y in (0, 1]: the package's one eta^{-1}."""
        if self.kind == "piecewise":
            r = _interpolate(y, self._inverse_knots, "y")
            return iv.mpf(r.denominator) / iv.mpf(r.numerator)
        e_iv = iv.exp(iv.mpf(1))
        # 1/eta1^{-1}(v) = exp(1/v) - e + 1: each iterate needs only the
        # reciprocal the previous one returned
        x = iv.mpf(y.denominator) / iv.mpf(y.numerator)
        for _ in range(self.k):
            if mpmath.mag(x.b) > _EXP_ARG_MAX_MAG:
                raise RealizationError(f"{self.label} inverse at {y} needs exp of a "
                                       f"number past 2^{_EXP_ARG_MAX_MAG}")
            lo, hi = x._mpi_
            # a point 2^m (the first iterate at y = 2^-m) is a normalized
            # mantissa of 1
            if lo == hi and lo[1] == 1 and lo[2] >= 0:
                x = _iv_exp_pow2(lo[2]) - e_iv + 1
            else:
                x = iv.exp(x) - e_iv + 1
        return x


def _interpolate(x: Fraction, knots, name: str) -> Fraction:
    """The linear interpolant through the increasing (x, y) knots at x, 1
    past the last; eta passes its knots, eta^{-1} the same ones swapped.
    The piece is found by bisection on the abscissae, and a knot's own y is
    returned as it is, with no Fraction arithmetic."""
    i = bisect_left(knots, x, key=itemgetter(0))
    if i == len(knots):
        return Fraction(1)
    x2, y2 = knots[i]
    if x == x2:
        return y2
    if i == 0:
        raise DomainError(f"{name} = {float(x)} below the stored knots")
    x1, y1 = knots[i - 1]
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


def _iv_exp_pow2(m: int):
    """Enclosure of exp(2^m) at the current iv precision from one squaring
    chain (module docstring, "Reciprocal enclosures")."""
    prec = iv.prec
    wp = prec + m + _EXP_CHAIN_GUARD
    _, man, exp, _ = mpf_e(wp, round_floor)
    for _ in range(m):
        man *= man
        exp += exp
        shift = man.bit_length() - wp
        if shift > 0:
            man >>= shift
            exp += shift
    upper = man + (man >> (wp - m - 3)) + 1
    return iv.make_mpf((normalize(0, man, exp, man.bit_length(), prec, round_floor),
                        normalize(0, upper, exp, upper.bit_length(), prec, round_ceiling)))


# ---- Summability ---------------------------------------------------------


def summability_report(eta: EtaFunction, n_terms: int = 16) -> dict:
    """Terms eta^{-1}(2^{-n})/eta^{-1}(2^{1-n}), the midpoints of the
    reciprocal enclosures' ratios, and their partial sums, at 160 bits.

    The tail must drop below _SUMMABILITY_THRESHOLD and keep decreasing for
    the realization to make sense; the identity profile eta(r) = r stalls
    at 1/2 and is flagged.
    """
    if n_terms < 1:
        raise DomainError(f"need at least one summability term, got {n_terms}")
    terms, partial = [], []
    with _iv_prec(160), mpmath.workprec(160):
        recips = [eta.iv_inverse_recip(Fraction(1, 2 ** n)) for n in range(n_terms + 1)]
        acc = mpmath.mpf(0)
        for prev, cur in zip(recips, recips[1:]):
            t = mpmath.mpf((prev / cur).mid)
            acc += t
            terms.append(float(t))
            partial.append(float(acc))
    tail = terms[max(0, n_terms - 5):]
    decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
    below = terms[-1] <= _SUMMABILITY_THRESHOLD
    return {"eta": eta.label, "n_terms": n_terms, "terms": terms, "partial_sums": partial,
            "threshold": _SUMMABILITY_THRESHOLD, "tail_decreasing": decreasing,
            "below_threshold": below, "summable": decreasing and below}


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


@contextmanager
def _iv_prec(prec: int):
    saved = iv.prec
    iv.prec = prec
    try:
        yield
    finally:
        iv.prec = saved


def _iv_ratio_at(eta: EtaFunction, n: int):
    """Interval for eta^{-1}(2^{1-n})/eta^{-1}(2^{-n})."""
    return eta.iv_inverse_recip(Fraction(1, 2 ** n)) / \
        eta.iv_inverse_recip(Fraction(1, 2 ** (n - 1)))


def _certified_lower_end(make_iv, bound: int):
    """The lower end of the first enclosure, precision rising, that decides
    value >= bound: returned when the value is at least bound, None when it
    is below."""
    prec = _START_PREC
    while prec <= _MAX_PREC:
        with _iv_prec(prec):
            val = make_iv()
            if val.a >= bound:
                return val.a
            if val.b < bound:
                return None
        prec *= 2
    raise RealizationError(f"cannot decide comparison at precision {_MAX_PREC}")


def _level_enclosures(eta: EtaFunction, n0: int, n: int, big_l: int):
    """Enclosures (X, L_{n-1} B, B) at the current iv precision, with
    B = 1/eta^{-1}(2^{-n0}) and X = 1/eta^{-1}(2^{-n-n0}); l_n is the
    floor of X / (L_{n-1} B)."""
    recip_base = eta.iv_inverse_recip(Fraction(1, 2 ** n0))
    recip_x = eta.iv_inverse_recip(Fraction(1, 2 ** (n + n0)))
    return recip_x, iv.mpf(big_l) * recip_base, recip_base


def _level_floor(recip_x, scaled) -> tuple[int, bool]:
    """(f, decided) for the positive enclosures recip_x of X and scaled of
    L_{n-1} B: f = floor(recip_x.a / scaled.b) from one integer floor
    division, and decided whether recip_x.b / scaled.a has the same floor,
    by the cross-multiplication recip_x.b < (f + 1) scaled.a.  When decided,
    f is the floor of X / (L_{n-1} B)."""
    (_, xa_man, xa_exp, _), (_, xb_man, xb_exp, _) = recip_x._mpi_
    (_, sa_man, sa_exp, _), (_, sb_man, sb_exp, _) = scaled._mpi_
    shift = xa_exp - sb_exp
    if shift >= 0:
        f = _floor_div(xa_man << shift, sb_man)
    else:
        f = _floor_div(xa_man, sb_man << -shift)
    bound = (f + 1) * sa_man
    shift = xb_exp - sa_exp
    if shift >= 0:
        return f, xb_man << shift < bound
    return f, xb_man < bound << -shift


# Recursive division of Burnikel and Ziegler, "Fast Recursive Division"
# (MPI-I-98-1-022, 1998), after CPython 3.12's Lib/_pylong.py (code by Mark
# Dickinson and Bjorn Martinsson, PSF licence); the long division of
# CPython 3.11 is quadratic (module docstring, "Floors and brackets").


def _floor_div(a: int, b: int) -> int:
    """a // b for integers a >= 0 and b > 0.  The builtin division serves
    when the quotient or the divisor has at most _DIV_LIMIT bits, since its
    cost is the product of their sizes; otherwise the quotient is found
    in base 2^n, n = bit length of b, by the recursion below."""
    n = b.bit_length()
    if min(n, a.bit_length() - n) <= _DIV_LIMIT:
        return a // b
    return _divmod_digits(a, b, n)[0]


def _divmod_digits(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0 of exactly n bits, splitting the
    base-2^n digits of the quotient in halves until each fits _div2n1n."""
    if a < b << n:
        return _div2n1n(a, b, n)
    s = n * max(1, (a.bit_length() - 1) // n // 2)
    q_hi, r = _divmod_digits(a >> s, b, n)
    q_lo, r = _divmod_digits(r << s | a & ((1 << s) - 1), b, n)
    return q_hi << s | q_lo, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0 of exactly n bits and 0 <= a < 2^n b."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    half_n = n >> 1
    mask = (1 << half_n) - 1
    b1, b2 = b >> half_n, b & mask
    q1, r = _div3n2n(a >> n, (a >> half_n) & mask, b, b1, b2, half_n)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half_n)
    if pad:
        r >>= 1
    return q1 << half_n | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int,
             n: int) -> tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2 of 2n bits with b1 of n
    bits, 0 <= a3 < 2^n and 0 <= a12 < b, so the quotient has at most n
    bits."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _first_useful_rung(eta: EtaFunction, q_probe, prec: int) -> int:
    """The first rung prec * 2^k not below mag(q) - 2; the rungs before it
    cannot decide the floor of q (module docstring)."""
    if eta.kind != "piecewise":
        while prec < mpmath.mag(q_probe.a) - 2:
            prec *= 2
    return prec


def _window_failure(eta: EtaFunction, n0: int, n_levels: int, min_ratio: int,
                    refuse_past_cap: bool) -> int | None:
    """The first n of n0's window, n0 <= n <= n0 + n_levels + _HORIZON_EXTRA,
    whose ratio is not certified >= min_ratio, or None.

    With refuse_past_cap, a ratio at n = n0 + k, 1 <= k <= n_levels, that
    passes and whose lower end reaches 2^_MAX_PREC raises RealizationError:
    level k is past the cap (module docstring, "Offsets and the cap")."""
    for n in range(n0, n0 + n_levels + _HORIZON_EXTRA + 1):
        low = _certified_lower_end(partial(_iv_ratio_at, eta, n), min_ratio)
        if low is None:
            return n
        if refuse_past_cap and 1 <= n - n0 <= n_levels and mpmath.mag(low) > _MAX_PREC:
            raise RealizationError(f"level {n - n0} has more than {_MAX_PREC} bits: it "
                                   f"is at least the ratio at n = {n}; no precision up "
                                   "to the cap certifies it")
    return None


def realize_sequence(eta: EtaFunction, n_levels: int, n0: int | None = None,
                     min_ratio: int = 5) -> RealizationResult:
    """Compute the level sequence realizing eta, with certified floors.

    Raises RealizationError when eta fails the summability screen, when no
    offset makes consecutive inverse values shrink by min_ratio, when a
    computed level falls below the minimum, or, by magnitude before any
    precision is raised, when a level has more than _MAX_PREC bits or an
    inverse would take exp of a number past 2^_EXP_ARG_MAX_MAG.  With a
    given n0, or for the log profiles, a level past the cap is refused while
    the offset's window is scanned, before the window's later terms or any
    level is computed.
    """
    if n_levels < 1:
        raise DomainError("need at least one level")
    if n0 is not None and n0 < 1:
        raise DomainError("n0 must be >= 1")

    screen = summability_report(eta, n_terms=_SCREEN_TERMS)
    if not screen["summable"]:
        raise RealizationError(
            "eta fails the summability screen; partial sums "
            f"{[round(p, 4) for p in screen['partial_sums'][:8]]}, last term "
            f"{screen['terms'][-1]:.4g} above threshold {screen['threshold']}")

    if n0 is None:
        # only the log profiles' ratios are known to increase with n
        refuse = eta.kind != "piecewise"
        n0 = next((cand for cand in range(1, 41)
                   if _window_failure(eta, cand, n_levels, min_ratio, refuse) is None), None)
        if n0 is None:
            raise RealizationError("no admissible offset n0 found below 41")
    else:
        n = _window_failure(eta, n0, n_levels, min_ratio, True)
        if n is not None:
            raise RealizationError(f"offset n0 = {n0} violates the ratio "
                                   f"condition at n = {n}")

    entries = []
    records = []
    big_l = 1
    prec = _START_PREC
    for n in range(1, n_levels + 1):
        with _iv_prec(_START_PREC):
            probe = _level_enclosures(eta, n0, n, big_l)
            q_probe = probe[0] / probe[1]
        # no precision up to the cap decides the floor of a larger number
        if mpmath.mag(q_probe.b) > _MAX_PREC:
            raise RealizationError(f"level {n} has more than {_MAX_PREC} bits; "
                                   "no precision up to the cap certifies it")
        prec = _first_useful_rung(eta, q_probe, prec)
        while True:
            if prec > _MAX_PREC:
                raise RealizationError(f"cannot certify level {n} below "
                                       f"precision {_MAX_PREC}")
            with _iv_prec(prec):
                recip_x, scaled, recip_base = (
                    probe if prec == _START_PREC else _level_enclosures(eta, n0, n, big_l))
                l_n, decided = _level_floor(recip_x, scaled)
                if decided:
                    next_l = big_l * l_n
                    scaled = iv.mpf(next_l) * recip_base
                    if scaled.b <= recip_x.a and (5 * recip_x).b <= (6 * scaled).a:
                        break
            prec *= 2
        if l_n < MIN_LEVEL:
            raise RealizationError(
                f"realized level l_{n} = {l_n} below the minimum {MIN_LEVEL}; "
                "eta decays too slowly at this offset")
        entries.append(l_n)
        records.append(LevelRecord(n, l_n, prec, True))
        big_l = next_l
    seq = LevelSequence(tuple(entries), diverging=True)
    return RealizationResult(eta.label, n0, n_levels, seq, records, True, min_ratio)


# ---- Comparability of the realized time scale ----------------------------


def comparability_report(eta: EtaFunction, result: RealizationResult) -> dict:
    """Compare the realized piecewise time scale against r^2 eta(r).

    Evaluates ratio(r) = Psi(r) / (r^2 eta(r)) at the knots 1/L_n and at
    three interior points per segment, in the log domain at 320 bits, and
    checks the whole range against the budget [c'/2, max(c, c^2) 2^{n0+1}]
    built from the ratio infimum of eta and the realized levels.
    """
    ls = result.sequence
    entries = ls.entries
    big_n = len(entries)
    n0 = result.n0

    with _iv_prec(320), mpmath.workprec(320):
        # ratio infimum of eta over the realization window (finite surrogate)
        recips = [eta.iv_inverse_recip(Fraction(1, 2 ** n))
                  for n in range(big_n + n0 + result_horizon(result))]
        c_eta = min(mpmath.mpf((b / a).mid) for a, b in zip(recips, recips[1:]))
        beta_eta = 1.0 / float(mpmath.log(c_eta, 2))

        inv_base = 1 / mpmath.mpf(recips[n0].mid)
        c_hi = float(2 ** (2 - n0) * ((mpmath.mpf(6) / 5) / inv_base) ** beta_eta)
        prod = mpmath.mpf(1)
        for l in entries:
            prod *= 1 - mpmath.mpf(5) / (6 * l) - mpmath.mpf(1) / (6 * l * l)
        c_lo = float(mpmath.mpf(2) ** -n0 * prod)

        identity_ok = _knot_identity_exact(entries)

        def ln(x: int):
            return mpmath.log(mpmath.mpf(x))

        # sampled ratios of Psi against r^2 eta(r)
        knot_ratios = []
        sample_ratios = []
        s1 = 4  # three interior points per segment
        ln_psi_den = ln(9 * s1 * s1)
        ln_three = ln(3)
        ln_t = mpmath.mpf(0)
        l_run = 1
        for l in entries:
            # time_factor(l) = (6l+1)(l-1)/3
            ln_t += ln(6 * l + 1) + ln(l - 1) - ln_three
            l_run *= l
            ln_l = ln(l_run)
            eta_val = eta._mp_ratio_value(1, l_run)
            v = float(mpmath.exp(ln_t + mpmath.log(eta_val) - 2 * ln_l))
            knot_ratios.append(v)
            for j in range(1, s1):
                # T_n Psi(u/L_n) = (1 + A(u-1))(1 + B(u-1)) at u = 1 + j(l-1)/s1,
                # A = (3l-4)/(l-1), B = (6l-8)/(9(l-1)): the product of these
                # two linear factors over 9 s1^2
                ln_psi = (ln(s1 + j * (3 * l - 4)) + ln(9 * s1 + j * (6 * l - 8))
                          - ln_psi_den - ln_t)
                r_num, r_den = _sample_point(l, j, s1, l_run)
                eta_r = eta._mp_ratio_value(r_num, r_den)
                sample_ratios.append(float(mpmath.exp(2 * (ln(r_num) - ln(r_den))
                                                      + mpmath.log(eta_r) - ln_psi)))

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


def _sample_point(l: int, j: int, s1: int, big_l: int) -> tuple[int, int]:
    """The sample point r = u/L_n, u = 1 + j(l-1)/s1, as an unreduced pair."""
    return s1 + j * (l - 1), s1 * big_l


def _knot_identity_exact(entries) -> bool:
    """T_n / L_n^2 = 2^n prod (1 - 5/(6 l_k) - 1/(6 l_k^2)) for every n,
    exactly.  Both sides are products of nonzero per-level factors, so by
    induction this holds iff each level has
    time_factor(l) = 2 l^2 (1 - 5/(6l) - 1/(6l^2)) = (6l+1)(l-1)/3."""
    return all(3 * time_factor(l) == (6 * l + 1) * (l - 1) for l in entries)


# ---- Slowly decaying profiles -------------------------------------------


#: Bound on n_max^2 + n_max/(p-2), about -log2 of slow_decay_eta's deepest
#: knot: n_max <= 512 at large p, 465 at p = 2.01.  The knots' Fraction work
#: (and the summability screen's interpolation over them) grows faster than
#: the cube of n_max; at the bound, slowdecay takes 1.0-1.2 s on 2 vCPUs
#: (--power 1e308 --n-max 512, --power 2.01 --n-max 465), 4.6 s at n_max 800.
_SLOW_DECAY_MAX_BITS = 1 << 18


def slow_decay_eta(power: float, n_max: int = 6) -> tuple[EtaFunction, dict]:
    """Build a summable piecewise eta dominating psi0(r)/r^2 up to scale,
    for psi0 = r^p with 2 < p < inf.

    eta0(r) = psi0(r)/r^2 = r^(p-2) is increasing with eta0(1) = 1, so the
    largest s with eta0(s) <= 2^{-n} is s_n = 2^{-n/(p-2)} in closed form:
    with e = n/(p-2) as a double and f = e - floor(e), s_n is the Fraction
    2^{-f} 2^{-floor(e)}, which never underflows and is an exact power of
    1/2 when e is an integer.  The knots r_n = 2^{-n^2} s_n, at height
    2^{-n}, define a piecewise linear eta whose summability terms
    r_n/r_{n-1} are bounded by 2^{1-2n}, so the partial sums never exceed
    2/3.

    Dominance, eta(r) >= eta0(r)/2 with 1e-9 relative slack, is checked
    per piece [r_n, r_{n-1}], n = 1..n_max, in log2: eta is nondecreasing
    and eta0 increasing, so eta >= eta(r_n) = 2^{-n} and
    eta0 <= eta0(r_{n-1}) on the piece, and 2^{-n} >= eta0(r_{n-1})/2 proves
    it on the whole piece.  The pieces cover [r_{n_max}, 1].

    The floats s_values, knots and terms read 0.0 below double range
    (s_11 = 2^-1100 at p = 2.01); s_exact and knots_exact give each dyadic
    value m 2^e as [m, e], and terms_exact each term r_n / r_{n-1}, a ratio
    of dyadics, as its reduced [numerator, denominator].
    """
    if n_max < 1:
        raise DomainError("need at least one knot level")
    if not 2 < power < math.inf:
        raise DomainError(f"psi0 = r^p needs 2 < p < inf for r^(p-2) to decay, "
                          f"got p = {power}")
    # n_max first: a huge int would not convert to a float
    if n_max > _SLOW_DECAY_MAX_BITS or n_max * (n_max + 1 / (power - 2)) > _SLOW_DECAY_MAX_BITS:
        raise DomainError(f"the deepest knot at n_max = {n_max}, p = {power} lies below "
                          f"2^-{_SLOW_DECAY_MAX_BITS}, past the knot budget")
    s_list, r_list = [], []
    for n in range(n_max + 1):
        e = n / (power - 2)
        whole = math.floor(e)
        s = Fraction(2.0 ** (whole - e)) / 2 ** whole
        s_list.append(s)
        r_list.append(s / 2 ** (n * n))
    knots = [(r, Fraction(1, 2 ** n)) for n, r in enumerate(r_list)][::-1]
    eta = EtaFunction.piecewise(knots, label="slow-decay")

    terms = [r / r_prev for r_prev, r in zip(r_list, r_list[1:])]
    partial = []
    acc = Fraction(0)
    for t in terms:
        acc += t
        partial.append(float(acc))
    bound_ok = all(t <= Fraction(1, 2 ** (2 * n - 1)) for n, t in enumerate(terms, 1))

    slack = math.log2(1 - 1e-9)
    dominated = all(
        -n >= (power - 2) * (math.log2(r.numerator) - math.log2(r.denominator)) - 1 + slack
        for n, r in enumerate(r_list[:-1], 1))
    # s_n = m 2^e, the Fraction of a double over a power of 2, and
    # (r_n, 2^-n) = (m 2^(e - n^2), 2^-n)
    s_exact = [(s.numerator, 1 - s.denominator.bit_length()) for s in s_list]
    report = {"n_max": n_max, "s_values": [float(s) for s in s_list],
              "s_exact": s_exact,
              "knots": [(float(r), float(y)) for r, y in knots],
              "knots_exact": [((m, e - n * n), (1, -n)) for n, (m, e) in enumerate(s_exact)][::-1],
              "terms": [float(t) for t in terms],
              "terms_exact": [(t.numerator, t.denominator) for t in terms],
              "partial_sums": partial,
              "terms_below_geometric": bound_ok,
              "partial_sum_bound": 2.0 / 3.0,
              "partial_sums_ok": partial[-1] <= 2.0 / 3.0 + 1e-12,
              "dominates": dominated,
              "passed": bound_ok and partial[-1] <= 2.0 / 3.0 + 1e-12 and dominated}
    return eta, report
