import json
import math
from fractions import Fraction
from pathlib import Path

import random

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from thin_gasket import realization
from thin_gasket.errors import DomainError, RealizationError
from thin_gasket.realization import (EtaFunction, comparability_report,
                                     realize_sequence, result_horizon,
                                     slow_decay_eta, summability_report)
from thin_gasket.sequence import time_factor

GOLDEN_LEVELS = (9, 58, 3001, 8888829, 78962962144297)
GOLDEN = Path(__file__).parent / "golden"


def test_elementary_eta_values():
    eta = EtaFunction.elementary()
    assert eta(1.0) == pytest.approx(1.0, rel=1e-15)
    r = 0.01
    assert eta(r) == pytest.approx(1 / math.log(math.e - 1 + 1 / r), rel=1e-14)
    y = eta(0.37)
    with realization._iv_prec(120):
        assert float((1 / eta.iv_inverse_recip(Fraction(y))).mid) == \
            pytest.approx(0.37, rel=1e-12)


def test_log_profile_inverse_below_double_range():
    # eta^-1 of the first two lies below the smallest positive double
    for eta, y in ((EtaFunction.iterated(2), 0.05), (EtaFunction.elementary(), 0.001)):
        assert 0 < 1 / eta.iv_inverse_recip(Fraction(y)) < 1e-320
    assert 0 < 1 / EtaFunction.elementary().iv_inverse_recip(Fraction(0.01)) < 1e-40


@pytest.mark.parametrize("r", [1e-300, 1e-12, 0.01, 0.37, 0.999])
def test_eta_call_is_the_mp_value(r):
    """eta(r) is the 120-bit value of every kind rounded to a double: the
    closed form for the log profiles, the exact interpolant for piecewise
    knots."""
    eta1, eta2 = EtaFunction.elementary(), EtaFunction.iterated(2)
    with mpmath.workprec(200):
        v1 = 1 / mpmath.log(mpmath.e - 1 + 1 / mpmath.mpf(r))
        v2 = 1 / mpmath.log(mpmath.e - 1 + 1 / v1)
    assert eta1(r) == pytest.approx(float(v1), rel=1e-15)
    assert eta2(r) == pytest.approx(float(v2), rel=1e-15)
    r1, y1 = Fraction(1, 10 ** 300), Fraction(1, 7)
    pw = EtaFunction.piecewise([(r1, y1), (1, 1)])
    line = y1 + (1 - y1) * (Fraction(r) - r1) / (1 - r1)
    assert pw(r) == pytest.approx(float(line), rel=1e-15)
    assert eta1(1.0) == eta1(2.0) == pw(1.0) == 1.0
    for eta in (eta1, eta2, pw):
        for bad in (0.0, math.nan):
            with pytest.raises(DomainError, match="eta is defined for r > 0"):
                eta(bad)


def test_realized_sequence_golden_prefix():
    res = realize_sequence(EtaFunction.elementary(), 5)
    assert res.certified
    assert res.n0 == 1
    assert res.entries == GOLDEN_LEVELS
    assert all(rec.bracket_ok for rec in res.records)
    assert [rec.n for rec in res.records] == [1, 2, 3, 4, 5]
    assert res.sequence.diverging


def test_realized_levels_grow_doubly_exponentially():
    res = realize_sequence(EtaFunction.elementary(), 9)
    logs = [math.log(l) for l in res.entries]
    for a, b in zip(logs, logs[1:]):
        assert b > 1.8 * a


def test_realization_certifies_at_scale():
    res = realize_sequence(EtaFunction.elementary(), 12)
    assert res.certified
    assert res.entries[:2] == (9, 58)
    assert result_horizon(res) >= 12
    # the largest level far exceeds float range; log must still work
    assert math.log(res.entries[-1]) > 4000


def test_comparability_report():
    eta = EtaFunction.elementary()
    res = realize_sequence(eta, 8)
    rep = comparability_report(eta, res)
    assert rep["passed"]
    lo, hi = rep["budget"]
    assert lo < rep["ratio_min"] <= rep["ratio_max"] < hi
    ratios = rep["knot_ratios"]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("kwargs,level", [
    ({"n_levels": 22}, 22),
    ({"n_levels": 200}, 22),
    ({"n_levels": 100_000}, 22),
    ({"n_levels": 100_000, "min_ratio": 7}, 21),  # n0 = 2
    ({"n_levels": 100_000, "n0": 3}, 20),
], ids=["n22", "n200", "n100000", "min-ratio-7", "n0-3"])
def test_level_past_the_cap_is_refused_in_the_window(kwargs, level):
    # a full window scan would take exp(2^n) for every n up to N + n0 + 8
    with pytest.raises(RealizationError, match=f"level {level} has more than"):
        realize_sequence(EtaFunction.elementary(), **kwargs)


def test_window_ratios_bound_the_levels():
    """The ratio at n0 + k bounds l_k below, and the log profiles' ratios
    increase with n (module docstring, "Offsets and the cap")."""
    eta = EtaFunction.elementary()
    res = realize_sequence(eta, 9)
    with realization._iv_prec(192):
        for k, l_k in enumerate(res.entries, 1):
            assert l_k >= int(mpmath.floor(realization._iv_ratio_at(eta, res.n0 + k).a))
        for profile, n_max in ((eta, 24), (EtaFunction.iterated(2), 12),
                               (EtaFunction.iterated(3), 3)):
            ratios = [realization._iv_ratio_at(profile, n) for n in range(1, n_max + 1)]
            assert all(a.b < b.a for a, b in zip(ratios, ratios[1:]))


def test_offset_below_one_rejected():
    # 2^-n0 would not be a level scale; Fraction(1, 2 ** n0) fails for n0 < 0
    for n0 in (0, -2):
        with pytest.raises(DomainError, match="n0 must be >= 1"):
            realize_sequence(EtaFunction.elementary(), 3, n0=n0)


# ---- Closed forms of the comparability report ----------------------------


def _psi_factor(l: int, j: int, s1: int) -> tuple[int, int]:
    """T_n Psi(u/L_n) = (1 + A(u-1))(1 + B(u-1)) at u = 1 + j(l-1)/s1, with
    A = (3l-4)/(l-1) and B = (6l-8)/(9(l-1)), as an unreduced pair."""
    return (s1 + j * (3 * l - 4)) * (9 * s1 + j * (6 * l - 8)), 9 * s1 * s1


@pytest.mark.parametrize("l", [*range(5, 41), *GOLDEN_LEVELS[:4]])
def test_psi_factor_and_sample_point_closed_forms(l):
    s1 = 4
    a = Fraction(3 * l - 4, l - 1)
    b = Fraction(6 * l - 8, 9 * (l - 1))
    for big_l in (l, 58 * l):
        for j in range(1, s1):
            u = 1 + Fraction(j * (l - 1), s1)
            assert Fraction(*_psi_factor(l, j, s1)) == \
                (1 + a * (u - 1)) * (1 + b * (u - 1))
            assert Fraction(*realization._sample_point(l, j, s1, big_l)) == u / big_l


def _ratios_by_products(eta, entries) -> tuple[list, list]:
    """Knot and sample ratios Psi / (r^2 eta(r)) of comparability_report,
    with ln T_n summed from time_factor Fractions and ln Psi taken of the
    level-size product _psi_factor, at the report's 320 bits."""
    def ln_ratio(num, den):
        return mpmath.log(mpmath.mpf(num)) - mpmath.log(mpmath.mpf(den))

    knots, samples = [], []
    s1 = 4
    with mpmath.workprec(320):
        ln_t = mpmath.mpf(0)
        l_run = 1
        for l in entries:
            tf = time_factor(l)
            ln_t += ln_ratio(tf.numerator, tf.denominator)
            l_run *= l
            ln_l = mpmath.log(mpmath.mpf(l_run))
            eta_val = eta._mp_ratio_value(1, l_run)
            knots.append(float(mpmath.exp(ln_t + mpmath.log(eta_val) - 2 * ln_l)))
            for j in range(1, s1):
                ln_psi = ln_ratio(*_psi_factor(l, j, s1)) - ln_t
                r_num, r_den = realization._sample_point(l, j, s1, l_run)
                eta_r = eta._mp_ratio_value(r_num, r_den)
                samples.append(float(mpmath.exp(2 * ln_ratio(r_num, r_den)
                                                + mpmath.log(eta_r) - ln_psi)))
    return knots, samples


@pytest.mark.parametrize("profile", ["slow-decay", "eta1"])
def test_log_domain_report_matches_integer_products(profile):
    """Per-level factor logs give the report the same floats as the logs of
    the level-size products."""
    if profile == "slow-decay":
        eta, _ = slow_decay_eta(2.5, n_max=12)
        res = realize_sequence(eta, 3)
    else:
        eta = EtaFunction.elementary()
        res = realize_sequence(eta, 9)
    rep = comparability_report(eta, res)
    knots, samples = _ratios_by_products(eta, res.entries)
    assert rep["knot_ratios"] == knots
    assert rep["ratio_min"] == min(knots + samples)
    assert rep["ratio_max"] == max(knots + samples)


def _knot_identity_cumulative(entries, tf) -> bool:
    """T_n / L_n^2 = 2^n prod (1 - 5/(6 l_k) - 1/(6 l_k^2)), checked on the
    running products."""
    t_acc = Fraction(1)
    l_acc = 1
    p_acc = Fraction(1)
    for k, l in enumerate(entries, start=1):
        t_acc *= tf(l)
        l_acc *= l
        p_acc *= 1 - Fraction(5, 6 * l) - Fraction(1, 6 * l * l)
        if t_acc != 2 ** k * l_acc * l_acc * p_acc:
            return False
    return True


def test_per_level_knot_identity_matches_cumulative():
    entries = realize_sequence(EtaFunction.elementary(), 10).entries
    assert _knot_identity_cumulative(entries, time_factor)
    # a wrong time factor at any one level fails it
    for bad in entries:
        def tf(l, bad=bad):
            return time_factor(l) + (Fraction(1, 3) if l == bad else 0)
        assert not _knot_identity_cumulative(entries, tf)


# ---- Precision ladder ----------------------------------------------------


def test_skipped_rungs_cannot_decide_the_floor():
    eta = EtaFunction.elementary()
    start = 192
    res = realize_sequence(eta, 14)
    golden = json.loads((GOLDEN / "realize-eta1-n13.json").read_text())
    assert [r.prec for r in res.records[:13]] == [r["prec"] for r in golden["records"]]
    for n in range(10, 15):
        big_l = math.prod(res.entries[:n - 1])
        l_n = res.entries[n - 1]
        with realization._iv_prec(start):
            x, s, _ = realization._level_enclosures(eta, res.n0, n, big_l)
            probe = x / s
        prec = start
        while prec < realization._first_useful_rung(eta, probe, start):
            with realization._iv_prec(prec):
                x, s, _ = realization._level_enclosures(eta, res.n0, n, big_l)
            lo, decided = realization._level_floor(x, s)
            assert not decided
            # l_n lies between the floors of X.a / S.b and X.b / S.a
            assert lo <= l_n
            assert l_n * _exact(s.a) <= _exact(x.b)
            prec *= 2
        # every level skips at least one rung, and certifies past them
        assert start < prec <= res.records[n - 1].prec


def _exact(v) -> Fraction:
    """The exact value of a point interval end, an mpf (sign, man, exp, bc)."""
    sign, man, exp, _ = v._mpi_[0]
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _floor_endpoints(v) -> tuple[int, int]:
    """Floors of both ends of an interval, by integer shifts."""
    floors = []
    for sign, man, exp, _ in v._mpi_:
        man = -man if sign else man
        floors.append(man << exp if exp >= 0 else man >> -exp)
    return floors[0], floors[1]


#: LevelRecord.prec of realize_sequence(eta1, 17), as the interval-quotient
#: floors and iv.exp enclosures gave them.
ETA1_PRECS_17 = [192] * 7 + [192 << k for k in range(1, 11)]


def test_one_division_floor_agrees_with_interval_quotient(monkeypatch):
    """At every rung the eta1 ladder evaluates over 17 levels, the floor
    decision equals the one read off both ends of the interval quotient
    X / S at the rung's precision."""
    rungs = []
    level_floor = realization._level_floor

    def checked(x, s):
        f, decided = level_floor(x, s)
        lo, hi = _floor_endpoints(x / s)
        rungs.append(iv.prec)
        assert lo <= f <= hi
        assert decided == (lo == hi)
        return f, decided

    monkeypatch.setattr(realization, "_level_floor", checked)
    res = realize_sequence(EtaFunction.elementary(), 17)
    assert [r.prec for r in res.records] == ETA1_PRECS_17
    assert len(rungs) >= 17 and max(rungs) == 196608


def _level_floor_by_builtin(recip_x, scaled) -> tuple[int, bool]:
    """_level_floor with the builtin floor division."""
    (_, xa_man, xa_exp, _), (_, xb_man, xb_exp, _) = recip_x._mpi_
    (_, sa_man, sa_exp, _), (_, sb_man, sb_exp, _) = scaled._mpi_
    shift = xa_exp - sb_exp
    if shift >= 0:
        f = (xa_man << shift) // sb_man
    else:
        f = xa_man // (sb_man << -shift)
    bound = (f + 1) * sa_man
    shift = xb_exp - sa_exp
    if shift >= 0:
        return f, xb_man << shift < bound
    return f, xb_man < bound << -shift


def test_level_floor_matches_builtin_division(monkeypatch):
    """On every enclosure the eta1 ladder builds over 17 levels, the
    recursive division gives the builtin's floor and decision."""
    sizes = []
    level_floor = realization._level_floor

    def checked(x, s):
        got = level_floor(x, s)
        assert got == _level_floor_by_builtin(x, s)
        sizes.append(got[0].bit_length())
        return got

    monkeypatch.setattr(realization, "_level_floor", checked)
    res = realize_sequence(EtaFunction.elementary(), 17)
    assert [r.prec for r in res.records] == ETA1_PRECS_17
    # the top levels take the recursion, not the builtin
    assert max(sizes) > 16 * realization._DIV_LIMIT


# ---- Recursive division --------------------------------------------------


def _bits(top: int):
    """Bit lengths up to top, with extra weight around the division cutoff
    and near the top."""
    limit = realization._DIV_LIMIT
    return st.one_of(st.integers(1, top), st.integers(limit - 64, limit + 64),
                     st.integers(top // 2, top))


@given(_bits(1 << 17), _bits(1 << 17), st.integers(0, 2 ** 32 - 1))
def test_floor_div_equals_builtin(b_bits, q_bits, seed):
    rng = random.Random(seed)
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    a = rng.getrandbits(b_bits + q_bits)
    assert realization._floor_div(a, b) == a // b


@pytest.mark.parametrize("b_bits,q_bits", [
    (4001, 4001), (4001, 50_000), (9001, 9000), (12_345, 40_000),
    ((1 << 17) + 1, (1 << 17) - 3), (1 << 17, 1 << 17)])
def test_floor_div_edge_cases(monkeypatch, b_bits, q_bits):
    """Exact multiples and their neighbours, b = 1 and powers of two, a < b,
    and odd bit lengths, which pad the divisor inside the recursion."""
    calls = []
    div2n1n = realization._div2n1n

    def counted(a, b, n):
        calls.append(n)
        return div2n1n(a, b, n)

    monkeypatch.setattr(realization, "_div2n1n", counted)
    rng = random.Random(b_bits ^ q_bits)
    b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
    q = rng.getrandbits(q_bits) | 1 << (q_bits - 1)
    for a in (q * b, q * b - 1, q * b + 1, q * b + b - 1, b - 1, 0):
        assert realization._floor_div(a, b) == a // b
    # the recursion starts on the whole divisor, padded when b_bits is odd
    assert b_bits in calls
    for k in (0, 1, 4000, 4001, b_bits):
        for a in (q << k, (q << k) - 1, q):
            assert realization._floor_div(a, 1 << k) == a >> k
    assert realization._floor_div(q * b, 1) == q * b


@pytest.mark.parametrize("prec", [192, 384, 1536, 6144])
def test_exp_chain_matches_iv_exp(prec):
    """The squaring-chain enclosure of exp(2^m) contains exp(2^m) at four
    times the precision and has iv.exp's endpoints; no case differs by an
    ulp."""
    differing = []
    with realization._iv_prec(prec):
        for m in range(21):
            chain = realization._iv_exp_pow2(m)
            with mpmath.workprec(4 * prec):
                ref = mpmath.exp(mpmath.mpf(2) ** m)
                assert mpmath.mpf(chain._mpi_[0]) <= ref <= mpmath.mpf(chain._mpi_[1])
            if chain._mpi_ != iv.exp(iv.mpf(2 ** m))._mpi_:
                differing.append(m)
    assert differing == []


def test_eta_doubling():
    # eta1(R)/eta1(r) <= 4 (R/r) at 40 geometric points r in [1e-10, 1]
    eta = EtaFunction.elementary()
    for i in range(40):
        r = 1e-10 ** (1 - i / 39)
        for rho in (2.0, 16.0, 256.0):
            big_r = min(1.0, r * rho)
            assert eta(big_r) / eta(r) <= 4.0 * (big_r / r) * (1 + 1e-9)


def test_summability_of_elementary():
    rep = summability_report(EtaFunction.elementary())
    assert rep["summable"]
    # the floats of the 160-bit inverse ratios; terms converted to mpf at 53
    # bits would move the fifth partial sum in its last bit
    assert rep["terms"][:4] == [0.1763427624349498, 0.10723881248193373,
                                0.017749450677685494, 0.00033526932558680184]
    assert rep["partial_sums"][4] == 0.30166640745530876


@pytest.mark.parametrize("n_terms", [0, -2])
def test_summability_needs_a_term(n_terms):
    with pytest.raises(DomainError, match="at least one summability term"):
        summability_report(EtaFunction.elementary(), n_terms)


def test_non_summable_eta_rejected():
    # the identity profile stalls: every summability term equals 1/2
    ident = EtaFunction.piecewise(
        [(Fraction(1, 2 ** k), Fraction(1, 2 ** k)) for k in range(16, -1, -1)],
        label="identity")
    rep = summability_report(ident, n_terms=6)
    assert not rep["summable"]
    assert rep["terms"][-1] == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(RealizationError):
        realize_sequence(ident, 4)


@pytest.mark.parametrize("kind", ["custom", "bogus"])
def test_unknown_eta_kind_rejected(kind):
    with pytest.raises(DomainError, match="unknown eta kind"):
        EtaFunction(kind)


@pytest.mark.parametrize("k", [0, -1])
def test_iterate_count_below_one_rejected(k):
    # k = 0 once paired the identity inverse with the k = 1 profile
    with pytest.raises(DomainError, match="iterate count"):
        EtaFunction("iterated", k=k)
    with pytest.raises(DomainError, match="iterate count"):
        EtaFunction.iterated(k)


def test_elementary_is_the_first_iterate():
    eta = EtaFunction.elementary()
    assert (eta.kind, eta.k, eta.label) == ("iterated", 1, "log-profile")
    y = Fraction(1, 8)
    assert eta(float((1 / eta.iv_inverse_recip(y)).mid)) == pytest.approx(0.125, rel=1e-12)


def test_slow_decay_profile():
    eta, rep = slow_decay_eta(2.5, n_max=6)
    assert rep["passed"]
    assert rep["dominates"] and rep["terms_below_geometric"]
    for n, s in enumerate(rep["s_values"]):
        assert s == pytest.approx(4.0 ** (-n), rel=1e-6)
    assert eta(0.125) == pytest.approx(0.5, rel=1e-9)
    for n, t in enumerate(rep["terms"], 1):
        assert t <= 2.0 ** (1 - 2 * n) * (1 + 1e-12)
    assert rep["partial_sums"][-1] <= 2 / 3 + 1e-12
    summ = summability_report(eta, n_terms=6)
    assert summ["summable"]


def test_slow_decay_rejects_empty():
    with pytest.raises(DomainError):
        slow_decay_eta(2, n_max=0)


@pytest.mark.parametrize("p", [2.5, 3, 3.7, 4, 6])
def test_slow_decay_knots_in_closed_form(p):
    """s_n = 2^(-n/(p-2)): eta0(s_n) = s_n^(p-2) is 2^-n within a few ulps."""
    _, rep = slow_decay_eta(p, n_max=12)
    assert rep["passed"]
    for n, s in enumerate(rep["s_values"]):
        assert math.ldexp(s ** (p - 2), n) == pytest.approx(1, rel=4 * 2.0 ** -52, abs=0)


@pytest.mark.parametrize("p,base", [(2.5, 4), (3, 2)])
def test_slow_decay_knots_are_exact_powers_of_a_half(p, base):
    eta, rep = slow_decay_eta(p, n_max=12)
    assert rep["s_values"] == [base ** -n for n in range(13)]
    assert [r for r, _ in eta.knots] == [Fraction(1, 2 ** (n * n) * base ** n)
                                         for n in range(12, -1, -1)]


def test_slow_decay_near_two_keeps_every_knot():
    """At p = 2.01, s_12 = 2^-1200 and r_12 near 2^-1344 lie past double range."""
    eta, rep = slow_decay_eta(2.01, n_max=12)
    rs = [r for r, _ in eta.knots]
    assert rs[0] > 0 and all(a < b for a, b in zip(rs, rs[1:]))
    assert rep["passed"] and rep["dominates"]


@pytest.mark.parametrize("p", [2.5, 3.7])
def test_slow_decay_dominates_inside_each_piece(p):
    """The per-piece check against eta(r) >= r^(p-2)/2 at ten points inside
    each piece [r_n, r_{n-1}], geometrically spaced."""
    eta, rep = slow_decay_eta(p, n_max=6)
    assert rep["dominates"]
    for (lo, _), (hi, _) in zip(eta.knots, eta.knots[1:]):
        for j in range(10):
            r = float(lo) * (float(hi) / float(lo)) ** (j / 9)
            assert eta(r) >= r ** (p - 2) / 2 * (1 - 1e-9)


@pytest.mark.parametrize("p", [2, 1.5, -3.0, math.nan, math.inf])
def test_slow_decay_refuses_powers_without_decay(p):
    with pytest.raises(DomainError, match="to decay"):
        slow_decay_eta(p, n_max=3)


@pytest.mark.parametrize("p,n_max", [(1e308, 513), (2.01, 466), (2 + 2 ** -51, 1),
                                     (3.0, 10 ** 400)])
def test_slow_decay_refuses_knots_past_the_budget(p, n_max):
    """Refused before any knot is built: n_max^2 + n_max/(p-2) > 2^18."""
    with pytest.raises(DomainError, match="knot budget"):
        slow_decay_eta(p, n_max=n_max)
