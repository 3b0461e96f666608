import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import DomainError
from thin_gasket.geometry import build_graph
from thin_gasket.scales import (KINDS, PiecewiseScale, comparison_checks,
                                doubling_check, knot_continuity_check,
                                mass_exponent, product_identity_check,
                                quadratic_envelope_check, resistance_exponent,
                                same_segment_check)
from thin_gasket.sequence import LevelSequence, walk_exponent


def test_time_scale_golden_values(ls5):
    psi = PiecewiseScale(ls5, "time")
    assert psi.eval(Fraction(1, 5)) == Fraction(3, 124)
    assert psi.eval(1) == 1
    assert psi.eval(Fraction(1, 25)) == Fraction(9, 15376)


def test_mass_and_resistance_goldens(ls5):
    m = PiecewiseScale(ls5, "mass")
    r = PiecewiseScale(ls5, "resistance")
    assert m.eval(Fraction(1, 5)) == Fraction(1, 12)
    assert r.eval(Fraction(1, 5)) == Fraction(9, 31)


@given(st.fractions(min_value=Fraction(1, 3000), max_value=1,
                    max_denominator=10 ** 6))
def test_time_splits_into_mass_times_resistance(s):
    ls = LevelSequence((5, 7, 6), continuation="repeat-last")
    psi, psi_m, psi_r = (PiecewiseScale(ls, kind) for kind in KINDS)
    assert psi.eval(s) == psi_m.eval(s) * psi_r.eval(s)


def test_scales_reject_nonpositive(ls5):
    psi = PiecewiseScale(ls5, "time")
    with pytest.raises(DomainError):
        psi.eval(0)
    with pytest.raises(DomainError):
        psi.eval(Fraction(-1, 5))


@pytest.mark.parametrize("kind", KINDS)
def test_knot_continuity(ls576, kind):
    rep = knot_continuity_check(PiecewiseScale(ls576, kind), 6)
    assert rep["passed"]
    assert rep["mismatches"] == []


def test_monotone_decreasing_into_zero(ls576):
    psi = PiecewiseScale(ls576, "time")
    samples = [Fraction(1, q) for q in (2, 5, 17, 35, 210, 900, 4000)]
    vals = [psi.eval(s) for s in samples]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_product_identity(ls576):
    rep = product_identity_check(ls576, n_segments=5)
    assert rep["passed"]
    assert rep["exact_on_segments"]
    assert rep["tail_rel_err"] < 1e-12


@pytest.mark.parametrize("seq", [(5,), (5, 7, 6, 12)])
def test_doubling_constants(seq):
    ls = LevelSequence(seq, continuation="repeat-last")
    time_rep = doubling_check(PiecewiseScale(ls, "time"), n_segments=5)
    assert time_rep["passed"] and time_rep["c"] == 81
    res_rep = doubling_check(PiecewiseScale(ls, "resistance"), n_segments=5)
    assert res_rep["passed"] and res_rep["c"] == 6


def test_same_segment_sandwich(ls5):
    rep = same_segment_check(PiecewiseScale(ls5, "time"), 5)
    assert rep["passed"]
    with pytest.raises(DomainError):
        same_segment_check(PiecewiseScale(ls5, "mass"), 3)


def test_quadratic_envelope(ls576):
    rep = quadratic_envelope_check(PiecewiseScale(ls576, "time"), 5)
    assert rep["passed"]
    assert rep["knot_ratios_nonincreasing"]


def test_inverse_round_trip(ls576):
    for kind in KINDS:
        psi = PiecewiseScale(ls576, kind)
        for s in (Fraction(1, 7), Fraction(3, 100), Fraction(1, 999)):
            assert psi.inverse(psi.eval(s)) == s


_INVERSE_SEQUENCES = {
    "576-repeat": LevelSequence((5, 7, 6), continuation="repeat-last"),
    "9-58-diverging": LevelSequence((9, 58), continuation="repeat-last", diverging=True),
}
_OPEN_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 9).filter(
    lambda q: 0 < q < 1)


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@given(t=_OPEN_UNIT, s=_OPEN_UNIT)
def test_inverse_is_exact_for_mass_and_resistance(name, t, s):
    for kind in ("mass", "resistance"):
        scale = PiecewiseScale(_INVERSE_SEQUENCES[name], kind)
        assert scale.eval(scale.inverse(t)) == t
        assert scale.inverse(scale.eval(s)) == s


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@given(t=_OPEN_UNIT, s=_OPEN_UNIT)
def test_time_inverse_within_2_to_the_minus_64(name, t, s):
    """Exact at every value of a rational s; elsewhere at most 2^-64 s*
    above the root s*, which eval brackets."""
    psi = PiecewiseScale(_INVERSE_SEQUENCES[name], "time")
    assert psi.inverse(psi.eval(s)) == s
    back = psi.inverse(t)
    assert psi.eval(back / (1 + Fraction(1, 2 ** 64))) <= t <= psi.eval(back)


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@given(ts=st.lists(_OPEN_UNIT, min_size=2, max_size=6))
def test_inverse_is_monotone(name, ts):
    ts = sorted(ts)
    for kind in KINDS:
        scale = PiecewiseScale(_INVERSE_SEQUENCES[name], kind)
        backs = [scale.inverse(t) for t in ts]
        assert backs == sorted(backs)


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@pytest.mark.parametrize("kind", KINDS)
def test_knots_round_trip(name, kind):
    scale = PiecewiseScale(_INVERSE_SEQUENCES[name], kind)
    for n in range(8):
        s, value = scale.knot(n)
        assert scale.inverse(value) == s
        assert scale.eval(s) == value


def test_scale_refusals_keep_their_texts(ls576):
    psi = PiecewiseScale(ls576, "time")
    with pytest.raises(DomainError, match="^scale limited to 200 segments$"):
        psi.inverse(Fraction(1, 10 ** 400))
    with pytest.raises(DomainError, match="^scale limited to 200 segments$"):
        psi.eval(Fraction(1, 10 ** 400))
    finite = PiecewiseScale(LevelSequence((5, 7, 6)), "mass")
    with pytest.raises(DomainError, match="^s = 1/1000 lies below the resolution of the "
                       "stored sequence$"):
        finite.eval(Fraction(1, 1000))
    with pytest.raises(DomainError, match="^t = 1/100000000 lies below the resolution of "
                       "the stored sequence$"):
        finite.inverse(Fraction(1, 10 ** 8))


def test_exponents_and_betas(ls5):
    assert walk_exponent(5) == pytest.approx(math.log(124 / 3) / math.log(5))
    assert mass_exponent(5) == pytest.approx(math.log(12) / math.log(5))
    assert resistance_exponent(5) == pytest.approx(
        math.log(31 / 9) / math.log(5))
    lo, hi = PiecewiseScale(ls5, "time").betas
    assert lo == pytest.approx(hi)
    assert lo == pytest.approx(walk_exponent(5))


def test_betas_order_mixed_sequence():
    ls = LevelSequence((9, 58), continuation="repeat-last", diverging=True)
    for kind in KINDS:
        lo, hi = PiecewiseScale(ls, kind).betas
        assert lo <= hi


@pytest.mark.parametrize("kind, exponent, limit", [
    ("time", walk_exponent, 2.0), ("mass", mass_exponent, 1.0),
    ("resistance", resistance_exponent, 1.0)])
def test_betas_widen_to_the_limit_on_a_diverging_sequence(kind, exponent, limit):
    exps = [exponent(l) for l in (9, 58)]
    finite = PiecewiseScale(LevelSequence((9, 58)), kind)
    assert finite.betas == (min(exps), max(exps))
    diverging = PiecewiseScale(LevelSequence((9, 58), diverging=True), kind)
    assert diverging.betas == (min(exps + [limit]), max(exps + [limit]))
    # the power past s = 1 is the bound nearer the limit
    assert diverging.tail_beta == (diverging.betas[1] if kind == "resistance"
                                   else diverging.betas[0])


def test_comparison_checks_pass(ls5):
    ls = LevelSequence((5, 6), continuation="repeat-last")
    g = build_graph(ls, 2)
    rep = comparison_checks(g, n_pairs=80, seed=11)
    assert rep.passed
    assert rep.n_pairs == 80
    names = {s.name for s in rep.stats}
    assert "resistance-mass-time" in names
    assert "shrink-lower" in names and "shrink-upper" in names
    for s in rep.stats:
        assert s.ok
        assert s.lower <= s.min_ratio <= s.max_ratio <= s.upper
