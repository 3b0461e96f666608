import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import DomainError
from thin_gasket.geometry import build_graph
from thin_gasket.scales import (beta_bundle, build_scale, comparison_checks,
                                doubling_check, knot_continuity_check,
                                mass_exponent, product_identity_check,
                                quadratic_envelope_check, resistance_exponent,
                                same_segment_check, scale_triple)
from thin_gasket.sequence import LevelSequence, walk_exponent


def test_time_scale_golden_values(ls5):
    psi = build_scale(ls5, "time")
    assert psi.eval(Fraction(1, 5)) == Fraction(3, 124)
    assert psi.eval(1) == 1
    assert psi.eval(Fraction(1, 25)) == Fraction(9, 15376)


def test_mass_and_resistance_goldens(ls5):
    m = build_scale(ls5, "mass")
    r = build_scale(ls5, "resistance")
    assert m.eval(Fraction(1, 5)) == Fraction(1, 12)
    assert r.eval(Fraction(1, 5)) == Fraction(9, 31)


@given(st.fractions(min_value=Fraction(1, 3000), max_value=1,
                    max_denominator=10 ** 6))
def test_time_splits_into_mass_times_resistance(s):
    ls = LevelSequence((5, 7, 6), continuation="repeat-last")
    psi, psi_m, psi_r = scale_triple(ls)
    assert psi.eval(s) == psi_m.eval(s) * psi_r.eval(s)


def test_scales_reject_nonpositive(ls5):
    psi = build_scale(ls5, "time")
    with pytest.raises(DomainError):
        psi.eval(0)
    with pytest.raises(DomainError):
        psi.eval(Fraction(-1, 5))


@pytest.mark.parametrize("kind", ["time", "mass", "resistance"])
def test_knot_continuity(ls576, kind):
    rep = knot_continuity_check(build_scale(ls576, kind), 6)
    assert rep["passed"]
    assert rep["mismatches"] == []


def test_monotone_decreasing_into_zero(ls576):
    psi = build_scale(ls576, "time")
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
    time_rep = doubling_check(build_scale(ls, "time"), n_segments=5)
    assert time_rep["passed"] and time_rep["c"] == 81
    res_rep = doubling_check(build_scale(ls, "resistance"), n_segments=5)
    assert res_rep["passed"] and res_rep["c"] == 6


def test_same_segment_sandwich(ls5):
    rep = same_segment_check(build_scale(ls5, "time"), 5)
    assert rep["passed"]
    with pytest.raises(DomainError):
        same_segment_check(build_scale(ls5, "mass"), 3)


def test_quadratic_envelope(ls576):
    rep = quadratic_envelope_check(build_scale(ls576, "time"), 5)
    assert rep["passed"]
    assert rep["knot_ratios_nonincreasing"]


def test_inverse_round_trip(ls576):
    for psi in scale_triple(ls576):
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
        scale = build_scale(_INVERSE_SEQUENCES[name], kind)
        assert scale.eval(scale.inverse(t)) == t
        assert scale.inverse(scale.eval(s)) == s


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@given(t=_OPEN_UNIT, s=_OPEN_UNIT)
def test_time_inverse_within_2_to_the_minus_64(name, t, s):
    """Exact at every value of a rational s; elsewhere at most 2^-64 s*
    above the root s*, which eval brackets."""
    psi = build_scale(_INVERSE_SEQUENCES[name], "time")
    assert psi.inverse(psi.eval(s)) == s
    back = psi.inverse(t)
    assert psi.eval(back / (1 + Fraction(1, 2 ** 64))) <= t <= psi.eval(back)


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@given(ts=st.lists(_OPEN_UNIT, min_size=2, max_size=6))
def test_inverse_is_monotone(name, ts):
    ts = sorted(ts)
    for kind in ("time", "mass", "resistance"):
        scale = build_scale(_INVERSE_SEQUENCES[name], kind)
        backs = [scale.inverse(t) for t in ts]
        assert backs == sorted(backs)


@pytest.mark.parametrize("name", list(_INVERSE_SEQUENCES))
@pytest.mark.parametrize("kind", ["time", "mass", "resistance"])
def test_knots_round_trip(name, kind):
    scale = build_scale(_INVERSE_SEQUENCES[name], kind)
    for n in range(8):
        s, value = scale.knot(n)
        assert scale.inverse(value) == s
        assert scale.eval(s) == value


def test_scale_refusals_keep_their_texts(ls576):
    psi = build_scale(ls576, "time")
    with pytest.raises(DomainError, match="^scale limited to 200 segments$"):
        psi.inverse(Fraction(1, 10 ** 400))
    with pytest.raises(DomainError, match="^scale limited to 200 segments$"):
        psi.eval(Fraction(1, 10 ** 400))
    finite = build_scale(LevelSequence((5, 7, 6)), "mass")
    with pytest.raises(DomainError, match="^s = 1/1000 lies below the resolution of the "
                       "stored sequence$"):
        finite.eval(Fraction(1, 1000))


def test_exponents_and_bundle(ls5):
    assert walk_exponent(5) == pytest.approx(math.log(124 / 3) / math.log(5))
    assert mass_exponent(5) == pytest.approx(math.log(12) / math.log(5))
    assert resistance_exponent(5) == pytest.approx(
        math.log(31 / 9) / math.log(5))
    bundle = beta_bundle(ls5)
    lo, hi = bundle.for_kind("time")
    assert lo == pytest.approx(hi)
    assert lo == pytest.approx(walk_exponent(5))


def test_bundle_orders_mixed_sequence():
    ls = LevelSequence((9, 58), continuation="repeat-last", diverging=True)
    bundle = beta_bundle(ls)
    for kind in ("time", "mass", "resistance"):
        lo, hi = bundle.for_kind(kind)
        assert lo <= hi


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
