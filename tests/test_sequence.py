import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import SequenceError
from thin_gasket.sequence import (LevelSequence, cell_count, check_level,
                                  resistance_ratio, time_factor, walk_exponent)

levels = st.integers(min_value=5, max_value=60)


def test_check_level_accepts_admissible():
    assert check_level(5) == 5
    assert check_level(10 ** 6) == 10 ** 6


@pytest.mark.parametrize("bad", [4, 0, -3, 5.0, "5"])
def test_check_level_rejects(bad):
    with pytest.raises(SequenceError):
        check_level(bad)


def test_level_5_constants():
    assert cell_count(5) == 12
    assert resistance_ratio(5) == Fraction(9, 31)
    assert time_factor(5) == Fraction(124, 3)


@given(levels)
def test_per_level_identities(l):
    # m = 3l - 3 cells, r = 9/(6l+1), t = m/r
    assert cell_count(l) == 3 * l - 3
    assert resistance_ratio(l) == Fraction(9, 6 * l + 1)
    assert time_factor(l) == Fraction(cell_count(l)) / resistance_ratio(l)
    assert time_factor(l) == 2 * l * l - Fraction(5, 3) * l - Fraction(1, 3)


@given(levels)
def test_walk_exponent_matches_log_ratio(l):
    t = time_factor(l)
    expected = math.log(t.numerator / t.denominator) / math.log(l)
    assert walk_exponent(l) == pytest.approx(expected, rel=1e-12)
    assert walk_exponent(l) > 2.0


def test_products_for_mixed_prefix():
    ls = LevelSequence((5, 7, 6))
    assert ls.prefix(3) == (5, 7, 6)
    assert ls.L(3) == 5 * 7 * 6
    assert ls.M(3) == 12 * 18 * 15
    assert ls.R(3) == Fraction(9, 31) * Fraction(9, 43) * Fraction(9, 37)
    assert ls.T(3) == ls.M(3) / ls.R(3)
    assert ls.L(0) == 1 and ls.M(0) == 1 and ls.R(0) == 1 and ls.T(0) == 1


def test_repeat_last_continuation():
    ls = LevelSequence((5, 7), continuation="repeat-last")
    assert ls.level(1) == 5
    assert ls.level(2) == 7
    assert ls.level(9) == 7
    assert ls.prefix(50)[-1] == 7
    assert ls.L(4) == 5 * 7 * 7 * 7


def test_finite_prefix_raises_past_end():
    ls = LevelSequence((5, 7))
    assert ls.prefix(2) == (5, 7)
    with pytest.raises(SequenceError):
        ls.prefix(3)
    with pytest.raises(SequenceError):
        ls.level(3)


def test_entries_validated():
    with pytest.raises(SequenceError):
        LevelSequence((5, 4))
    with pytest.raises(SequenceError):
        LevelSequence((), continuation="repeat-last")
    with pytest.raises(SequenceError):
        LevelSequence((5,), continuation="every-other")


def test_diverging_flag_carried():
    ls = LevelSequence((9, 58), continuation="repeat-last", diverging=True)
    assert ls.diverging
    assert ls.entries == (9, 58)


@given(st.lists(levels, min_size=1, max_size=6))
def test_products_multiply_level_by_level(entries):
    ls = LevelSequence(tuple(entries))
    n = len(entries)
    L = M = 1
    R = T = Fraction(1)
    for k in range(1, n + 1):
        l = ls.level(k)
        L *= l
        M *= cell_count(l)
        R *= resistance_ratio(l)
        T *= time_factor(l)
        assert ls.L(k) == L and ls.M(k) == M
        assert ls.R(k) == R and ls.T(k) == T
    # the time exponent stays strictly above quadratic scaling
    assert ls.T(n) > ls.L(n) ** 2


# levels 1..8 of each sequence; None past a finite prefix
_WRITTEN_LEVELS = {
    ((5,), "repeat-last"): (5, 5, 5, 5, 5, 5, 5, 5),
    ((5, 7, 6), "repeat-last"): (5, 7, 6, 6, 6, 6, 6, 6),
    ((6, 5, 9), None): (6, 5, 9, None, None, None, None, None),
}


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("key", list(_WRITTEN_LEVELS), ids=["5", "576-repeat", "659-none"])
def test_prefix_products_in_either_order(key, order):
    """L, M, R and T at n = -1..8 equal the products of the written-out
    levels, whether the first call fills the list to its largest n or each
    call extends a list filled to a lower n."""
    ls = LevelSequence(*key)
    levels = _WRITTEN_LEVELS[key]
    ns = list(range(-1, 9))
    for n in (ns if order == "ascending" else ns[::-1]):
        if n >= 1 and levels[n - 1] is None:
            with pytest.raises(SequenceError, match="level 4 past the stored prefix"):
                ls.L(n)
            for product in (ls.M, ls.R, ls.T):
                with pytest.raises(SequenceError, match="level 4 past the stored prefix"):
                    product(n)
            continue
        L = M = 1
        R = T = Fraction(1)
        for l in levels[:max(n, 0)]:
            L *= l
            M *= 3 * l - 3
            R *= Fraction(9, 6 * l + 1)
            T *= Fraction((3 * l - 3) * (6 * l + 1), 9)
        assert (ls.L(n), ls.M(n), ls.R(n), ls.T(n)) == (L, M, R, T)
