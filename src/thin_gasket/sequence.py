"""Subdivision level sequences and their derived product scales.

A gasket approximation is parameterized by a sequence (l_1, l_2, ...) of
subdivision levels, each at least 5.  Only a finite prefix is stored; queries
past the prefix repeat its last level under the "repeat-last" continuation
rule and are rejected otherwise.

Derived per-level quantities:

    cell_count(l)        = 3l - 3        boundary cells of one subdivision
    resistance_ratio(l)  = 9/(6l + 1)    energy contraction of one subdivision
    time_factor(l)       = cell_count(l)/resistance_ratio(l)
                         = 2l^2 - (5/3)l - 1/3

and their products along the sequence: L_n (length scale), M_n (cell count),
R_n (resistance scale), T_n = M_n/R_n (time scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SequenceError

MIN_LEVEL = 5

REPEAT_LAST = "repeat-last"
_CONTINUATIONS = (None, REPEAT_LAST)


def check_level(l: int) -> int:
    if not isinstance(l, int) or isinstance(l, bool) or l < MIN_LEVEL:
        raise SequenceError(f"subdivision level must be an integer >= {MIN_LEVEL}, got {l!r}")
    return l


def cell_count(l: int) -> int:
    """Number of boundary cells kept by one l-fold subdivision."""
    return 3 * check_level(l) - 3


def resistance_ratio(l: int) -> Fraction:
    """Exact energy contraction ratio r_l = 9/(6l+1) of one subdivision."""
    return Fraction(9, 6 * check_level(l) + 1)


def time_factor(l: int) -> Fraction:
    """cell_count(l)/resistance_ratio(l) = 2l^2 - (5/3)l - 1/3, exact."""
    return Fraction(cell_count(l), 1) / resistance_ratio(l)


def walk_exponent(l: int) -> float:
    """log base l of time_factor(l); lies in (2, 2 + log_5 2) and decreases to 2."""
    t = time_factor(check_level(l))
    # big-int safe: math.log takes arbitrary-precision integers directly
    return (math.log(t.numerator) - math.log(t.denominator)) / math.log(l)


@dataclass(frozen=True)
class LevelSequence:
    """A stored prefix of subdivision levels plus a continuation rule.

    entries: the prefix (l_1, ..., l_N), every entry >= 5.
    continuation: None (reject queries past the prefix) or "repeat-last"
        (every level past the prefix is l_N).
    diverging: marks sequences designed with l_n -> infinity (realization
        output); scale builders use it to pick limiting tail exponents.
    """

    entries: tuple[int, ...]
    continuation: str | None = None
    diverging: bool = False

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(l) for l in self.entries))
        for l in self.entries:
            check_level(l)
        if self.continuation not in _CONTINUATIONS:
            raise SequenceError(f"unknown continuation rule {self.continuation!r}")
        if self.continuation == REPEAT_LAST and not self.entries:
            raise SequenceError("repeat-last continuation needs a nonempty prefix")
        # (L_n, M_n, R_n, T_n) for n = 0, 1, ...: computed once per n, on demand
        object.__setattr__(self, "_products", [(1, 1, Fraction(1), Fraction(1))])

    # -- single levels ------------------------------------------------------

    def level(self, n: int) -> int:
        """The n-th subdivision level, 1-based."""
        if n < 1:
            raise SequenceError(f"level index must be >= 1, got {n}")
        if n <= len(self.entries):
            return self.entries[n - 1]
        if self.continuation == REPEAT_LAST:
            return self.entries[-1]
        raise SequenceError(
            f"level {n} past the stored prefix of length {len(self.entries)}; "
            "set a continuation rule to extend"
        )

    def prefix(self, n: int) -> tuple[int, ...]:
        return tuple(self.level(k) for k in range(1, n + 1))

    # -- product scales -----------------------------------------------------

    def _prefix(self, n: int) -> tuple[int, int, Fraction, Fraction]:
        """(L_n, M_n, R_n, T_n); an empty product for n <= 0.  Past a finite
        prefix, the SequenceError names the first missing level."""
        products = self._products
        while len(products) <= n:
            l = self.level(len(products))
            L, M, R, T = products[-1]
            products.append((L * l, M * cell_count(l), R * resistance_ratio(l),
                             T * time_factor(l)))
        return products[max(n, 0)]

    def L(self, n: int) -> int:
        """Length denominator L_n = l_1 * ... * l_n (L_0 = 1)."""
        return self._prefix(n)[0]

    def M(self, n: int) -> int:
        """Cell count M_n = prod (3 l_k - 3) (M_0 = 1)."""
        return self._prefix(n)[1]

    def R(self, n: int) -> Fraction:
        """Resistance scale R_n = prod r_{l_k} (R_0 = 1)."""
        return self._prefix(n)[2]

    def T(self, n: int) -> Fraction:
        """Time scale T_n = M_n / R_n = prod (2 l_k^2 - (5/3) l_k - 1/3)."""
        return self._prefix(n)[3]
