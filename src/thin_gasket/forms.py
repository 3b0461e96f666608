"""Discrete Dirichlet energies, harmonic extension, subdivision harmonics.

The base form on corner triples is E0(u) = sum over unordered corner pairs
of (u_j - u_k)^2.  The depth-n form is (1/R_n) times the sum of E0 over all
cell corner triples.  Harmonic extension pins the outer corner values
(u(q0), u(q1), u(q2)) and minimizes the depth-n form.  One route computes
it: the cell cascade, per-cell products of the one-subdivision harmonic
matrices, whose depth-n corner values give the energy, the energy measure
and, scattered onto the graph's cells, the values on V_n.  Those matrices
come from closed forms over 6l + 1.  Their oracles (elimination on the
depth-1 graph, a pinned solve on the depth-n graph, the exact trace) live in
linalg, which this module imports only inside extension_ratio_check.

One cascade serves both precisions: HarmonicSpec keeps (num, den) per
depth, values num / den, and cell_numerators is its one step, one einsum
of the level's matrix stack with the depth above.  The level-l matrices are
integer numerators over 6l + 1 (_numerator_stack), so a rational num holds
Python ints over the lcm of the pin's denominators (over_common_denominator)
times the product of 6 l_k + 1 over k <= d; Fractions are built only where
a caller receives them (cell_values, extend, energy).  A float num is the
float64 values and den is 1.  HarmonicSpec also owns the float energy
masses (float_masses) that the measure and both statistics of one h share.
The float energies refuse a pin whose E0 leaves double range.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError
from .geometry import ApproximationGraph, boundary_cells, build_graph, is_cell_index
from .rand import stream
from .sequence import LevelSequence, check_level, resistance_ratio

#: Quadratic-form matrix of E0 in the corner basis.
TRIANGLE_FORM = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

#: Corner slots (3 M_d) the cell cascade may hold at one depth: 2^27 float64
#: values are 1 GiB, before the einsum's temporaries.
_CASCADE_SLOTS = 1 << 27

#: Random pins extension_ratio_check adds to the three corner-basis pins.
_RATIO_RANDOM_PINS = 100


def base_energy(u):
    """E0 of a corner triple; exact for Fraction inputs."""
    u0, u1, u2 = u
    return (u0 - u1) ** 2 + (u0 - u2) ** 2 + (u1 - u2) ** 2


def over_common_denominator(values):
    """Ints and Fractions (any re-iterable collection) as (numerators, den):
    Python ints over the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def cell_energies(values: np.ndarray) -> np.ndarray:
    """E0 applied row-wise to an (M, 3) array of corner values."""
    d01 = values[:, 0] - values[:, 1]
    d02 = values[:, 0] - values[:, 2]
    d12 = values[:, 1] - values[:, 2]
    return d01 * d01 + d02 * d02 + d12 * d12


# ---- One-subdivision harmonic matrices -----------------------------------
#
# Every one-subdivision matrix has integer numerators over q = 6l + 1.  A cell
# index (i1, i2) has barycentric index t = (l-1-i1-i2, i1, i2), and its corner
# j sits at t + e_j.  A relabelling p of the outer corners maps cell t to the
# cell with index t' (t'[p[j]] = t[j]) and entry [j][m] to [p[j]][p[m]], so
# two patterns cover all 3l - 3 cells: cells on the bottom edge (i2 = 0) with
# largest part in {2, ..., l-3}, and the three cells next to corner 0.

_CORNER_RELABELLINGS = tuple(itertools.permutations(range(3)))


def _edge_numerators(l: int, k: int) -> tuple:
    """Numerators over 6l+1 of bottom-edge cell (k, 0), 2 <= k <= l-3."""
    q = 6 * l + 1
    return ((q - 6 * k - 3, 6 * k - 2, 5),
            (q - 6 * k - 9, 6 * k + 4, 5),
            (q - 6 * k - 6, 6 * k + 1, 5))


def _near_corner_numerators(l: int, i) -> tuple:
    """Numerators over 6l+1 of the cells (0, 0), (1, 0), (0, 1) at corner 0;
    column 0 carries 6l, the rest is a fixed intercept."""
    q = 6 * l + 1
    c = 6 * l
    return {
        (0, 0): ((q, 0, 0), (c - 8, 5, 4), (c - 8, 4, 5)),
        (1, 0): ((c - 8, 5, 4), (c - 14, 10, 5), (c - 11, 6, 6)),
        (0, 1): ((c - 8, 4, 5), (c - 11, 6, 6), (c - 14, 5, 10)),
    }[i]


def _cell_numerators(l: int, i) -> tuple:
    """Closed-form numerators over 6l+1 of the matrix of cell i."""
    i1, i2 = i
    t = (l - 1 - i1 - i2, i1, i2)
    for p in _CORNER_RELABELLINGS:
        s = tuple(t[p[j]] for j in range(3))  # preimage of t under p
        if s[0] >= l - 2:
            base = _near_corner_numerators(l, (s[1], s[2]))
        elif s[2] == 0 and 2 <= s[1] <= l - 3:
            base = _edge_numerators(l, s[1])
        else:
            continue
        out = [[0] * 3 for _ in range(3)]
        for j in range(3):
            for m in range(3):
                out[p[j]][p[m]] = base[j][m]
        return tuple(tuple(row) for row in out)
    raise DomainError(f"{i} is not a cell index of level {l}")


@lru_cache(maxsize=None)
def _depth_one_graph(l: int) -> ApproximationGraph:
    return build_graph(LevelSequence((l,)), 1)


@dataclass(frozen=True)
class HarmonicMatrix:
    """Matrix of u -> (harmonic extension of u) restricted to one cell.

    entries[j][m] is the coefficient of u(q_m) in the extension value at
    f_i(q_j); rows therefore sum to 1 and entries are nonnegative.
    """

    l: int
    index: tuple[int, int]
    entries: tuple


@lru_cache(maxsize=None)
def _numerator_stack(l: int) -> np.ndarray:
    """Int64 (m, 3, 3) numerators over 6l+1 of the level-l matrices, in
    boundary_cells(l) order, from the closed forms; O(l)."""
    check_level(l)
    stack = np.array([_cell_numerators(l, i) for i in boundary_cells(l)], dtype=np.int64)
    stack.flags.writeable = False  # shared by every caller through the cache
    return stack


@lru_cache(maxsize=None)
def matrix_stack_exact(l: int):
    """All one-subdivision matrices of level l as Fraction tuples, in
    boundary_cells(l) order."""
    q = 6 * l + 1
    return tuple(tuple(tuple(Fraction(x, q) for x in row) for row in mat.tolist())
                 for mat in _numerator_stack(l))


@lru_cache(maxsize=None)
def matrix_stack(l: int) -> np.ndarray:
    """Float (m, 3, 3) stack of the level-l one-subdivision matrices; each
    entry is the correctly rounded quotient, as float(Fraction) gives it."""
    return _numerator_stack(l) / (6 * l + 1)


def harmonic_matrix(l: int, i) -> HarmonicMatrix:
    """The exact one-subdivision matrix for cell index i of level l, from
    its closed form in O(1)."""
    check_level(l)
    i = tuple(i)
    if len(i) != 2 or not is_cell_index(l, i):
        raise DomainError(f"{i} is not a cell index of level {l}")
    q = 6 * l + 1
    return HarmonicMatrix(l, i, tuple(tuple(Fraction(x, q) for x in row)
                                      for row in _cell_numerators(l, i)))


# ---- Harmonic extension --------------------------------------------------


class HarmonicSpec:
    """A corner pin (u(q0), u(q1), u(q2)) together with lazily materialized
    harmonic values.

    pin: the three corner values, as Fractions in rational precision and
    as floats otherwise.
    """

    def __init__(self, ls: LevelSequence, pin: tuple, precision: str):
        self.ls = ls
        self.pin = pin
        self.precision = precision
        self._materialized: dict[int, tuple[ApproximationGraph, object]] = {}
        # read-only float64 energy masses by depth
        self._masses: dict[int, np.ndarray] = {}
        # the cell cascade by depth, (num, den) with values num / den, each
        # num read-only; the depth-0 cell lists its corners as (q0, q1, q2)
        if precision == "rational":
            row, den = over_common_denominator(pin)
            num = np.array([row], dtype=object)
        else:
            num, den = np.array([pin], dtype=np.float64), 1
        num.flags.writeable = False
        self._cascade = {0: (num, den)}

    # -- matrix-cascade route

    def cell_numerators(self, d: int):
        """Depth-d corner values as (num, den), shape (M_d, 3), with values
        num / den and num read-only.  Rational: num an object array of Python
        ints, den the lcm of the pin denominators times the product of
        6 l_k + 1 over k <= d.  Float: num the float64 values, den 1.  Refuses
        with BudgetError, before any product, a depth past 2^27 corner slots."""
        if d not in self._cascade:
            if d < 0:
                raise DomainError(f"depth must be nonnegative, got {d}")
            slots = 3 * self.ls.M(d)
            if slots > _CASCADE_SLOTS:
                raise BudgetError(f"the cell cascade to depth {d} needs {slots} corner slots "
                                  f"(> budget {_CASCADE_SLOTS}; "
                                  f"{slots * 8 / 2**30:.1f} GiB as float64)")
            num, den = self.cell_numerators(d - 1)
            l = self.ls.level(d)
            stack, q = ((_numerator_stack(l).astype(object), 6 * l + 1)
                        if self.precision == "rational" else (matrix_stack(l), 1))
            cells = np.einsum("mij,wj->wmi", stack, num).reshape(-1, 3)
            cells.flags.writeable = False  # cell_values hands the float array out itself
            self._cascade[d] = (cells, den * q)
        return self._cascade[d]

    def _values(self, num: np.ndarray, den: int) -> np.ndarray:
        """num / den: num itself in float precision, Fractions in rational."""
        if self.precision != "rational":
            return num
        return np.array([Fraction(x, den) for x in num.ravel()],
                        dtype=object).reshape(num.shape)

    def cell_values(self, d: int):
        """Corner values of every depth-d cell, shape (M_d, 3): the cascade's
        read-only float64 array itself, or Fractions built from
        cell_numerators in rational precision.  The budget of cell_numerators
        applies."""
        return self._values(*self.cell_numerators(d))

    # -- vertex values

    def extend(self, n: int):
        """Materialize values on V_n by scattering the depth-n cell cascade
        onto the graph's cell corners; cells that share a vertex give it one
        value.  Rational values are Fractions of the integer numerators over
        their common denominator, float values float64.  The graph is built
        first, so its MAX_CORNERS budget refuses before any product.
        Returns (graph, values); cached per depth."""
        if n in self._materialized:
            return self._materialized[n]
        g = build_graph(self.ls, n)
        num, den = self.cell_numerators(n)
        vertex_num = np.empty(g.n_vertices, dtype=num.dtype)
        vertex_num[g.cells] = num
        values = self._values(vertex_num, den)
        values.flags.writeable = False  # every later call returns this array
        self._materialized[n] = (g, values)
        return self._materialized[n]

    # -- energies

    def _check_double_range(self) -> None:
        """Refuse a pin whose E0 is not finite, or nonzero below the smallest
        normal double: float energies would read inf, or 0.0 and pass vacuously."""
        u0, u1, u2 = self.pin
        diffs = (u0 - u1, u0 - u2, u1 - u2)
        e0 = sum(d * d for d in diffs)  # not **: a float power raises on overflow
        if not e0 <= sys.float_info.max or (any(diffs) and e0 < sys.float_info.min):
            raise DomainError("the pin's energy E0 leaves double range, so float energies "
                              "would read inf or 0; --precision rational computes them exactly")

    def energy(self, n: int):
        """Depth-n energy of the extension, from the cell cascade (equals
        the pin energy for any n >= 0).  Float precision refuses a pin whose
        E0 leaves double range (_check_double_range)."""
        if self.precision != "rational":
            self._check_double_range()
        num, den = self.cell_numerators(n)
        total = cell_energies(num).sum()
        r = self.ls.R(n)
        if self.precision == "rational":
            return Fraction(total * r.denominator, den * den * r.numerator)
        # a float64 sum over the Fraction R_n divides as floats
        return total / r

    def float_masses(self, d: int) -> np.ndarray:
        """Read-only float64 energy masses E0 / R_d of the depth-d cells, once
        per depth; in rational precision the exact masses, correctly rounded.
        Refuses a pin whose E0 leaves double range (_check_double_range)."""
        if d not in self._masses:
            self._check_double_range()
            num, den = self.cell_numerators(d)
            r = self.ls.R(d)
            energies = cell_energies(num)
            if self.precision == "rational":
                scale = den * den * r.numerator
                # int / int true division rounds correctly, as float(Fraction)
                masses = np.array([e * r.denominator / scale for e in energies], dtype=np.float64)
            else:
                masses = energies / float(r)
            masses.flags.writeable = False
            self._masses[d] = masses
        return self._masses[d]


def check_precision(precision: str) -> None:
    """Refuse any precision but "rational" and "float"."""
    if precision not in ("rational", "float"):
        raise DomainError(f"unknown precision {precision!r}; use 'rational' or 'float'")


def harmonic_extend(ls: LevelSequence, pin, depth: int, method: str = "cells",
                    precision: str = "float") -> HarmonicSpec:
    """Harmonic extension of the corner pin (u(q0), u(q1), u(q2)),
    materialized to depth `depth` by the cell cascade (cell_numerators).

    The pin may be any sequence of three values (tuple, list or array).
    method names the route; "cells", the cascade, is the only one.
    """
    check_precision(precision)
    if method != "cells":
        raise DomainError(f"unknown extension method {method!r}; use 'cells'")
    if depth < 0:
        raise DomainError(f"target depth must be nonnegative, got {depth}")
    if len(pin) != 3:
        raise DomainError(f"pin has {len(pin)} values; a corner pin has 3")
    convert = Fraction if precision == "rational" else float
    h = HarmonicSpec(ls, tuple(convert(v) for v in pin), precision)
    h.cell_numerators(depth)
    return h


# ---- One-subdivision ratio check ----------------------------------------


def extension_ratio_check(l: int, seed: int = 7, precision: str = "rational") -> dict:
    """Verify that minimal one-subdivision extension energy is r_l * E0.

    Rational mode checks the 3x3 trace matrix against r_l times the triangle
    form exactly; equality gives quad(v) == r_l * E0(v) for every pin v.
    Float mode solves for the corner basis plus _RATIO_RANDOM_PINS random
    pins and reports the maximum relative error of the energy ratio.  Both
    run linalg's oracles, imported here so that forms loads no solver.
    """
    from . import linalg
    check_precision(precision)
    r = resistance_ratio(l)
    report = {"l": l, "expected": r, "precision": precision}
    if precision == "rational":
        trace_equal = np.array_equal(linalg.one_subdivision_trace(l),
                                     [[r * x for x in row] for row in TRIANGLE_FORM])
        report.update(trace_equal=bool(trace_equal), passed=bool(trace_equal))
    else:
        rng = stream(seed, l)
        pins = [np.eye(3)[j] for j in range(3)]
        pins += [rng.uniform(-1.0, 1.0, size=3) for _ in range(_RATIO_RANDOM_PINS)]
        g = _depth_one_graph(l)
        lap = linalg.laplacian(g.adjacency)
        pin_matrix = np.stack(pins, axis=1)
        vals, _ = linalg.pinned_solve(lap, g.boundary, pin_matrix)
        worst = 0.0
        rf = float(r)
        for j in range(pin_matrix.shape[1]):
            u = vals[:, j]
            e0 = base_energy(pin_matrix[:, j])
            if e0 == 0:
                continue
            e1 = float(cell_energies(u[g.cells]).sum())
            worst = max(worst, abs(e1 / e0 - rf) / rf)
        report.update(n_pins=len(pins), max_rel_err=worst, passed=bool(worst < 1e-10))
    return report
