"""Discrete Dirichlet energies, harmonic extension, subdivision harmonics.

The base form on corner triples is E0(u) = sum over unordered corner pairs
of (u_j - u_k)^2.  The depth-n form is (1/R_n) times the sum of E0 over all
cell corner triples.  Harmonic extension pins the outer corner values
(u(q0), u(q1), u(q2)) and minimizes the depth-n form.  One route computes
it: the cell cascade, per-cell products of the one-subdivision harmonic
matrices, whose depth-n corner values give the energy, the energy measure
and, scattered onto the graph's cells, the values on V_n.  Those matrices
come from closed forms over 6l + 1.  Pinned Laplacian solves are kept only
as oracles: elimination on the depth-1 graph for the matrices, and a solve
on the depth-n graph (HarmonicSpec.cell_values_from_graph) for the cascade.

Exact routes run on integers.  The level-l matrices are integer numerators
over 6l + 1 (_numerator_stack), so the depth-d cell values of a rational pin
are Python-int numerators over one common denominator: the lcm of the pin's
denominators times the product of 6 l_k + 1 over k <= d.  The rational
cascade multiplies those numerators level by level; Fractions are built
only where a caller receives them (cell_values, extend, energy).  The
float cascade runs the same products on the float64 stack.  The
one-subdivision trace is an exact Schur complement of linalg, taken with
the depth-1 vertices in reverse Cuthill-McKee order; folded level by level,
it is the oracle of the closed-form corner resistance.  It has no float
route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.sparse import csgraph

from . import linalg
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

#: Largest denominator of the rational extension_ratio_check snaps a pin
#: coordinate to.
_SNAP_DENOMINATOR = 10 ** 12


def base_energy(u):
    """E0 of a corner triple; exact for Fraction inputs."""
    u0, u1, u2 = u
    return (u0 - u1) ** 2 + (u0 - u2) ** 2 + (u1 - u2) ** 2


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


@lru_cache(maxsize=None)
def _basis_extension_exact(l: int):
    """Exact vertex values of the three corner-basis harmonic extensions
    at depth 1, as a V x 3 nested list of Fractions, by elimination."""
    g = _depth_one_graph(l)
    lap = linalg.dense_rational_laplacian(g.adjacency)
    pins = [int(v) for v in g.boundary]
    pin_values = [[Fraction(1), Fraction(0), Fraction(0)],
                  [Fraction(0), Fraction(1), Fraction(0)],
                  [Fraction(0), Fraction(0), Fraction(1)]]
    return linalg.rational_pinned_solve(lap, pins, pin_values)


def matrix_stack_by_elimination(l: int):
    """The level-l matrices read off a rational pinned solve on the depth-1
    graph, in boundary_cells(l) order.  O(l^3); an oracle for the closed
    forms of matrix_stack_exact, not a production route."""
    g = _depth_one_graph(l)
    values = _basis_extension_exact(l)
    return tuple(tuple(tuple(values[int(v)]) for v in cell) for cell in g.cells)


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
        self._cell_values: dict[int, np.ndarray] = {}
        # the depth-0 cell lists its corners as (q0, q1, q2)
        if precision == "rational":
            row, den = linalg.over_common_denominator(pin)
            self._numerators = {0: (np.array([row], dtype=object), den)}
        else:
            self._cell_values[0] = np.array([pin], dtype=np.float64)

    # -- matrix-cascade route

    def _check_cascade_depth(self, d: int) -> None:
        """Refuse a negative depth, and a depth past 2^27 corner slots before
        any product."""
        if d < 0:
            raise DomainError(f"depth must be nonnegative, got {d}")
        slots = 3 * self.ls.M(d)
        if slots > _CASCADE_SLOTS:
            raise BudgetError(f"the cell cascade to depth {d} needs {slots} corner slots (> "
                              f"budget {_CASCADE_SLOTS}; {slots * 8 / 2**30:.1f} GiB as float64)")

    def cell_numerators(self, d: int):
        """Exact depth-d corner values as (num, den) with values num / den:
        num an (M_d, 3) object array of Python ints, den the lcm of the pin
        denominators times the product of 6 l_k + 1 over k <= d.  Rational
        precision only; the budget of cell_values applies."""
        if self.precision != "rational":
            raise DomainError("cell numerators exist in rational precision only")
        if d not in self._numerators:
            self._check_cascade_depth(d)
            num, den = self.cell_numerators(d - 1)
            l = self.ls.level(d)
            stack = _numerator_stack(l).astype(object)
            self._numerators[d] = (np.einsum("mij,wj->wmi", stack, num).reshape(-1, 3),
                                   den * (6 * l + 1))
        return self._numerators[d]

    def cell_values(self, d: int):
        """Corner values of every depth-d cell via matrix products, shape
        (M_d, 3); an object array of Fractions in rational mode, built from
        cell_numerators.  Refuses with BudgetError, before any product, a
        depth past 2^27 corner slots."""
        if d in self._cell_values:
            return self._cell_values[d]
        if self.precision == "rational":
            num, den = self.cell_numerators(d)
            out = np.array([Fraction(x, den) for x in num.ravel()],
                           dtype=object).reshape(num.shape)
        else:
            self._check_cascade_depth(d)
            prev = self.cell_values(d - 1)
            out = np.einsum("mij,wj->wmi", matrix_stack(self.ls.level(d)), prev).reshape(-1, 3)
        self._cell_values[d] = out
        return out

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
        if self.precision == "rational":
            num, den = self.cell_numerators(n)
            vertex_num = np.empty(g.n_vertices, dtype=object)
            vertex_num[g.cells] = num
            values = np.array([Fraction(x, den) for x in vertex_num], dtype=object)
        else:
            values = np.empty(g.n_vertices)
            values[g.cells] = self.cell_values(n)
        self._materialized[n] = (g, values)
        return g, values

    def cell_values_from_graph(self, d: int):
        """Corner values of depth-d cells read off a pinned Laplacian solve
        on the depth-d graph: dense fraction-free elimination in rational
        precision (refused past linalg.RATIONAL_SIZE_LIMIT vertices), a
        sparse LU in float.  The cascade's independent oracle, for tests and
        acceptance; no production route calls it."""
        g = build_graph(self.ls, d)
        if self.precision == "rational":
            lap = linalg.dense_rational_laplacian(g.adjacency)
            full = linalg.rational_pinned_solve(lap, [int(p) for p in g.boundary],
                                                [[v] for v in self.pin])
            values = np.array(full, dtype=object)[:, 0]
        else:
            values, _ = linalg.pinned_solve(linalg.laplacian(g.adjacency), g.boundary,
                                            np.array(self.pin))
        return values[g.cells]

    # -- energies

    def energy(self, n: int):
        """Depth-n energy of the extension, from the cell cascade (equals
        the pin energy for any n >= 0)."""
        if self.precision == "rational":
            num, den = self.cell_numerators(n)
            r = self.ls.R(n)
            return Fraction(cell_energies(num).sum() * r.denominator,
                            den * den * r.numerator)
        # a float64 sum over the Fraction R_n divides as floats
        return cell_energies(self.cell_values(n)).sum() / self.ls.R(n)


def check_precision(precision: str) -> None:
    """Refuse any precision but "rational" and "float"."""
    if precision not in ("rational", "float"):
        raise DomainError(f"unknown precision {precision!r}; use 'rational' or 'float'")


def harmonic_extend(ls: LevelSequence, pin, depth: int, method: str = "cells",
                    precision: str = "float") -> HarmonicSpec:
    """Harmonic extension of the corner pin (u(q0), u(q1), u(q2)),
    materialized to depth `depth` by the cell cascade: cell numerators in
    rational precision, cell values in float.

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
    if precision == "rational":
        h.cell_numerators(depth)
    else:
        h.cell_values(depth)
    return h


# ---- One-subdivision ratio check ----------------------------------------


def one_subdivision_trace(l: int, trace=TRIANGLE_FORM):
    """Exact trace (Schur complement), as an object array, onto the three
    outer corners (q0, q1, q2) of the level-l one-subdivision network whose
    every cell carries the 3x3 form `trace` (unit conductances by default).

    The vertices are eliminated in reverse Cuthill-McKee order: the ring of
    cells then stays a narrow band, where lexicographic order fills in."""
    g = _depth_one_graph(l)
    perm = csgraph.reverse_cuthill_mckee(g.adjacency)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size, dtype=perm.dtype)
    t = np.asarray(trace, dtype=object)
    lap = np.zeros((g.n_vertices, g.n_vertices), dtype=object)
    for cell in pos[g.cells]:
        lap[np.ix_(cell, cell)] += t
    return linalg.schur_complement(lap, [int(pos[v]) for v in g.boundary])


def _snap(x: float) -> tuple[int, int]:
    """(p, q) with q > 0: the rational p/q closest to the float x among
    denominators q <= _SNAP_DENOMINATOR, in lowest terms.  The same pair as
    Fraction(x).limit_denominator(_SNAP_DENOMINATOR), ties included, found on
    integers: the continued fraction of x's exact ratio runs until the next
    convergent's denominator would pass the bound, and the last convergent
    then meets the largest admissible semiconvergent, winning a tie."""
    n, d = float(x).as_integer_ratio()
    if d <= _SNAP_DENOMINATOR:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > _SNAP_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (_SNAP_DENOMINATOR - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p/q - n/d|, multiplied through by d q q1 > 0
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return p1, q1
    return p, q


def extension_ratio_check(l: int, seed: int = 7, precision: str = "rational") -> dict:
    """Verify that minimal one-subdivision extension energy is r_l * E0.

    Checks the 3x3 trace matrix against r_l times the triangle form and the
    energy ratio for the corner basis plus _RATIO_RANDOM_PINS random pins.
    Exact in rational mode, where each pin coordinate is snapped to the
    nearest rational of denominator at most _SNAP_DENOMINATOR (_snap, the
    integer pair Fraction.limit_denominator would give) and the ratio is
    compared by cross-multiplied integers over the pin's common
    denominator; float mode reports the maximum relative error.
    """
    check_precision(precision)
    r = resistance_ratio(l)
    rng = stream(seed, l)
    pins = [np.eye(3)[j] for j in range(3)]
    pins += [rng.uniform(-1.0, 1.0, size=3) for _ in range(_RATIO_RANDOM_PINS)]

    report = {"l": l, "expected": r, "n_pins": len(pins), "precision": precision}
    if precision == "rational":
        s = one_subdivision_trace(l)
        target = [[r * x for x in row] for row in TRIANGLE_FORM]
        trace_equal = np.array_equal(s, target)
        # s = sn / sden and u = v / uden: quad(u) / E0(u) == r iff
        # quad(v) * r.den == E0(v) * r.num * sden, in integers
        sn, sden = linalg.over_common_denominator(s.ravel())
        ratios_equal = True
        for p in pins:
            snapped = [_snap(x) for x in p]
            den = math.lcm(*(q for _, q in snapped))
            v = [a * (den // q) for a, q in snapped]
            e0 = base_energy(v)
            if e0 == 0:
                continue
            quad = sum(v[a] * sn[3 * a + b] * v[b] for a in range(3) for b in range(3))
            if quad * r.denominator != e0 * r.numerator * sden:
                ratios_equal = False
        report.update(exact_equal=bool(trace_equal and ratios_equal),
                      trace_equal=bool(trace_equal), passed=bool(trace_equal and ratios_equal))
    else:
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
        report.update(max_rel_err=worst, passed=bool(worst < 1e-10))
    return report
