"""Discrete Dirichlet energies, harmonic extension, subdivision harmonics.

The base form on corner triples is E0(u) = sum over unordered corner pairs
of (u_j - u_k)^2.  The depth-n form is (1/R_n) times the sum of E0 over all
cell corner triples.  Harmonic extension pins values on V_k and minimizes
the depth-n form; two independent routes are provided: a pinned Laplacian
solve on the depth-n graph, and per-cell products of the one-subdivision
harmonic matrices.  Those matrices come from closed forms over 6l + 1;
elimination on the depth-1 graph is kept only as their oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DomainError
from .geometry import ApproximationGraph, _letter_index, boundary_cells, build_graph
from .rand import stream
from .sequence import LevelSequence, check_level, resistance_ratio

#: Quadratic-form matrix of E0 in the corner basis.
TRIANGLE_FORM = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))


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


@dataclass
class DiscreteForm:
    """The depth-n energy form (1/R_n) sum of per-cell base energies."""

    graph: ApproximationGraph
    scale: Fraction  # R_n

    @property
    def depth(self) -> int:
        return self.graph.level

    def energy(self, u: np.ndarray) -> float:
        vals = np.asarray(u, dtype=np.float64)[self.graph.cells]
        return float(cell_energies(vals).sum() / self.scale)

    def energy_exact(self, u) -> Fraction:
        total = Fraction(0)
        for c0, c1, c2 in self.graph.cells:
            total += base_energy((u[int(c0)], u[int(c1)], u[int(c2)]))
        return total / self.scale


def discrete_form(ls: LevelSequence, n: int, graph: ApproximationGraph | None = None,
                  max_corners: int = 6_000_000) -> DiscreteForm:
    g = graph if graph is not None else build_graph(ls, n, max_corners)
    return DiscreteForm(g, ls.R(n))


def level_energy(form: DiscreteForm, u) -> float:
    return form.energy(u)


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

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.entries])


@lru_cache(maxsize=None)
def matrix_stack_exact(l: int):
    """All one-subdivision matrices of level l as Fraction tuples, in
    boundary_cells(l) order, from the closed forms over 6l+1; O(l)."""
    check_level(l)
    q = 6 * l + 1
    return tuple(tuple(tuple(Fraction(x, q) for x in row) for row in _cell_numerators(l, i))
                 for i in boundary_cells(l))


@lru_cache(maxsize=None)
def matrix_stack(l: int) -> np.ndarray:
    """Float (m, 3, 3) stack of the level-l one-subdivision matrices."""
    return np.array([[[float(x) for x in row] for row in mat] for mat in matrix_stack_exact(l)])


def harmonic_matrix(l: int, i) -> HarmonicMatrix:
    """The exact one-subdivision matrix for cell index i of level l."""
    i = tuple(i)
    pos = _letter_index(l).get(i)
    if pos is None:
        raise DomainError(f"{i} is not a cell index of level {l}")
    return HarmonicMatrix(l, i, matrix_stack_exact(l)[pos])


# ---- Harmonic extension --------------------------------------------------


class HarmonicSpec:
    """A pin on V_k together with lazily materialized harmonic values.

    pin_graph: the depth-k graph fixing the pin ordering.
    pin_vertex_values: values on pin_graph.vertices (floats or Fractions).
    """

    def __init__(self, ls: LevelSequence, pin_level: int, pin_graph: ApproximationGraph,
                 pin_vertex_values, precision: str = "float"):
        self.ls = ls
        self.pin_level = pin_level
        self.pin_graph = pin_graph
        self.pin_vertex_values = pin_vertex_values
        self.precision = precision
        self._materialized: dict[int, tuple[ApproximationGraph, object]] = {}
        self._cell_values: dict[int, object] = {}
        k = pin_level
        self._cell_values[k] = self._pin_cell_values()

    # -- pin values per depth-k cell

    def _pin_cell_values(self):
        cells = self.pin_graph.cells
        if self.precision == "rational":
            return [[self.pin_vertex_values[int(c)] for c in row] for row in cells]
        vals = np.asarray(self.pin_vertex_values, dtype=np.float64)
        return vals[cells]

    # -- matrix-cascade route

    def cell_values(self, d: int):
        """Corner values of every depth-d cell via matrix products, shape
        (M_d, 3); exact Fractions in rational mode."""
        if d < self.pin_level:
            raise DomainError(f"depth {d} below pin level {self.pin_level}")
        if d in self._cell_values:
            return self._cell_values[d]
        prev = self.cell_values(d - 1)
        l = self.ls.level(d)
        if self.precision == "rational":
            stack = matrix_stack_exact(l)
            out = []
            for row in prev:
                for mat in stack:
                    out.append([sum(mat[j][m] * row[m] for m in range(3)) for j in range(3)])
        else:
            stack = matrix_stack(l)
            out = np.einsum("mij,wj->wmi", stack, prev).reshape(-1, 3)
        self._cell_values[d] = out
        return out

    # -- graph-solve route

    def extend(self, n: int, method: str = "direct", max_corners: int = 6_000_000):
        """Materialize values on V_n by a pinned Laplacian solve.  Returns
        (graph, values); cached per depth."""
        if n < self.pin_level:
            raise DomainError(f"depth {n} below pin level {self.pin_level}")
        if n in self._materialized:
            return self._materialized[n]
        g = build_graph(self.ls, n, max_corners)
        lift = g.L // self.pin_graph.L
        coords = self.pin_graph.vertices * lift
        pin_ids = g.vertex_ids(coords)
        if self.precision == "rational":
            lap = linalg.dense_rational_laplacian(g.adjacency)
            pv = [[Fraction(v)] for v in self.pin_vertex_values]
            full = linalg.rational_pinned_solve(lap, [int(p) for p in pin_ids], pv)
            values = [row[0] for row in full]
        else:
            pv = np.asarray(self.pin_vertex_values, dtype=np.float64)
            values, _ = linalg.pinned_solve(linalg.laplacian(g.adjacency), pin_ids, pv,
                                            method=method)
        self._materialized[n] = (g, values)
        return g, values

    def cell_values_from_graph(self, d: int, n: int | None = None):
        """Corner values of depth-d cells read off a depth-n solve."""
        n = d if n is None else n
        g, values = self.extend(n)
        ids = g.corner_ids_at_depth(d)
        if self.precision == "rational":
            return [[values[int(c)] for c in row] for row in ids]
        return np.asarray(values)[ids]

    # -- energies

    def energy(self, n: int, route: str = "matrices"):
        """Depth-n energy of the extension (equals the pin energy for any
        n >= pin level)."""
        vals = self.cell_values(n) if route == "matrices" else self.cell_values_from_graph(n)
        r = self.ls.R(n)
        if self.precision == "rational":
            total = Fraction(0)
            for row in vals:
                total += base_energy(row)
            return total / r
        return float(cell_energies(np.asarray(vals)).sum() / r)


def corner_pin_values(g: ApproximationGraph, triple):
    """Vertex-value array for a depth-0 pin given as (u(q0), u(q1), u(q2))."""
    if g.level != 0:
        raise DomainError("corner pins apply to the depth-0 graph")
    if any(isinstance(v, Fraction) for v in triple):
        out = [Fraction(0)] * 3
        for j, v in enumerate(triple):
            out[g.corner_id(j)] = Fraction(v)
        return out
    out = np.zeros(3)
    for j, v in enumerate(triple):
        out[g.corner_id(j)] = float(v)
    return out


def harmonic_extend(ls: LevelSequence, pin, depth: int, pin_level: int = 0,
                    method: str = "direct", precision: str = "float",
                    max_corners: int = 6_000_000) -> HarmonicSpec:
    """Harmonic extension of a pin on V_k, materialized to V_depth.

    For pin_level 0 the pin is the corner triple (u(q0), u(q1), u(q2));
    for deeper pins it is an array over the depth-k graph's vertex order.
    method: "direct" or "cg" (graph solve), or "cells" (matrix products).
    """
    if depth < pin_level:
        raise DomainError(f"target depth {depth} below pin level {pin_level}")
    gk = build_graph(ls, pin_level, max_corners)
    if pin_level == 0 and len(pin) == 3 and not isinstance(pin, np.ndarray):
        pin_vals = corner_pin_values(gk, tuple(pin))
    else:
        if len(pin) != gk.n_vertices:
            raise DomainError(
                f"pin has {len(pin)} values; depth-{pin_level} graph has {gk.n_vertices} vertices"
            )
        pin_vals = np.asarray(pin, dtype=np.float64)
    if precision == "rational":
        pin_vals = [v if isinstance(v, Fraction) else Fraction(v) for v in pin_vals]
    h = HarmonicSpec(ls, pin_level, gk, pin_vals, precision)
    if method == "cells":
        h.cell_values(depth)
    else:
        h.extend(depth, method=method, max_corners=max_corners)
    return h


# ---- One-subdivision ratio check ----------------------------------------


def one_subdivision_trace(l: int, precision: str = "rational"):
    """Trace (Schur complement) of the unit-conductance one-subdivision
    network onto the three outer corners, as a 3x3 matrix."""
    g = _depth_one_graph(l)
    keep = [int(v) for v in g.boundary]
    if precision == "rational":
        lap = linalg.dense_rational_laplacian(g.adjacency)
        return linalg.schur_complement(lap, keep)
    lap = linalg.laplacian(g.adjacency).toarray().astype(np.float64)
    return linalg.schur_complement_float(lap, keep)


def extension_ratio_check(l: int, n_random: int = 100, seed: int = 7,
                          precision: str = "rational") -> dict:
    """Verify that minimal one-subdivision extension energy is r_l * E0.

    Checks the 3x3 trace matrix against r_l times the triangle form and the
    energy ratio for corner-basis plus random pins.  Exact in rational mode;
    float mode reports the maximum relative error.
    """
    r = resistance_ratio(l)
    rng = stream(seed, l)
    pins = [np.eye(3)[j] for j in range(3)]
    pins += [rng.uniform(-1.0, 1.0, size=3) for _ in range(n_random)]

    report = {"l": l, "expected": r, "n_pins": len(pins), "precision": precision}
    if precision == "rational":
        s = one_subdivision_trace(l, "rational")
        target = [[r * x for x in row] for row in TRIANGLE_FORM]
        trace_equal = s == target
        ratios_equal = True
        for p in pins:
            u = [Fraction(x).limit_denominator(10**12) for x in p]
            e0 = base_energy(u)
            if e0 == 0:
                continue
            quad = sum(u[a] * s[a][b] * u[b] for a in range(3) for b in range(3))
            if quad / e0 != r:
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
