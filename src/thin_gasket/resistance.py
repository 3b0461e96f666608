"""Effective resistance on approximation graphs.

R_n(x, y) = R_n * (unit-conductance effective resistance between x and y
on the depth-n graph).  Routes:

- "rational": 1 / (exact Schur complement onto {x, y})[0][0], on graphs of
  at most linalg.RATIONAL_SIZE_LIMIT (400) vertices.
- "direct": sparse LU with iterative refinement.
- "cg": Jacobi-preconditioned conjugate gradient.
- "reduction": corner pairs only, from the closed form R_n(q_j, q_k) = 2/3
  at every depth; O(1), no solve.

The level-by-level reduction (corner_trace) survives only as the closed
form's oracle: it folds the graph onto its corners through Schur
complements of one-subdivision networks, which is valid because all cells
at one depth are translates of a single model cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse.linalg import splu

from . import linalg
from .errors import DomainError, SolveError
from .forms import TRIANGLE_FORM, one_subdivision_trace
from .geometry import ApproximationGraph, build_graph
from .sequence import LevelSequence


@dataclass(frozen=True)
class ResistanceResult:
    value: object  # float or Fraction
    exact: bool
    method: str
    residual: float
    x: int
    y: int

    def __float__(self) -> float:
        return float(self.value)


def _unit_resistance_direct(g: ApproximationGraph, x: int, y: int,
                            method: str = "direct") -> tuple[float, float]:
    lap = linalg.laplacian(g.adjacency)
    injection = np.zeros(g.n_vertices)
    injection[x] = 1.0
    u, res = linalg.pinned_solve(lap, np.array([y]), np.array([0.0]),
                                 injection=injection, method=method)
    return float(u[x]), res


def _unit_resistance_rational(g: ApproximationGraph, x: int, y: int) -> Fraction:
    lap = linalg.dense_rational_laplacian(g.adjacency)
    return 1 / linalg.schur_complement(lap, [x, y])[0][0]


# ---- Corner pairs --------------------------------------------------------


def corner_resistance(ls: LevelSequence, n: int, j: int = 0, k: int = 1,
                      precision: str = "rational") -> ResistanceResult:
    """R_n(q_j, q_k) = 2/3 at every depth, from the closed form; runs no solve.

    Each l-subdivision contracts energy by exactly r_l = 9/(6l+1), so the
    trace of the depth-n network onto the outer corners is R_n times the
    triangle form, whose corner pairs have unit resistance 2/3 / R_n.
    """
    if j not in (0, 1, 2) or k not in (0, 1, 2):
        raise DomainError(f"corner indices must be 0, 1 or 2, got {j} and {k}")
    if j == k:
        raise DomainError("corner pair must be distinct")
    if n < 0:
        raise DomainError("depth must be nonnegative")
    if n >= 1:
        ls.level(n)  # O(1): a sequence with level n has every level below it
    value = Fraction(2, 3) if precision == "rational" else 2 / 3
    return ResistanceResult(value, precision == "rational", "reduction", 0.0, j, k)


def corner_trace(ls: LevelSequence, n: int, precision: str = "rational"):
    """Trace of the unit-conductance depth-n network onto (q0, q1, q2) by
    folding one-subdivision networks level by level; an object array of
    Fractions in rational precision."""
    trace = np.array([[Fraction(t) for t in row] for row in TRIANGLE_FORM],
                     dtype=object if precision == "rational" else np.float64)
    for k in range(n, 0, -1):
        trace = one_subdivision_trace(ls.level(k), trace, precision)
    return trace


def corner_resistance_by_reduction(ls: LevelSequence, n: int, j: int = 0, k: int = 1,
                                   precision: str = "rational"):
    """R_n(q_j, q_k) from the folded corner trace: the oracle of
    corner_resistance's closed form, exact (a Fraction) in rational mode.
    It refuses the arguments that corner_resistance refuses."""
    corner_resistance(ls, n, j, k, precision)
    trace = corner_trace(ls, n, precision)
    if precision == "rational":
        unit = 1 / linalg.schur_complement(trace, [j, k])[0][0]
    else:
        free = [p for p in range(3) if p != k]
        b = np.array([1.0 if p == j else 0.0 for p in free])
        unit = float(np.linalg.solve(trace[np.ix_(free, free)], b)[free.index(j)])
    # a Fraction times a float unit is float(R_n) * unit
    return ls.R(n) * unit


# ---- General pairs -------------------------------------------------------


def effective_resistance(ls: LevelSequence, n: int, x: int, y: int,
                         graph: ApproximationGraph | None = None,
                         method: str = "auto", precision: str = "float",
                         max_corners: int = 6_000_000) -> ResistanceResult:
    """R_n(x, y) between vertex ids of the depth-n graph."""
    g = graph if graph is not None else build_graph(ls, n, max_corners)
    if x == y:
        zero = Fraction(0) if precision == "rational" else 0.0
        return ResistanceResult(zero, precision == "rational", "trivial", 0.0, x, y)
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("vertex id out of range")
    if method == "auto":
        if precision == "rational":
            method = "rational"
        else:
            method = "direct"
    scale = ls.R(n)
    if method == "rational":
        unit = _unit_resistance_rational(g, x, y)
        return ResistanceResult(scale * unit, True, "rational", 0.0, x, y)
    if method in ("direct", "cg"):
        unit, res = _unit_resistance_direct(g, x, y, method)
        return ResistanceResult(float(scale) * unit, False, method, res, x, y)
    if method == "reduction":
        corners = {int(g.corner_id(j)): j for j in range(3)}
        if x not in corners or y not in corners:
            raise DomainError("reduction route handles corner pairs only")
        return corner_resistance(ls, n, corners[x], corners[y], precision)
    raise DomainError(f"unknown method {method!r}")


class ResistanceSolver:
    """One grounded factorization answering many unit-resistance queries."""

    def __init__(self, g: ApproximationGraph, ground: int | None = None):
        self.graph = g
        self.ground = int(g.boundary[0]) if ground is None else int(ground)
        lap = linalg.laplacian(g.adjacency).tocsr()
        mask = np.ones(g.n_vertices, dtype=bool)
        mask[self.ground] = False
        self.free = np.nonzero(mask)[0]
        self.pos = -np.ones(g.n_vertices, dtype=np.int64)
        self.pos[self.free] = np.arange(self.free.size)
        self.reduced = lap[self.free][:, self.free].tocsc()
        self.lu = splu(self.reduced)

    def unit_resistance(self, x: int, y: int) -> float:
        if x == y:
            return 0.0
        b = np.zeros(self.free.size)
        if x != self.ground:
            b[self.pos[x]] += 1.0
        if y != self.ground:
            b[self.pos[y]] -= 1.0
        u = self.lu.solve(b)
        # one refinement pass keeps long solves honest
        r = b - self.reduced @ u
        u = u + self.lu.solve(r)
        ux = u[self.pos[x]] if x != self.ground else 0.0
        uy = u[self.pos[y]] if y != self.ground else 0.0
        val = float(ux - uy)
        if val < 0:
            raise SolveError(f"negative resistance {val} for pair ({x}, {y})")
        return val

    def resistances(self, pairs, scale: Fraction) -> np.ndarray:
        s = float(scale)
        return np.array([s * self.unit_resistance(int(x), int(y)) for x, y in pairs])
