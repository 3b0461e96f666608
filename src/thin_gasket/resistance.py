"""Effective resistance on approximation graphs.

R_n(x, y) = R_n * (unit-conductance effective resistance between x and y
on the depth-n graph).  Routes:

- "rational": exact dense elimination, small graphs only.
- "direct": sparse LU with iterative refinement.
- "cg": Jacobi-preconditioned conjugate gradient.
- "reduction": corner pairs only; eliminates the graph level by level via
  Schur complements of one-subdivision networks, so depth and level size
  enter only linearly.  All cells at one depth are translates of a single
  model cell, which is what makes the shared per-level trace valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse.linalg import splu

from . import linalg
from .errors import DomainError, SolveError
from .forms import TRIANGLE_FORM, _depth_one_graph
from .geometry import ApproximationGraph, build_graph
from .sequence import LevelSequence

_RATIONAL_VERTEX_LIMIT = 700


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
    if g.n_vertices > _RATIONAL_VERTEX_LIMIT:
        raise SolveError(f"rational route limited to {_RATIONAL_VERTEX_LIMIT} vertices")
    lap = linalg.dense_rational_laplacian(g.adjacency)
    free = [i for i in range(g.n_vertices) if i != y]
    col = {v: j for j, v in enumerate(free)}
    a = [[lap[i][j] for j in free] for i in free]
    b = [[Fraction(1) if i == x else Fraction(0)] for i in free]
    sol = linalg.rational_solve(a, b)
    return sol[col[x]][0]


# ---- Level-by-level corner reduction -------------------------------------


def ring_reduce(l: int, trace, precision: str = "rational"):
    """Given the 3x3 corner trace of a child network, assemble the level-l
    one-subdivision graph with that trace on every cell and re-trace onto
    the outer corners."""
    g = _depth_one_graph(l)
    v = g.n_vertices
    keep = [int(c) for c in g.boundary]
    if precision == "rational":
        lap = [[Fraction(0)] * v for _ in range(v)]
        for cell in g.cells:
            ids = [int(c) for c in cell]
            for a in range(3):
                for b in range(3):
                    lap[ids[a]][ids[b]] += trace[a][b]
        return linalg.schur_complement(lap, keep)
    lap = np.zeros((v, v))
    t = np.asarray(trace, dtype=np.float64)
    for cell in g.cells:
        ids = cell.astype(int)
        lap[np.ix_(ids, ids)] += t
    return _project_trace(linalg.schur_complement_float(lap, keep))


def _project_trace(t: np.ndarray) -> np.ndarray:
    """Snap a folded 3x3 trace back to a symmetric zero-row-sum matrix.

    Float noise off that manifold feeds the constant mode of the next
    assembly, the one direction a fold amplifies instead of attenuating.
    """
    c01 = -(t[0, 1] + t[1, 0]) / 2.0
    c02 = -(t[0, 2] + t[2, 0]) / 2.0
    c12 = -(t[1, 2] + t[2, 1]) / 2.0
    return np.array([[c01 + c02, -c01, -c02],
                     [-c01, c01 + c12, -c12],
                     [-c02, -c12, c02 + c12]])


def corner_trace(ls: LevelSequence, n: int, precision: str = "rational"):
    """Trace of the unit-conductance depth-n network onto (q0, q1, q2)."""
    if precision == "rational":
        trace = [[Fraction(t) for t in row] for row in TRIANGLE_FORM]
    else:
        trace = np.array(TRIANGLE_FORM, dtype=np.float64)
    for k in range(n, 0, -1):
        trace = ring_reduce(ls.level(k), trace, precision)
    return trace


def _corner_pair_from_trace(trace, j: int, k: int, precision: str):
    """Unit resistance between corners j and k given the 3x3 trace."""
    free = sorted({0, 1, 2} - {k})
    if precision == "rational":
        a = [[trace[p][q] for q in free] for p in free]
        b = [[Fraction(1) if p == j else Fraction(0)] for p in free]
        sol = linalg.rational_solve(a, b)
        return sol[free.index(j)][0]
    a = np.array([[float(trace[p][q]) for q in free] for p in free])
    b = np.array([1.0 if p == j else 0.0 for p in free])
    sol = np.linalg.solve(a, b)
    return float(sol[free.index(j)])


def corner_resistance(ls: LevelSequence, n: int, j: int = 0, k: int = 1,
                      precision: str = "rational") -> ResistanceResult:
    """R_n(q_j, q_k) by level-by-level reduction; exact in rational mode."""
    if j not in (0, 1, 2) or k not in (0, 1, 2):
        raise DomainError(f"corner indices must be 0, 1 or 2, got {j} and {k}")
    if j == k:
        raise DomainError("corner pair must be distinct")
    trace = corner_trace(ls, n, precision)
    unit = _corner_pair_from_trace(trace, j, k, precision)
    scale = ls.R(n)
    if precision == "rational":
        return ResistanceResult(scale * unit, True, "reduction", 0.0, j, k)
    return ResistanceResult(float(scale) * unit, False, "reduction", 0.0, j, k)


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
