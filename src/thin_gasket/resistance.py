"""Effective resistance on approximation graphs.

R_n(x, y) = R_n * (unit-conductance effective resistance between x and y
on the depth-n graph).  One route per precision:

- rational: 1 / (exact Schur complement onto {x, y})[0][0], on graphs of
  at most linalg.RATIONAL_SIZE_LIMIT (400) vertices;
- float: ResistanceSolver's cell-by-cell elimination;

and corner pairs come from the closed form R_n(q_j, q_k) = 2/3 at every
depth, in O(1) with no solve.

ResistanceSolver serves every float query.  Cells meet only at their
corners and all cells at one depth are translates of a single model cell,
so V_{n-1} separates the depth-n graph into identical pieces; the solver
eliminates them level by level with one banded Cholesky factor per
distinct level and solves the closed-form R_n * TRIANGLE_FORM system left
on the outer corners.  The sparse LU of linalg.pinned_solve is its oracle
in the tests.

The level-by-level reduction (corner_trace) survives only as the closed
form's oracle: it folds the graph onto its corners through Schur
complements of one-subdivision networks, which is valid because all cells
at one depth are translates of a single model cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import csgraph

from . import linalg
from .errors import DomainError, SolveError
from .forms import TRIANGLE_FORM, _depth_one_graph, one_subdivision_trace
from .geometry import ApproximationGraph, _corner_numerators, build_graph
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
                         precision: str = "float") -> ResistanceResult:
    """R_n(x, y) between vertex ids of the depth-n graph: the exact Schur
    complement in rational precision, ResistanceSolver in float precision,
    with the relative residual of its refined potential."""
    g = graph if graph is not None else build_graph(ls, n)
    if x == y:
        zero = Fraction(0) if precision == "rational" else 0.0
        return ResistanceResult(zero, precision == "rational", "trivial", 0.0, x, y)
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("vertex id out of range")
    if precision == "rational":
        unit = _unit_resistance_rational(g, x, y)
        return ResistanceResult(ls.R(n) * unit, True, "rational", 0.0, x, y)
    solver = ResistanceSolver(g)
    b, u = solver.potential(x, y)
    residual = float(np.linalg.norm(solver.residual(b, u)) / np.linalg.norm(b))
    return ResistanceResult(float(ls.R(n)) * float(u[x] - u[y]), False, "elimination",
                            residual, x, y)


class _ModelCell(NamedTuple):
    """One l-subdivision network split at its three outer corners.

    With K its unit Laplacian, I the non-corner vertices and B the corners:
    interior: model vertex ids of I, in reverse Cuthill-McKee order;
    chol: upper banded Cholesky factor of K_II in that order;
    k_bi: K_BI as a sparse (3, |I|) matrix, rows in corner order;
    coupling: P = K_II^-1 K_IB, shape (|I|, 3).
    """

    interior: np.ndarray
    chol: np.ndarray
    k_bi: sparse.csr_matrix
    coupling: np.ndarray


@lru_cache(maxsize=None)
def _model_cell(l: int) -> _ModelCell:
    """Banded Cholesky of one l-subdivision network's interior block; no
    dense |I| x |I| array is formed (|I| = 6l - 12)."""
    g = _depth_one_graph(l)
    lap = linalg.laplacian(g.adjacency).tocsr()
    mask = np.ones(g.n_vertices, dtype=bool)
    mask[g.boundary] = False
    inner = np.flatnonzero(mask)
    order = csgraph.reverse_cuthill_mckee(lap[inner][:, inner].tocsr(), symmetric_mode=True)
    interior = inner[order]
    upper = sparse.triu(lap[interior][:, interior]).tocoo()
    band = int((upper.col - upper.row).max(initial=0))
    ab = np.zeros((band + 1, interior.size))
    ab[band + upper.row - upper.col, upper.col] = upper.data
    chol = cholesky_banded(ab)
    k_bi = lap[g.boundary][:, interior].tocsr()
    coupling = cho_solve_banded((chol, False), k_bi.T.toarray())
    return _ModelCell(interior, chol, k_bi, coupling)


class ResistanceSolver:
    """Unit-resistance queries on one graph by cell-by-cell elimination.

    Depth-(k-1) cells meet only at their corners and are translates of one
    model l_k-subdivision network, so V_{k-1} cuts the vertices new at
    depth k into identical pieces.  A solve eliminates the vertices new at
    depth n, then those new at depth n-1, and so on down to the outer
    corners, batched over the cells of a level with the model cell's banded
    Cholesky factor (_model_cell, one per distinct level).  Each step leaves
    r_l times the coarser Laplacian, so what remains is R_n * TRIANGLE_FORM
    on the outer corners, grounded at q0 and solved in closed form; the
    back-substitution then runs level by level.  A query makes one solve and
    one refinement pass with the residual from the edge form.  free holds
    the non-ground vertex ids.
    """

    def __init__(self, g: ApproximationGraph):
        ls, n = g.ls, g.level
        self.graph = g
        self.ground = int(g.boundary[0])
        mask = np.ones(g.n_vertices, dtype=bool)
        mask[self.ground] = False
        self.free = np.flatnonzero(mask)
        # L = B^T B with B the edge incidence matrix: the residual sums edge
        # differences, free of the eps * deg * |u| cancellation of L u
        e = g.edges
        self.incidence = sparse.csr_matrix(
            (np.tile([1.0, -1.0], g.n_edges), (np.repeat(np.arange(g.n_edges), 2), e.ravel())),
            shape=(g.n_edges, g.n_vertices))
        self.corner_scale = float(ls.R(n))
        # per level k, finest first: the (M_{k-1}, |I|) interior and
        # (M_{k-1}, 3) corner vertex ids of the depth-(k-1) cells, the model
        # cell, and c_k = R_n / R_k, the factor the finer eliminations leave
        # on the level-k Laplacian
        self.levels = []
        for k in range(n, 0, -1):
            l = ls.level(k)
            model = _model_cell(l)
            corners = _corner_numerators(ls, k - 1) * (g.L // ls.L(k - 1))
            inner = _depth_one_graph(l).vertices[model.interior] * (g.L // ls.L(k))
            self.levels.append((g.vertex_ids(corners[:, :1, :] + inner[None, :, :]),
                                g.vertex_ids(corners), model, float(ls.R(n) / ls.R(k))))

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """u with L u = b off the ground and u = 0 at the ground."""
        b = b.copy()
        particular = []
        for interior, corners, model, scale in self.levels:
            b_i = b[interior]
            # a cell with no source has no particular solution
            active = np.flatnonzero(b_i.any(axis=1))
            if active.size == b_i.shape[0]:
                active = slice(None)  # views, not copies, of whole tables
            z = cho_solve_banded((model.chol, False), b_i[active].T, check_finite=False)
            np.add.at(b, corners[active], -(model.k_bi @ z).T)
            particular.append((active, z.T / scale))
        u = np.zeros_like(b)
        _, q1, q2 = self.graph.boundary
        u[q1] = (2 * b[q1] + b[q2]) / (3 * self.corner_scale)
        u[q2] = (b[q1] + 2 * b[q2]) / (3 * self.corner_scale)
        for (interior, corners, model, _), (active, z) in zip(reversed(self.levels),
                                                              reversed(particular)):
            u_i = np.einsum("mj,ij->mi", u[corners], -model.coupling)
            u_i[active] += z
            u[interior] = u_i
        return u

    def residual(self, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """b - L u off the ground, with L u = B^T (B u) from the edge form."""
        r = b - self.incidence.T @ (self.incidence @ u)
        r[self.ground] = 0.0
        return r

    def potential(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """The source b = e_x - e_y off the ground and the potential u with
        L u = b there, after one refinement pass; SolveError if u[x] < u[y]."""
        b = np.zeros(self.graph.n_vertices)
        b[x] += 1.0
        b[y] -= 1.0
        b[self.ground] = 0.0
        u = self._solve(b)
        u = u + self._solve(self.residual(b, u))
        if u[x] < u[y]:
            raise SolveError(f"negative resistance {u[x] - u[y]} for pair ({x}, {y})")
        return b, u

    def unit_resistance(self, x: int, y: int) -> float:
        if x == y:
            return 0.0
        u = self.potential(x, y)[1]
        return float(u[x] - u[y])
