"""Effective resistance on approximation graphs.

R_n(x, y) = R_n * (unit-conductance effective resistance between x and y
on the depth-n graph).  One route serves both precisions: ResistanceSolver's
cell-by-cell elimination, in float64 with one refinement pass, or exactly
over Fractions; and corner pairs come from the closed form
R_n(q_j, q_k) = 2/3 at every depth, in O(1) with no solve.

Cells meet only at their corners and all cells at one depth are
translates of a single model cell, so V_{n-1} separates the depth-n graph
into identical pieces; the solver eliminates them level by level with one
factor of the model cell's interior block per distinct level, carries the
sources to the corners and extends the potential back with the closed-form
harmonic matrices (forms.matrix_stack), and solves the closed-form
R_n * TRIANGLE_FORM system left on the outer corners.  The size of an exact
query is bounded only by build_graph's corner budget.  The sparse LU of
linalg.pinned_solve and the dense Fraction Schur complement of linalg are
its oracles in the tests.

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
from .forms import (TRIANGLE_FORM, _depth_one_graph, matrix_stack, matrix_stack_exact,
                    one_subdivision_trace)
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
    t = corner_trace(ls, n, precision)
    m = 3 - j - k
    # conductances -t on a triangle: the edge jk in parallel with jm, mk in series
    unit = 1 / (-t[j][k] + t[j][m] * t[k][m] / (-t[j][m] - t[k][m]))
    # a Fraction times a float unit is float(R_n) * unit
    return ls.R(n) * unit


# ---- General pairs -------------------------------------------------------


def effective_resistance(ls: LevelSequence, n: int, x: int, y: int,
                         graph: ApproximationGraph | None = None,
                         precision: str = "float") -> ResistanceResult:
    """R_n(x, y) between vertex ids of the depth-n graph by ResistanceSolver:
    exact in rational precision; in float precision with the relative
    residual of its refined potential."""
    g = graph if graph is not None else build_graph(ls, n)
    if x == y:
        zero = Fraction(0) if precision == "rational" else 0.0
        return ResistanceResult(zero, precision == "rational", "trivial", 0.0, x, y)
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("vertex id out of range")
    solver = ResistanceSolver(g)
    if precision == "rational":
        u = solver._solve(solver._source(x, y, Fraction(1)))
        return ResistanceResult(ls.R(n) * (u[x] - u[y]), True, "rational", 0.0, x, y)
    b, u = solver.potential(x, y)
    residual = float(np.linalg.norm(solver.residual(b, u)) / np.linalg.norm(b))
    return ResistanceResult(float(ls.R(n)) * float(u[x] - u[y]), False, "elimination",
                            residual, x, y)


def _stack_rows(l: int) -> np.ndarray:
    """Per vertex of the level-l model network, the row of
    matrix_stack(l).reshape(-1, 3) that extends corner values to it: row j
    of cell i's matrix belongs to vertex cells[i][j]."""
    g = _depth_one_graph(l)
    rows = np.empty(g.n_vertices, dtype=np.int64)
    rows[g.cells.ravel()] = np.arange(g.cells.size)
    return rows


class _ModelCell(NamedTuple):
    """One l-subdivision network split at its three outer corners.

    With K its unit Laplacian, I the non-corner vertices and B the corners:
    interior: model vertex ids of I, in reverse Cuthill-McKee order;
    band: K_II in that order, in upper banded storage (integer entries);
    chol: the upper banded Cholesky factor of K_II;
    harmonic: H_I^T, shape (3, |I|), with H_I = -K_II^-1 K_IB the rows of
    matrix_stack(l) at I: u_I = H_I u_B extends corner values harmonically
    and K_BI K_II^-1 = -H_I^T.  Stored C-contiguous so that the solver's
    einsums stream it (over twice as fast as H_I's layout, and unlike a
    BLAS matmul of these thin shapes they run on one thread).
    """

    interior: np.ndarray
    band: np.ndarray
    chol: np.ndarray
    harmonic: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^-1 rhs for an (|I|, k) float array."""
        return cho_solve_banded((self.chol, False), rhs, check_finite=False)


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
    w = int((upper.col - upper.row).max(initial=0))
    band = np.zeros((w + 1, interior.size))
    band[w + upper.row - upper.col, upper.col] = upper.data
    harmonic = matrix_stack(l).reshape(-1, 3)[_stack_rows(l)[interior]]
    return _ModelCell(interior, band, cholesky_banded(band), np.ascontiguousarray(harmonic.T))


class _ExactCell(NamedTuple):
    """The model cell in Fractions: harmonic is H_I^T from
    matrix_stack_exact(l), and K_II = L D L^T with L unit lower triangular
    of K_II's bandwidth w, lower[o][i] = L[i, i - o] for 1 <= o <= w and
    diag = D."""

    harmonic: np.ndarray
    lower: list
    diag: list

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^-1 rhs exactly for an (|I|, k) object array."""
        w = len(self.lower) - 1
        n = rhs.shape[0]
        z = rhs.copy()
        for i in range(n):
            for o in range(1, min(w, i) + 1):
                z[i] -= self.lower[o][i] * z[i - o]
        for i in range(n - 1, -1, -1):
            z[i] /= self.diag[i]
            for o in range(1, min(w, n - 1 - i) + 1):
                z[i] -= self.lower[o][i + o] * z[i + o]
        return z


@lru_cache(maxsize=None)
def _exact_model_cell(l: int) -> _ExactCell:
    """Exact banded L D L^T of the model cell's K_II, in _model_cell's
    order; built on the first exact query of level l."""
    model = _model_cell(l)
    w, n = model.band.shape[0] - 1, model.band.shape[1]
    # k[o][i] = K_II[i, i - o]
    k = [[Fraction(int(v)) for v in row] for row in model.band[::-1]]
    lower = [[Fraction(0)] * n for _ in range(w + 1)]
    diag = [Fraction(0)] * n
    for i in range(n):
        for o in range(min(w, i), 0, -1):
            j = i - o
            s = k[o][i]
            for p in range(1, min(w - o, j) + 1):
                s -= lower[o + p][i] * lower[p][j] * diag[j - p]
            lower[o][i] = s / diag[j]
        diag[i] = k[0][i] - sum(lower[o][i] ** 2 * diag[i - o] for o in range(1, min(w, i) + 1))
    stack = np.array(matrix_stack_exact(l), dtype=object).reshape(-1, 3)
    return _ExactCell(stack[_stack_rows(l)[model.interior]].T, lower, diag)


class ResistanceSolver:
    """Unit-resistance queries on one graph by cell-by-cell elimination.

    Depth-(k-1) cells meet only at their corners and are translates of one
    model l_k-subdivision network, so V_{k-1} cuts the vertices new at
    depth k into identical pieces.  A solve eliminates the vertices new at
    depth n, then those new at depth n-1, and so on down to the outer
    corners, batched over the cells of a level: each cell with a source
    gets its particular solution from one factor of the model cell's K_II
    per distinct level, and its source moves to its corners through the
    closed-form harmonic rows H_I.  Each step leaves r_l times the coarser
    Laplacian, so what remains is R_n * TRIANGLE_FORM on the outer corners,
    grounded at q0 and solved in closed form; the back-substitution then
    extends the potential level by level through H_I and adds the
    particular solutions.  The source's dtype picks the arithmetic: float64
    with the banded Cholesky factor (a query makes one solve and one
    refinement pass with the residual from the edge form), or Fractions
    with an exact banded L D L^T (exact, so no refinement).  free holds
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
        self.corner_scale = ls.R(n)
        # per level k, finest first: the (M_{k-1}, |I|) interior and
        # (M_{k-1}, 3) corner vertex ids of the depth-(k-1) cells, the level,
        # and c_k = R_n / R_k, the factor the finer eliminations leave on
        # the level-k Laplacian
        self.levels = []
        for k in range(n, 0, -1):
            l = ls.level(k)
            corners = _corner_numerators(ls, k - 1) * (g.L // ls.L(k - 1))
            inner = _depth_one_graph(l).vertices[_model_cell(l).interior] * (g.L // ls.L(k))
            self.levels.append((g.vertex_ids(corners[:, :1, :] + inner[None, :, :]),
                                g.vertex_ids(corners), l, ls.R(n) / ls.R(k)))

    def _source(self, x: int, y: int, one) -> np.ndarray:
        """e_x - e_y off the ground in units of one: 1.0 for a float solve,
        Fraction(1) for an exact one."""
        b = np.zeros(self.graph.n_vertices, dtype=np.asarray(one).dtype)
        b[x] += one
        b[y] -= one
        b[self.ground] = 0
        return b

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """u with L u = b off the ground and u = 0 at the ground: in float64,
        or exactly for an object array of Fractions."""
        exact = b.dtype == object
        b = b.copy()
        particular = []
        for interior, corners, l, scale in self.levels:
            cell = _exact_model_cell(l) if exact else _model_cell(l)
            b_i = b[interior]
            # a cell with no source has no particular solution
            active = np.flatnonzero(b_i.any(axis=1))
            if active.size == b_i.shape[0]:
                active = slice(None)  # views, not copies, of whole tables
            b_a = b_i[active]
            z = cell.solve(b_a.T).T / (scale if exact else float(scale))
            np.add.at(b, corners[active], np.einsum("mi,ji->mj", b_a, cell.harmonic))
            particular.append((cell, active, z))
        u = np.zeros_like(b)
        scale = self.corner_scale if exact else float(self.corner_scale)
        _, q1, q2 = self.graph.boundary
        u[q1] = (2 * b[q1] + b[q2]) / (3 * scale)
        u[q2] = (b[q1] + 2 * b[q2]) / (3 * scale)
        for (interior, corners, _, _), (cell, active, z) in zip(reversed(self.levels),
                                                                reversed(particular)):
            u_i = np.einsum("mj,ji->mi", u[corners], cell.harmonic)
            u_i[active] += z
            u[interior] = u_i
        return u

    def residual(self, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """b - L u off the ground, with L u = B^T (B u) from the edge form."""
        r = b - self.incidence.T @ (self.incidence @ u)
        r[self.ground] = 0.0
        return r

    def potential(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """The float source b = e_x - e_y off the ground and the potential u
        with L u = b there, after one refinement pass; SolveError if
        u[x] < u[y]."""
        b = self._source(x, y, 1.0)
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
