"""Effective resistance on approximation graphs.

R_n(x, y) = R_n * (unit-conductance effective resistance between x and y
on the depth-n graph).  One route serves both precisions: ResistanceSolver's
cell-by-cell elimination, in float64 with one refinement pass, or exactly
over Fractions; and corner pairs come from the closed form
R_n(q_j, q_k) = 2/3 at every depth, in O(1) with no solve.

Cells meet only at their corners and all cells at one depth are
translates of a single model cell, so V_{n-1} separates the depth-n graph
into identical pieces, and the network inside a depth-k cell traces onto
its corners as (R_n / R_k) * TRIANGLE_FORM.  A pair query expands only the
cells on the addresses of x and y, one chain of at most n cells per point
(a vertex new at depth j lies inside exactly one depth-(j-1) cell), and
keeps every other cell at every depth implicit as that exact trace.  On
this address-local network the solver eliminates the chains level by
level with one factor of the model cell's interior block per distinct
level, carries the sources to the corners and extends the potential back
along the chains with the closed-form harmonic matrices
(forms.matrix_stack), and solves the closed-form R_n * TRIANGLE_FORM
system left on the outer corners.  The float route's one refinement pass
takes its residual on the same local network.  A query does
O(sum_k |I_k|) work and holds no array over the graph's vertices; the size
of an exact query is bounded only by build_graph's corner budget.

The model cell's K_II, read off its own D - A, is factored once per level
by scipy's banded Cholesky, imported there, so corner pairs load no scipy.
The oracles live in linalg: pinned_solve and schur_complement check the
solver, and corner_resistance_by_reduction, the exact fold onto the
corners, the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolveError
from .forms import _depth_one_graph, check_precision, matrix_stack, matrix_stack_exact
from .geometry import CORNER_OFFSETS, ApproximationGraph, boundary_cells, build_graph
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
    check_precision(precision)
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


# ---- General pairs -------------------------------------------------------


def effective_resistance(ls: LevelSequence, n: int, x: int, y: int,
                         graph: ApproximationGraph | None = None,
                         precision: str = "float") -> ResistanceResult:
    """R_n(x, y) between vertex ids of the depth-n graph by ResistanceSolver:
    exact in rational precision; in float precision with the relative
    residual of its refined potential."""
    check_precision(precision)
    g = graph if graph is not None else build_graph(ls, n)
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("vertex id out of range")
    if x == y:
        zero = Fraction(0) if precision == "rational" else 0.0
        return ResistanceResult(zero, precision == "rational", "trivial", 0.0, x, y)
    solver = ResistanceSolver(g)
    if precision == "rational":
        net, _, u = solver._potential(x, y, Fraction(1))
        return ResistanceResult(ls.R(n) * (u[net.x] - u[net.y]), True, "rational", 0.0, x, y)
    net, b, u = solver._potential(x, y, 1.0)
    residual = float(np.linalg.norm(solver._residual(net, b, u)) / np.linalg.norm(b))
    return ResistanceResult(float(ls.R(n)) * float(u[net.x] - u[net.y]), False, "elimination",
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
        """K_II^-1 rhs for an (|I|, k) float array; LAPACK's banded solve
        called directly, as a query's few small solves are dominated by
        scipy's wrapper checks."""
        from scipy.linalg.lapack import dpbtrs
        return dpbtrs(self.chol, rhs)[0]


@lru_cache(maxsize=None)
def _model_cell(l: int) -> _ModelCell:
    """Banded Cholesky of one l-subdivision network's interior block, read
    off the network's D - A; no dense |I| x |I| array is formed
    (|I| = 6l - 12)."""
    from scipy import sparse
    from scipy.linalg import cholesky_banded
    from scipy.sparse import csgraph
    g = _depth_one_graph(l)
    lap = (sparse.diags(g.degrees, dtype=np.float64) - g.adjacency).tocsr()
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


class _Network(NamedTuple):
    """The address-local network of one pair, on local vertex ids.

    Local ids 0, 1, 2 are the outer corners q0, q1, q2, then come the
    interior vertices of the cells on the two addresses, level by level.
    levels: per level k with such cells, finest first, the (m, |I|)
    interior and (m, 3) corner local ids of its m <= 2 cells, l_k and c_k;
    triangles, conductance: the (t, 3) corner local ids of every cell left
    implicit, the children off the addresses of the cells on them, and the
    factor c_k of its trace c_k * TRIANGLE_FORM;
    x, y: the pair's local ids; n_vertices: the number of local ids.
    """

    levels: list
    triangles: np.ndarray
    conductance: np.ndarray
    x: int
    y: int
    n_vertices: int


class ResistanceSolver:
    """Unit-resistance queries on one graph by cell-by-cell elimination
    along the addresses of the pair.

    Depth-(k-1) cells meet only at their corners and are translates of one
    model l_k-subdivision network, so V_{k-1} cuts the vertices new at
    depth k into identical pieces, and the network inside any depth-k cell
    traces onto its corners as c_k * TRIANGLE_FORM, c_k = R_n / R_k.  A
    vertex new at depth j lies inside exactly one depth-(j-1) cell, so the
    source e_x - e_y touches only the cells on the addresses of x and y:
    one chain of at most n cells per point.  A query builds the network
    that keeps those cells expanded and every other cell at every depth
    implicit as its exact trace (the children off the addresses of the
    cells on them), which is the trace of the depth-n network onto the
    chain vertices; a query does O(sum_k |I_k|) work, not O(V).

    The solve eliminates the chain cells' interiors level by level, finest
    first: each gets its particular solution from one factor of the model
    cell's K_II per distinct level, and its source moves to its corners
    through the closed-form harmonic rows H_I.  What remains is
    R_n * TRIANGLE_FORM on the outer corners, grounded at q0 and solved in
    closed form; the back-substitution extends the potential along the
    chains through H_I and adds the particular solutions.  The source's
    dtype picks the arithmetic: float64 with the banded Cholesky factor and
    one refinement pass, whose residual b - L u on the chain vertices sums
    the conductance-weighted edge differences of the expanded cells'
    children (in exact arithmetic the full-graph residual of the potential
    that is harmonic inside every implicit cell); or Fractions with an
    exact banded L D L^T (exact, so no refinement).  free holds the
    non-ground vertex ids.
    """

    def __init__(self, g: ApproximationGraph):
        ls, n = g.ls, g.level
        self.graph = g
        mask = np.ones(g.n_vertices, dtype=bool)
        mask[g.boundary[0]] = False  # the ground q0
        self.free = np.flatnonzero(mask)
        self.corner_scale = ls.R(n)
        # per level k, coarsest first, in lattice units of the depth-n graph:
        # the side of a depth-(k-1) cell and of its children, l_k, c_k, the
        # model interior's offsets and the children's origins in the cell
        self._levels = []
        for k in range(1, n + 1):
            l, child = ls.level(k), g.L // ls.L(k)
            inner = _depth_one_graph(l).vertices[_model_cell(l).interior] * child
            letters = np.asarray(boundary_cells(l), dtype=np.int64) * child
            self._levels.append((g.L // ls.L(k - 1), child, l, ls.R(n) / ls.R(k),
                                 inner, letters))

    def _network(self, x: int, y: int) -> _Network:
        """The address-local network of the pair; DomainError unless both
        ids lie in [0, V)."""
        g = self.graph
        if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
            raise DomainError(f"vertex ids ({x}, {y}) outside [0, {g.n_vertices})")
        pts = g.vertices[[x, y]]
        # per level k, the origins of the depth-(k-1) cells on the addresses:
        # a point off the grid of depth-(k-1) corners lies in exactly one of
        # them, whose origin rounds the point down to that grid
        chains, coords = [], [g.L * CORNER_OFFSETS]
        for size, _, _, _, inner, _ in self._levels:
            o = pts[(pts % size).any(axis=1)] // size * size
            if len(o) == 2 and (o[0] == o[1]).all():
                o = o[:1]
            chains.append(o)
            coords.append((o[:, None, :] + inner).reshape(-1, 2))
        encode = np.array([g.L + 1, 1])
        codes = np.concatenate(coords) @ encode
        order = np.argsort(codes)

        def local(c):
            return order[np.searchsorted(codes[order], c @ encode)]

        levels, tris, conductance = [], [], []
        start = 3
        for k, (o, (size, child, l, scale, inner, letters)) in enumerate(
                zip(chains, self._levels), start=1):
            if not o.size:
                continue
            ids = np.arange(start, start + o.shape[0] * inner.shape[0]).reshape(o.shape[0], -1)
            start += ids.size
            levels.append((ids, local(o[:, None, :] + size * CORNER_OFFSETS), l, scale))
            kids = (o[:, None, :] + letters).reshape(-1, 2)
            if k < len(chains):  # the children on the addresses are expanded
                kids = kids[~(kids[:, None, :] == chains[k]).all(axis=2).any(axis=1)]
            tris.append(kids[:, None, :] + child * CORNER_OFFSETS)
            conductance.append(np.full(kids.shape[0], float(scale)))
        if not levels:
            # both points are outer corners: the root cell stays implicit
            tris.append(g.L * CORNER_OFFSETS[None])
            conductance.append(np.array([float(self.corner_scale)]))
        ends = local(pts)
        return _Network(levels[::-1], local(np.concatenate(tris)), np.concatenate(conductance),
                        int(ends[0]), int(ends[1]), start)

    def _eliminate(self, net: _Network, b: np.ndarray) -> np.ndarray:
        """u with L u = b off the ground and u = 0 at the ground on the
        local network: in float64, or exactly for an object array of
        Fractions."""
        exact = b.dtype == object
        b = b.copy()
        particular = []
        for inner, corners, l, scale in net.levels:
            cell = _exact_model_cell(l) if exact else _model_cell(l)
            b_i = b[inner]
            z = cell.solve(b_i.T).T / (scale if exact else float(scale))
            np.add.at(b, corners, np.einsum("mi,ji->mj", b_i, cell.harmonic))
            particular.append((inner, corners, cell, z))
        u = np.zeros_like(b)
        scale = self.corner_scale if exact else float(self.corner_scale)
        u[1] = (2 * b[1] + b[2]) / (3 * scale)
        u[2] = (b[1] + 2 * b[2]) / (3 * scale)
        for inner, corners, cell, z in reversed(particular):
            u[inner] = np.einsum("mj,ji->mi", u[corners], cell.harmonic) + z
        return u

    @staticmethod
    def _residual(net: _Network, b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """b - L u off the ground on the local network, with L u summed from
        conductance-weighted edge differences, free of the eps * deg * |u|
        cancellation of a matrix product."""
        t = u[net.triangles]
        d01, d02, d12 = t[:, 0] - t[:, 1], t[:, 0] - t[:, 2], t[:, 1] - t[:, 2]
        flow = net.conductance[:, None] * np.stack([d01 + d02, d12 - d01, -d02 - d12], axis=1)
        r = b - np.bincount(net.triangles.ravel(), flow.ravel(), minlength=b.size)
        r[0] = 0.0
        return r

    def _potential(self, x: int, y: int, one) -> tuple:
        """The local network, the source b = e_x - e_y off the ground in
        units of one and the potential u with L u = b there: exact for
        one = Fraction(1); in float64 for one = 1.0, after one refinement
        pass, with SolveError if u[x] < u[y]."""
        net = self._network(x, y)
        b = np.zeros(net.n_vertices, dtype=np.asarray(one).dtype)
        b[net.x] += one
        b[net.y] -= one
        b[0] = 0  # the ground q0
        u = self._eliminate(net, b)
        if b.dtype != object:
            u = u + self._eliminate(net, self._residual(net, b, u))
            if u[net.x] < u[net.y]:
                raise SolveError(f"negative resistance {u[net.x] - u[net.y]} "
                                 f"for pair ({x}, {y})")
        return net, b, u

    def unit_resistance(self, x: int, y: int) -> float:
        """u[x] - u[y] for a unit current from x to y; DomainError unless
        both ids lie in [0, V)."""
        net, _, u = self._potential(x, y, 1.0)
        return float(u[net.x] - u[net.y])
