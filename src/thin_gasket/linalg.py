"""General solvers and the oracles of the closed forms, in one module.

Only acceptance, the tests and the benchmark import this module, and it
alone imports scipy at load time.  Its oracle routes: matrix_stack_by_elimination (a
rational pinned solve on the depth-1 graph) checks forms.matrix_stack_exact
in criterion 2; cell_values_from_graph (a pinned solve on the depth-d
graph) checks the cell cascade in criterion 6; one_subdivision_trace, the
exact trace of one l-subdivision onto its corners with the depth-1 vertices
in reverse Cuthill-McKee order, checks r_l in criterion 1, and folded level
by level (corner_trace, corner_resistance_by_reduction) checks the corner
resistance 2/3 in criterion 3; the fold is exact only.

The rational solver is fraction-free Gaussian elimination: each row is
scaled to integers by the lcm of its denominators, rows are combined in
integers kept primitive (divided by the gcd of their entries), and Fractions
appear only in the back-substitution.  Unknowns go in index order, so a
caller that wants little fill-in numbers them first.  schur_complement is
the kept rows of the Laplacian applied to exact harmonic extensions of unit
pins, an object array of Fractions.  RATIONAL_SIZE_LIMIT refuses, with a
SolveError, graphs of more than 400 vertices and systems of more than 400
unknowns: dense elimination grows with the size cubed times the cost of
ever longer integers.

The float solver, pinned_solve, is a sparse LU with at most MAX_REFINE
refinement rounds, or (method="cg") conjugate gradients preconditioned with
one symmetric-mode incomplete LU of the reduced system, both to the
relative residual SOLVE_RTOL.  The condition number grows like T_n, so
Jacobi needed about sqrt(T_n) iterations (1,712 on (5,) at depth 4); the
incomplete LU needs 5 there and 7 or 8 at depth 5, and the true residual of
the unpreconditioned system certifies cg's answer.  It is the float oracle
of the cell cascade and of the float resistance solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as spla

from .errors import SolveError
from .forms import TRIANGLE_FORM, _depth_one_graph, over_common_denominator
from .geometry import build_graph
from .resistance import corner_resistance
from .sequence import LevelSequence

#: Vertices and unknowns a dense exact oracle solve accepts.
RATIONAL_SIZE_LIMIT = 400

#: Relative residual pinned_solve aims for; it refuses a final one above 1e-9.
SOLVE_RTOL = 1e-12

#: Refinement rounds of pinned_solve's direct route.
MAX_REFINE = 4


def _integer_row(row) -> dict:
    """The nonzero entries of a row of rationals, keyed by column, scaled to
    integers by the lcm of their denominators and divided by their gcd."""
    nz = {j: x if isinstance(x, (int, Fraction)) else Fraction(x)
          for j, x in enumerate(row) if x}
    nums, _ = over_common_denominator(nz.values())
    c = math.gcd(*nums) or 1
    return {j: x // c for j, x in zip(nz, nums)}


def rational_solve(a, b):
    """Solve A x = B exactly.

    a: list of rows (each a list of Fraction/int), square.
    b: list of rows, each a list (multiple right-hand sides allowed).
    Returns the solution as a list of rows of Fractions.  Fraction-free
    Gaussian elimination on the integer-scaled rows of [A | B], then
    back-substitution in Fractions on the solution only.  Rows are kept as
    their nonzero entries, so a sparse Laplacian costs far less than n^3.
    """
    n = len(a)
    if n > RATIONAL_SIZE_LIMIT:
        raise SolveError(f"rational solve limited to {RATIONAL_SIZE_LIMIT} unknowns, got {n}")
    m = len(b[0]) if n else 0
    rows = [_integer_row(list(row_a) + list(row_b)) for row_a, row_b in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in rows[r]), None)
        if piv is None:
            raise SolveError("singular rational system")
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        tail = [(j, x) for j, x in rows[col].items() if j != col]
        for r in range(col + 1, n):
            row = rows[r]
            f = row.pop(col, 0)
            if not f:
                continue
            # row <- (p row - f prow) / g: the pivot column cancels
            g = math.gcd(p, f)
            pg, fg = p // g, f // g
            if pg != 1:
                for j in row:
                    row[j] *= pg
            for j, x in tail:
                y = row.get(j, 0) - fg * x
                if y:
                    row[j] = y
                else:
                    del row[j]
            c = math.gcd(*row.values())
            if c > 1:
                for j in row:
                    row[j] //= c
    x = [None] * n
    for col in range(n - 1, -1, -1):
        row = rows[col]
        upper = [(j, v) for j, v in row.items() if col < j < n]
        sol = []
        for k in range(m):
            # sum the row in integers over the solved entries' common denominator
            nums, den = over_common_denominator([x[j][k] for j, _ in upper])
            s = row.get(n + k, 0) * den - sum(v * t for (_, v), t in zip(upper, nums))
            sol.append(Fraction(s, row[col] * den))
        x[col] = sol
    return x


def laplacian(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sparse.diags(deg, dtype=np.float64) - adjacency).tocsr()


def pinned_solve(lap: sparse.csr_matrix, pinned: np.ndarray, pin_values: np.ndarray,
                 injection: np.ndarray | None = None, method: str = "direct"):
    """Solve the Dirichlet problem L u = injection with u fixed on `pinned`.

    pin_values has shape (P,) or (P, K); injection, when given, is a full
    (V,) or (V, K) source vector (its pinned entries are ignored).  Returns
    the full solution array of shape (V,) or (V, K) along with the final
    relative residual of the reduced system.

    method="direct" is a sparse LU with at most MAX_REFINE refinement
    rounds; method="cg" runs conjugate gradients on each right-hand side,
    preconditioned by one symmetric-mode incomplete LU (spilu) shared by all
    of them.  Both raise SolveError when the true relative residual of the
    answer is above 1e-9, as it is for an inconsistent singular system, and
    cg also when it does not converge, and, with no residual, when the
    factorization finds the reduced matrix exactly singular.
    """
    v = lap.shape[0]
    pinned = np.asarray(pinned, dtype=np.int64)
    pin_values = np.asarray(pin_values, dtype=np.float64)
    single = pin_values.ndim == 1
    if single:
        pin_values = pin_values[:, None]
    k = pin_values.shape[1]

    mask = np.ones(v, dtype=bool)
    mask[pinned] = False
    free = np.flatnonzero(mask)
    lap_csc = lap.tocsc()
    a = lap_csc[free][:, free].tocsc()
    b = -lap_csc[free][:, pinned] @ pin_values
    if injection is not None:
        inj = np.asarray(injection, dtype=np.float64)
        if inj.ndim == 1:
            inj = inj[:, None]
        b = b + inj[free]

    bnorm = np.linalg.norm(b, axis=0)
    bnorm[bnorm == 0] = 1.0

    if method == "direct":
        try:
            lu = spla.splu(a)
        except RuntimeError:  # "Factor is exactly singular"
            raise SolveError("pinned solve: the reduced matrix is exactly singular") from None
        x = lu.solve(b)
        # the residual of each iterate, the returned one included, once
        for refined in range(MAX_REFINE + 1):
            r = b - a @ x
            res = np.linalg.norm(r, axis=0) / bnorm
            if refined == MAX_REFINE or np.all(res <= SOLVE_RTOL):
                break
            x = x + lu.solve(r)
        res = float(np.max(res))
    elif method == "cg":
        # one symmetric-mode incomplete LU for all K right-hand sides
        try:
            ilu = spla.spilu(a, diag_pivot_thresh=0.0, permc_spec="MMD_AT_PLUS_A",
                             options=dict(SymmetricMode=True))
        except RuntimeError:  # "matrix is singular"
            raise SolveError("pinned solve: the reduced matrix is exactly singular") from None
        precond = spla.LinearOperator(a.shape, matvec=ilu.solve)
        x = np.empty_like(b)
        worst = 0.0
        for j in range(k):
            xj, info = spla.cg(a, b[:, j], rtol=SOLVE_RTOL, atol=0.0, M=precond,
                               maxiter=20 * a.shape[0])
            if info != 0:
                rj = float(np.linalg.norm(b[:, j] - a @ xj) / bnorm[j])
                raise SolveError(f"cg failed to converge (info={info})", residual=rj)
            x[:, j] = xj
            worst = max(worst, float(np.linalg.norm(b[:, j] - a @ xj) / bnorm[j]))
        res = worst
    else:
        raise ValueError(f"unknown solve method {method!r}")

    if res > 1e-9:
        raise SolveError(f"pinned solve residual {res:.3e} above tolerance", residual=res)

    out = np.empty((v, k), dtype=np.float64)
    out[pinned] = pin_values
    out[free] = x
    if single:
        return out[:, 0], res
    return out, res


def rational_pinned_solve(lap_dense, pinned, pin_values):
    """Exact Dirichlet solve on a dense rational Laplacian.

    lap_dense: rows of Fractions or ints; pin_values: list of rows (P x K).
    Returns full V x K nested list of Fractions.
    """
    lap = [list(row) for row in lap_dense]
    v = len(lap)
    pinned = list(pinned)
    pinned_set = set(pinned)
    free = [i for i in range(v) if i not in pinned_set]
    k = len(pin_values[0])
    a = [[lap[i][j] for j in free] for i in free]
    b = []
    for i in free:
        links = [(lap[i][pj], pv) for pj, pv in zip(pinned, pin_values) if lap[i][pj]]
        b.append([-sum(w * pv[col] for w, pv in links) for col in range(k)])
    x = rational_solve(a, b) if free else []
    out = [[Fraction(0)] * k for _ in range(v)]
    for pj, pv in zip(pinned, pin_values):
        out[pj] = [Fraction(val) for val in pv]
    for fi, row in zip(free, x):
        out[fi] = row
    return out


def dense_rational_laplacian(adjacency: sparse.csr_matrix):
    """Adjacency to a dense Fraction Laplacian (small graphs only)."""
    v = adjacency.shape[0]
    if v > RATIONAL_SIZE_LIMIT:
        raise SolveError(f"rational Laplacian limited to {RATIONAL_SIZE_LIMIT} vertices")
    coo = adjacency.tocoo()
    lap = [[Fraction(0)] * v for _ in range(v)]
    for i, j in zip(coo.row, coo.col):
        i, j = int(i), int(j)
        lap[i][j] -= 1
        lap[i][i] += 1
    return lap


def schur_complement(lap_dense, keep):
    """Exact Schur complement of a Laplacian onto the kept indices.

    Column c holds the kept rows of L applied to the harmonic extension of
    the unit pin on keep[c] (rational_pinned_solve); returns a numpy object
    array of Fractions.
    """
    keep = list(keep)
    units = [[Fraction(int(i == j)) for j in keep] for i in keep]
    ext = np.array(rational_pinned_solve(lap_dense, keep, units), dtype=object)
    kept = np.array([list(lap_dense[i]) for i in keep], dtype=object)
    links = kept.any(axis=0)  # the columns the kept rows touch
    return kept[:, links] @ ext[links]


# ---- Oracle routes -------------------------------------------------------


def matrix_stack_by_elimination(l: int):
    """The level-l matrices read off a rational pinned solve of the three
    corner-basis pins on the depth-1 graph, in boundary_cells(l) order.
    O(l^3); the oracle of forms.matrix_stack_exact, not a production route."""
    g = _depth_one_graph(l)
    units = [[Fraction(int(j == k)) for k in range(3)] for j in range(3)]
    values = rational_pinned_solve(dense_rational_laplacian(g.adjacency),
                                   [int(v) for v in g.boundary], units)
    return tuple(tuple(tuple(values[int(v)]) for v in cell) for cell in g.cells)


def cell_values_from_graph(h, d: int):
    """Corner values of the depth-d cells of the HarmonicSpec h read off a
    pinned Laplacian solve on the depth-d graph: dense fraction-free
    elimination in rational precision (refused past RATIONAL_SIZE_LIMIT
    vertices), a sparse LU in float.  The cell cascade's independent oracle,
    for tests and acceptance; no production route calls it."""
    g = build_graph(h.ls, d)
    if h.precision == "rational":
        full = rational_pinned_solve(dense_rational_laplacian(g.adjacency),
                                     [int(p) for p in g.boundary], [[v] for v in h.pin])
        values = np.array(full, dtype=object)[:, 0]
    else:
        values, _ = pinned_solve(laplacian(g.adjacency), g.boundary, np.array(h.pin))
    return values[g.cells]


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
    return schur_complement(lap, [int(pos[v]) for v in g.boundary])


def corner_trace(ls: LevelSequence, n: int):
    """Exact trace of the unit-conductance depth-n network onto (q0, q1, q2),
    an object array of Fractions, by folding one-subdivision networks level
    by level: valid because all cells at one depth are translates of a
    single model cell."""
    trace = np.array([[Fraction(t) for t in row] for row in TRIANGLE_FORM], dtype=object)
    for k in range(n, 0, -1):
        trace = one_subdivision_trace(ls.level(k), trace)
    return trace


def corner_resistance_by_reduction(ls: LevelSequence, n: int, j: int = 0, k: int = 1):
    """R_n(q_j, q_k), a Fraction, from the folded corner trace: the oracle of
    resistance.corner_resistance's closed form.  It refuses the arguments
    that corner_resistance refuses."""
    corner_resistance(ls, n, j, k)
    t = corner_trace(ls, n)
    m = 3 - j - k
    # conductances -t on a triangle: the edge jk in parallel with jm, mk in series
    return ls.R(n) / (-t[j][k] + t[j][m] * t[k][m] / (-t[j][m] - t[k][m]))
