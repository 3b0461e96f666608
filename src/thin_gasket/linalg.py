"""Linear-algebra backends: dense exact rational elimination and sparse
float solves.

Every solve here is an oracle: harmonic extension runs the cell cascade of
forms, and exact resistances run their own elimination in resistance.  The
rational path is fraction-free Gaussian elimination for small systems: the
graph oracle of exact harmonic extension (HarmonicSpec.cell_values_from_graph)
and the one-subdivision oracles of forms.  It scales each row of the system
to integers by the lcm of its denominators, eliminates by integer row
combinations kept primitive (each updated row divided by the gcd of its
entries), and builds Fractions only in the back-substitution of the
solution.  It eliminates the unknowns in index order, so a caller that
wants little fill-in numbers them first (forms orders the depth-1 ring by
reverse Cuthill-McKee).  Its Schur complement is the kept rows of the
Laplacian applied to exact harmonic extensions of unit pins, returned as a
numpy object array of Fractions.  It is the one-subdivision trace of forms,
whose fold checks the closed-form corner resistance, and the test oracle of
the exact resistance elimination; there is no float Schur complement.
RATIONAL_SIZE_LIMIT guards these oracles only: graphs of more than 400
vertices and systems of more than 400 unknowns are refused with a
SolveError, since the cost of dense elimination grows with the size cubed
times the cost of ever longer integers.  The float path assembles sparse
graph Laplacians and solves pinned systems either by direct LU with at most
MAX_REFINE rounds of iterative refinement (default) or by
Jacobi-preconditioned conjugate gradients (method="cg"), both to the
relative residual SOLVE_RTOL.  pinned_solve is the float oracle of the cell
cascade (cell_values_from_graph, extension_ratio_check) and of the float
resistance solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import SolveError

#: Vertices and unknowns a dense exact oracle solve accepts.
RATIONAL_SIZE_LIMIT = 400

#: Relative residual pinned_solve aims for; it refuses a final one above 1e-9.
SOLVE_RTOL = 1e-12

#: Refinement rounds of pinned_solve's direct route.
MAX_REFINE = 4


def over_common_denominator(values):
    """Ints and Fractions (any re-iterable collection) as (numerators, den):
    Python ints over the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


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
        lu = spla.splu(a)
        x = lu.solve(b)
        for _ in range(MAX_REFINE):
            r = b - a @ x
            res = np.linalg.norm(r, axis=0) / bnorm
            if np.all(res <= SOLVE_RTOL):
                break
            x = x + lu.solve(r)
        r = b - a @ x
        res = float(np.max(np.linalg.norm(r, axis=0) / bnorm))
    elif method == "cg":
        d = a.diagonal()
        precond = sparse.diags(1.0 / d)
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
