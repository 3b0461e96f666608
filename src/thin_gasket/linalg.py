"""Linear-algebra backends: exact rational elimination and sparse solves.

Two solver paths serve the whole package.  The rational path does dense
Gaussian elimination over Fraction entries and is reserved for small systems
(golden values, one-subdivision solves).  The float path assembles sparse
graph Laplacians and solves pinned systems either by direct LU with a few
rounds of iterative refinement (default) or by Jacobi-preconditioned
conjugate gradients (method="cg", tolerance configurable).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import linalg as spla

from .errors import SolveError

RATIONAL_SIZE_LIMIT = 2500


def rational_solve(a, b):
    """Solve A x = B exactly over Fractions.

    a: list of rows (each a list of Fraction/int), square.
    b: list of rows, each a list (multiple right-hand sides allowed).
    Returns the solution as a list of rows of Fractions.
    """
    n = len(a)
    if n > RATIONAL_SIZE_LIMIT:
        raise SolveError(f"rational solve limited to {RATIONAL_SIZE_LIMIT} unknowns, got {n}")
    m = len(b[0]) if n else 0
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(a, b)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise SolveError("singular rational system")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        inv = 1 / prow[col]
        for j in range(col, n + m):
            prow[j] *= inv
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                row = aug[r]
                for j in range(col, n + m):
                    row[j] -= f * prow[j]
    return [row[n:] for row in aug]


def laplacian(adjacency: sparse.csr_matrix) -> sparse.csr_matrix:
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    return (sparse.diags(deg, dtype=np.float64) - adjacency).tocsr()


def pinned_solve(lap: sparse.csr_matrix, pinned: np.ndarray, pin_values: np.ndarray,
                 injection: np.ndarray | None = None, method: str = "direct",
                 rtol: float = 1e-12, max_refine: int = 4):
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

    free = np.setdiff1d(np.arange(v, dtype=np.int64), pinned)
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
        for _ in range(max_refine):
            r = b - a @ x
            res = np.linalg.norm(r, axis=0) / bnorm
            if np.all(res <= rtol):
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
            xj, info = spla.cg(a, b[:, j], rtol=rtol, atol=0.0, M=precond,
                               maxiter=20 * a.shape[0])
            if info != 0:
                rj = float(np.linalg.norm(b[:, j] - a @ xj) / bnorm[j])
                raise SolveError(f"cg failed to converge (info={info})", residual=rj)
            x[:, j] = xj
            worst = max(worst, float(np.linalg.norm(b[:, j] - a @ xj) / bnorm[j]))
        res = worst
    else:
        raise ValueError(f"unknown solve method {method!r}")

    if res > max(rtol * 100, 1e-9):
        raise SolveError(f"pinned solve residual {res:.3e} above tolerance", residual=res)

    out = np.empty((v, k), dtype=np.float64)
    out[pinned] = pin_values
    out[free] = x
    if single:
        return out[:, 0], res
    return out, res


def rational_pinned_solve(lap_dense, pinned, pin_values):
    """Exact Dirichlet solve on a dense Fraction Laplacian.

    lap_dense: list of rows of Fractions; pin_values: list of rows (P x K).
    Returns full V x K nested list of Fractions.
    """
    v = len(lap_dense)
    pinned = list(pinned)
    pinned_set = set(pinned)
    free = [i for i in range(v) if i not in pinned_set]
    k = len(pin_values[0])
    a = [[lap_dense[i][j] for j in free] for i in free]
    b = []
    for i in free:
        row = []
        for col in range(k):
            s = Fraction(0)
            for pj, pv in zip(pinned, pin_values):
                s -= lap_dense[i][pj] * pv[col]
            row.append(s)
        b.append(row)
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
    """Exact Schur complement of a Fraction matrix onto the kept indices."""
    v = len(lap_dense)
    keep = list(keep)
    keep_set = set(keep)
    drop = [i for i in range(v) if i not in keep_set]
    if not drop:
        return [[Fraction(lap_dense[i][j]) for j in keep] for i in keep]
    a = [[lap_dense[i][j] for j in drop] for i in drop]
    b = [[lap_dense[i][j] for j in keep] for i in drop]
    x = rational_solve(a, b)  # A^{-1} B
    out = []
    for i in keep:
        row = []
        for cj, j in enumerate(keep):
            s = Fraction(lap_dense[i][j])
            for di, d in enumerate(drop):
                s -= lap_dense[i][d] * x[di][cj]
            row.append(s)
        out.append(row)
    return out


def schur_complement_float(lap: np.ndarray, keep) -> np.ndarray:
    """Float Schur complement onto kept indices (dense numpy)."""
    v = lap.shape[0]
    keep = np.asarray(keep, dtype=np.int64)
    mask = np.zeros(v, dtype=bool)
    mask[keep] = True
    drop = np.where(~mask)[0]
    if drop.size == 0:
        return lap[np.ix_(keep, keep)].copy()
    a = lap[np.ix_(drop, drop)]
    b = lap[np.ix_(drop, keep)]
    lu = lu_factor(a)
    x = lu_solve(lu, b)
    # two refinement passes keep folded traces near machine precision
    for _ in range(2):
        x += lu_solve(lu, b - a @ x)
    return lap[np.ix_(keep, keep)] - lap[np.ix_(keep, drop)] @ x
