from fractions import Fraction

import numpy as np
import pytest

from scipy import sparse

from thin_gasket import linalg
from thin_gasket.errors import SolveError
from thin_gasket.geometry import build_graph
from thin_gasket.sequence import LevelSequence


def _sparse_system(seed, n, m, rational):
    """A nonsingular sparse system whose first row has no entry in column 0,
    so elimination must swap rows: a strictly diagonally dominant integer
    matrix with rows permuted, its columns scaled by random Fractions when
    `rational`, and random right-hand sides."""
    rng = np.random.default_rng(seed)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in rng.choice(n, size=2, replace=False):
            a[i][int(j)] = int(rng.integers(-4, 5))
        a[i][i] = 0
        a[i][i] = sum(abs(x) for x in a[i]) + int(rng.integers(1, 4))
    a = [a[int(i)] for i in rng.permutation(n)]
    top = next(i for i in range(n) if a[i][0] == 0)
    a[0], a[top] = a[top], a[0]
    if rational:
        scale = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(n)]
        a = [[x * s for x, s in zip(row, scale)] for row in a]
        b = [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(m)]
             for _ in range(n)]
    else:
        b = [[int(rng.integers(-9, 10)) for _ in range(m)] for _ in range(n)]
    return a, b


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "fraction"])
@pytest.mark.parametrize("seed", range(6))
def test_rational_solve_satisfies_the_system_exactly(seed, rational):
    n, m = 6 + 3 * seed, 1 + seed % 3
    a, b = _sparse_system(seed, n, m, rational)
    assert a[0][0] == 0
    x = linalg.rational_solve(a, b)
    assert len(x) == n and all(len(row) == m for row in x)
    assert all(type(v) is Fraction for row in x for v in row)
    for i in range(n):
        for k in range(m):
            assert sum(a[i][j] * x[j][k] for j in range(n)) == b[i][k]


def test_rational_solve_refuses_a_singular_system():
    with pytest.raises(SolveError, match="singular"):
        linalg.rational_solve([[1, 2], [2, 4]], [[1], [2]])
    a, b = _sparse_system(3, 9, 2, True)
    a[4] = [x + y for x, y in zip(a[1], a[7])]  # a dependent row
    with pytest.raises(SolveError, match="singular"):
        linalg.rational_solve(a, b)
    a[4] = [0] * 9  # an empty row
    with pytest.raises(SolveError, match="singular"):
        linalg.rational_solve(a, b)


def test_rational_solve_keeps_its_size_limit():
    n = linalg.RATIONAL_SIZE_LIMIT + 1
    with pytest.raises(SolveError):
        linalg.rational_solve([[0] * n for _ in range(n)], [[0]] * n)


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_inconsistent_singular_system_is_refused(method):
    """Two disjoint copies of the (5,) depth-1 graph, the corners of the
    first pinned and a unit injection on the second: the second block is a
    free Laplacian, singular, and its source does not sum to zero, so there
    is no solution.  Both routes end in SolveError from the final residual
    check (preconditioned cg reports convergence here), not in a number."""
    g = build_graph(LevelSequence((5,)), 1)
    v = g.n_vertices
    lap = linalg.laplacian(sparse.block_diag([g.adjacency, g.adjacency]).tocsr())
    injection = np.zeros(2 * v)
    injection[v + 3] = 1.0
    with pytest.raises(SolveError, match="above tolerance") as err:
        linalg.pinned_solve(lap, g.boundary, np.zeros(3), injection=injection, method=method)
    assert err.value.residual > 1e-9


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_exactly_singular_reduced_matrix_is_refused(method):
    """A 3-vertex path plus an isolated vertex, pinned at vertex 0: the
    isolated vertex leaves a zero row in the reduced matrix, where the sparse
    LU and the incomplete LU stop with scipy's RuntimeError."""
    adj = sparse.csr_matrix(np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0],
                                      [0, 0, 0, 0]], dtype=np.float64))
    with pytest.raises(SolveError, match="exactly singular") as err:
        linalg.pinned_solve(linalg.laplacian(adj), [0], np.ones(1), method=method)
    assert err.value.residual is None
