import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thin_gasket import linalg
from thin_gasket.errors import DomainError, SequenceError
from thin_gasket.forms import TRIANGLE_FORM, _depth_one_graph
from thin_gasket.geometry import build_graph
from thin_gasket.linalg import (corner_resistance_by_reduction, corner_trace,
                                one_subdivision_trace)
from thin_gasket.resistance import (ResistanceSolver, _exact_model_cell, _model_cell,
                                    corner_resistance, effective_resistance)
from thin_gasket.sequence import LevelSequence, resistance_ratio

TRIANGLE = [[Fraction(2), Fraction(-1), Fraction(-1)],
            [Fraction(-1), Fraction(2), Fraction(-1)],
            [Fraction(-1), Fraction(-1), Fraction(2)]]


def test_corner_resistance_invariant_exact(ls5):
    for depth in range(4):
        res = corner_resistance(ls5, depth, precision="rational")
        assert res.exact
        assert res.value == Fraction(2, 3)


def test_corner_resistance_all_pairs(ls576):
    for j, k in ((0, 1), (0, 2), (1, 2)):
        res = corner_resistance(ls576, 2, j, k, precision="rational")
        assert res.value == Fraction(2, 3)
        assert (res.x, res.y) == (j, k)


def test_corner_trace_is_scaled_triangle(ls576):
    for depth in range(3):
        r = ls576.R(depth)
        trace = corner_trace(ls576, depth)
        for j in range(3):
            for k in range(3):
                assert trace[j][k] == r * TRIANGLE[j][k]


def test_float_fold_accuracy_small_levels(ls5):
    for depth in range(4):
        res = corner_resistance(ls5, depth, precision="float")
        assert abs(res.value - 2 / 3) < 1e-12


def test_float_fold_accuracy_large_levels():
    ls = LevelSequence((9, 58), continuation="repeat-last")
    for depth in range(4):
        res = corner_resistance(ls, depth, precision="float")
        assert abs(res.value - 2 / 3) < 1e-12


def test_ring_reduce_renormalizes_triangle():
    # one fold of the scaled triangle reproduces the scaling by r_l
    from thin_gasket.sequence import resistance_ratio
    for l in (5, 8):
        folded = one_subdivision_trace(l, TRIANGLE)
        r = resistance_ratio(l)
        for j in range(3):
            for k in range(3):
                assert folded[j][k] == r * TRIANGLE[j][k]


def test_reduction_oracle_matches_closed_form():
    pairs = ((0, 1), (0, 2), (1, 2))
    for entries in ((5, 5, 5, 5), (5, 7, 6, 12)):
        ls = LevelSequence(entries)
        for depth in range(4):
            for j, k in pairs:
                closed = corner_resistance(ls, depth, j, k).value
                assert corner_resistance_by_reduction(ls, depth, j, k) == closed
    for entries in ((5,), (9, 58)):
        ls = LevelSequence(entries, continuation="repeat-last")
        for depth in range(4):
            fold = corner_resistance_by_reduction(ls, depth)
            assert type(fold) is Fraction and fold == Fraction(2, 3)
    # the closed form is O(1) in depth and level size
    t0 = time.perf_counter()
    assert corner_resistance(LevelSequence((9, 58, 3001)), 3).value == Fraction(2, 3)
    deep = LevelSequence((5,), continuation="repeat-last")
    assert corner_resistance(deep, 10**6).value == Fraction(2, 3)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(SequenceError):
        corner_resistance(LevelSequence((5, 7)), 3)
    with pytest.raises(DomainError):
        corner_resistance(deep, -1)


def _pinned_unit_resistance(g, x, y, method):
    """u[x] - u[y] for a unit current from x to y, grounded at y, by the
    pinned_solve oracle."""
    injection = np.zeros(g.n_vertices)
    injection[x] = 1.0
    u, _ = linalg.pinned_solve(linalg.laplacian(g.adjacency), np.array([y]),
                               np.array([0.0]), injection=injection, method=method)
    return float(u[x] - u[y])


def test_effective_resistance_methods_agree(ls5):
    g = build_graph(ls5, 1)
    x, y = int(g.corner_id(0)), int(g.corner_id(1))
    exact = effective_resistance(ls5, 1, x, y, graph=g, precision="rational")
    elim = effective_resistance(ls5, 1, x, y, graph=g)
    cg = float(ls5.R(1)) * _pinned_unit_resistance(g, x, y, "cg")
    assert exact.exact and exact.value == Fraction(2, 3)
    assert elim.method == "elimination" and not elim.exact
    assert elim.residual <= 1e-10
    assert float(elim) == pytest.approx(float(exact), rel=1e-10)
    assert cg == pytest.approx(float(exact), rel=1e-8)


def test_effective_resistance_symmetry_and_identity(ls5):
    g = build_graph(ls5, 1)
    a = effective_resistance(ls5, 1, 3, 11, graph=g)
    b = effective_resistance(ls5, 1, 11, 3, graph=g)
    assert float(a) == pytest.approx(float(b), rel=1e-12)
    same = effective_resistance(ls5, 1, 3, 3, graph=g)
    assert float(same) == 0.0
    with pytest.raises(DomainError):
        effective_resistance(ls5, 1, 3, g.n_vertices, graph=g)
    with pytest.raises(DomainError):
        effective_resistance(ls5, 1, -1, 3, graph=g, precision="rational")


def test_resistance_is_a_metric_on_samples(ls5):
    g = build_graph(ls5, 1)
    solver = ResistanceSolver(g)
    scale = ls5.R(1)
    ids = [int(g.corner_id(0)), 5, 9, int(g.corner_id(2))]
    r = {}
    for x in ids:
        for y in ids:
            if x < y:
                r[x, y] = solver.unit_resistance(x, y) * float(scale)
    for x in ids:
        for y in ids:
            for z in ids:
                if x < y and y < z:
                    assert r[x, z] <= r[x, y] + r[y, z] + 1e-10
                    assert r[x, y] >= 0


def test_solver_matches_direct(ls5):
    g = build_graph(ls5, 2)
    solver = ResistanceSolver(g)
    for x, y in [(0, 7), (3, 40)]:
        ref = _pinned_unit_resistance(g, x, y, "direct")
        assert solver.unit_resistance(x, y) == pytest.approx(ref, rel=1e-9)
        got = effective_resistance(ls5, 2, x, y, graph=g)
        assert float(got) == pytest.approx(float(ls5.R(2)) * ref, rel=1e-9)


# ---- Cell-by-cell elimination --------------------------------------------


def _sample_pairs(g, count, seed):
    """The three corner pairs, then seeded vertex pairs with x != y."""
    rng = np.random.default_rng(seed)
    c = [int(g.corner_id(j)) for j in range(3)]
    pairs = [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]
    while len(pairs) < count:
        x, y = (int(v) for v in rng.integers(0, g.n_vertices, 2))
        if x != y:
            pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("entries,depth", [
    *(((5,), d) for d in range(6)),
    ((5, 7, 6, 12), 3),
    ((9, 58), 2),
    ((3001,), 1),
])
def test_solver_matches_sparse_lu(entries, depth):
    # oracle: one sparse-LU pinned solve grounded at the last vertex, with a
    # zero-sum injection e_x - e_y per pair, so u[x] - u[y] = R_unit(x, y)
    g = build_graph(LevelSequence(entries, continuation="repeat-last"), depth)
    pairs = _sample_pairs(g, 12, seed=depth)
    injection = np.zeros((g.n_vertices, len(pairs)))
    for j, (x, y) in enumerate(pairs):
        injection[x, j] += 1.0
        injection[y, j] -= 1.0
    ground = g.n_vertices - 1
    u, _ = linalg.pinned_solve(linalg.laplacian(g.adjacency), np.array([ground]),
                               np.zeros((1, len(pairs))), injection=injection,
                               method="direct")
    solver = ResistanceSolver(g)
    assert solver.free.size == g.n_vertices - 1
    for j, (x, y) in enumerate(pairs):
        assert solver.unit_resistance(x, y) == pytest.approx(u[x, j] - u[y, j], rel=1e-10)


def _dense_oracle(ls, depth, pairs):
    """R_n(x, y) per pair from the dense Fraction Schur complement: one
    elimination onto every vertex of the pairs, then the trace of that
    trace onto each pair (a trace of a trace is the trace)."""
    g = build_graph(ls, depth)
    keep = sorted({v for pair in pairs for v in pair})
    trace = linalg.schur_complement(linalg.dense_rational_laplacian(g.adjacency), keep)
    return [ls.R(depth) / linalg.schur_complement(trace, [keep.index(x), keep.index(y)])[0][0]
            for x, y in pairs]


@pytest.mark.parametrize("l", [5, 6])
def test_solver_matches_rational_resistance(l):
    ls = LevelSequence((l,))
    g = build_graph(ls, 1)
    solver = ResistanceSolver(g)
    scale = float(ls.R(1))
    pairs = _sample_pairs(g, 10, seed=l)
    for (x, y), exact in zip(pairs, _dense_oracle(ls, 1, pairs)):
        assert abs(scale * solver.unit_resistance(x, y) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("entries,depth", [((5,), 1), ((5, 5), 2), ((6, 5), 2)])
def test_exact_elimination_equals_dense_schur_complement(entries, depth):
    ls = LevelSequence(entries)
    g = build_graph(ls, depth)
    assert g.n_vertices <= linalg.RATIONAL_SIZE_LIMIT
    pairs = _sample_pairs(g, 8, seed=depth)
    for (x, y), oracle in zip(pairs, _dense_oracle(ls, depth, pairs)):
        res = effective_resistance(ls, depth, x, y, graph=g, precision="rational")
        assert type(res.value) is Fraction and res.value == oracle
        assert (res.method, res.exact, res.residual) == ("rational", True, 0.0)


@pytest.mark.parametrize("entries,depth", [((8,), 2), ((9, 58), 2)])
def test_exact_elimination_past_the_dense_limit(entries, depth):
    ls = LevelSequence(entries, continuation="repeat-last")
    g = build_graph(ls, depth)
    assert g.n_vertices > linalg.RATIONAL_SIZE_LIMIT
    for x, y in _sample_pairs(g, 5, seed=depth):
        exact = effective_resistance(ls, depth, x, y, graph=g, precision="rational").value
        approx = effective_resistance(ls, depth, x, y, graph=g).value
        assert type(exact) is Fraction
        assert abs(approx - exact) <= 1e-12 * exact


def test_solver_corner_pairs_at_depth_five(ls5):
    g = build_graph(ls5, 5)
    solver = ResistanceSolver(g)
    scale = float(ls5.R(5))
    for x, y in _sample_pairs(g, 3, seed=0):
        assert abs(scale * solver.unit_resistance(x, y) - 2 / 3) <= 1e-11


@pytest.mark.parametrize("l", [5, 6, 12, 58, 3001])
def test_model_cell_schur_complement_is_scaled_triangle(l):
    # the closed-form rows H_I are the harmonic extension: K_II H_I + K_IB = 0,
    # so the elimination leaves K_BB + K_BI H_I = r_l * TRIANGLE_FORM
    g = _depth_one_graph(l)
    model = _model_cell(l)
    assert model.interior.size == 6 * l - 12
    lap = linalg.laplacian(g.adjacency).tocsr()
    inner, corners = model.interior, g.boundary
    if l <= 12:
        k = lap.toarray().astype(np.int64).astype(object)
        h = _exact_model_cell(l).harmonic.T
        assert np.array_equal(k[np.ix_(inner, inner)] @ h + k[np.ix_(inner, corners)],
                              np.zeros((inner.size, 3), dtype=int))
        assert np.array_equal(k[np.ix_(corners, corners)] + k[np.ix_(corners, inner)] @ h,
                              np.array(TRIANGLE, dtype=object) * resistance_ratio(l))
    else:
        h = model.harmonic.T
        harmonic = lap[inner][:, inner] @ h + lap[inner][:, corners].toarray()
        schur = lap[corners][:, corners].toarray() + lap[corners][:, inner] @ h
        target = float(resistance_ratio(l)) * np.array(TRIANGLE_FORM, dtype=float)
        assert np.abs(harmonic).max() <= 1e-12
        assert np.abs(schur - target).max() <= 1e-12


def test_model_cell_of_a_long_level_stays_banded():
    # a dense K_II^-1 at l = 3001 would be 17,994^2 doubles, 2.6 GB
    _model_cell.cache_clear()
    g = build_graph(LevelSequence((3001,)), 1)
    tracemalloc.start()
    try:
        solver = ResistanceSolver(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert _model_cell(3001).chol.shape[0] <= 5
    assert abs(float(g.ls.R(1)) * solver.unit_resistance(0, g.n_vertices - 1) - 2 / 3) < 1e-11


def test_unit_resistance_refuses_ids_out_of_range(ls5):
    g = build_graph(ls5, 1)
    solver = ResistanceSolver(g)
    for x, y in ((-1, 5), (21, 5), (5, -1), (5, 21), (21, 21)):
        with pytest.raises(DomainError):
            solver.unit_resistance(x, y)
    # equal ids are range-checked before the x == y shortcut
    for precision in ("float", "rational"):
        with pytest.raises(DomainError):
            effective_resistance(ls5, 1, 999, 999, graph=g, precision=precision)


# ---- Address-local queries -----------------------------------------------


def test_refinement_reaches_the_exact_value_on_a_long_level():
    # one unrefined float pass is 1e-12 to 3.8e-12 off here, so this fails
    # if the local refinement is dropped or wrong
    ls = LevelSequence((3001,))
    g = build_graph(ls, 1)
    for x, y in _sample_pairs(g, 5, seed=3)[3:]:
        exact = effective_resistance(ls, 1, x, y, graph=g, precision="rational").value
        approx = effective_resistance(ls, 1, x, y, graph=g)
        assert abs(approx.value - exact) <= 1e-14 * exact


def test_query_memory_is_address_local(ls5):
    # one float64 array over the V = 407,181 vertices would be 3.3 MB
    g = build_graph(ls5, 5)
    solver = ResistanceSolver(g)
    x, y = _sample_pairs(g, 5, seed=5)[3:]
    solver.unit_resistance(*x)
    tracemalloc.start()
    try:
        value = solver.unit_resistance(*y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert value > 0


def test_exact_query_at_full_depth(ls5):
    g = build_graph(ls5, 5)
    x, y = _sample_pairs(g, 4, seed=5)[3]
    exact = effective_resistance(ls5, 5, x, y, graph=g, precision="rational")
    approx = effective_resistance(ls5, 5, x, y, graph=g)
    assert type(exact.value) is Fraction
    assert abs(approx.value - exact.value) <= 1e-12 * exact.value


def test_corner_routes_refuse_an_unknown_precision(ls5):
    with pytest.raises(DomainError):
        corner_resistance(ls5, 1, precision="exact")


def test_effective_resistance_refuses_an_unknown_precision(ls5):
    for x, y in ((3, 11), (3, 3)):
        with pytest.raises(DomainError):
            effective_resistance(ls5, 1, x, y, precision="exact")
