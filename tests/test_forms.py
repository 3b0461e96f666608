import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket import forms, linalg
from thin_gasket.errors import BudgetError, DomainError
from thin_gasket.forms import (TRIANGLE_FORM, _depth_one_graph, base_energy,
                               cell_energies, extension_ratio_check,
                               harmonic_extend, harmonic_matrix, matrix_stack,
                               matrix_stack_by_elimination, matrix_stack_exact,
                               one_subdivision_trace)
from thin_gasket.geometry import boundary_cells, build_graph, interior_letters
from thin_gasket.sequence import LevelSequence, resistance_ratio

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=64)


def test_base_energy_golden():
    assert base_energy((Fraction(1), Fraction(0), Fraction(0))) == 2
    assert base_energy((1.0, 1.0, 1.0)) == 0.0


@given(rationals, rationals, rationals)
def test_base_energy_shift_invariant(a, b, c):
    s = Fraction(1, 3)
    assert base_energy((a + s, b + s, c + s)) == base_energy((a, b, c))
    assert base_energy((a, b, c)) >= 0


# ---- One-subdivision matrices --------------------------------------------


def test_matrix_stack_structure():
    for l in (5, 6, 8):
        stack = matrix_stack_exact(l)
        assert len(stack) == 3 * l - 3
        for mat in stack:
            for row in mat:
                assert sum(row, Fraction(0)) == 1
                assert all(x >= 0 for x in row)
                assert all((6 * l + 1) % x.denominator == 0 for x in row)


def test_golden_interior_matrix_level_5():
    m = harmonic_matrix(5, (2, 0))
    a = Fraction(1, 31)
    assert m.entries == (
        (16 * a, 10 * a, 5 * a),
        (10 * a, 16 * a, 5 * a),
        (13 * a, 13 * a, 5 * a),
    )


def test_interior_matrices_share_far_corner_weight():
    # every interior cell gives the far corner weight 5/(6l+1) in each row
    for l in (5, 7):
        a = Fraction(1, 6 * l + 1)
        for i in interior_letters(l):
            m = harmonic_matrix(l, i)
            far_col = 2 if i[1] == 0 else (1 if i[0] == 0 else 0)
            assert all(row[far_col] == 5 * a for row in m.entries)


def test_float_stack_matches_exact():
    # numerators / (6l+1) in float64 round exactly as float(Fraction) does
    for l in [*range(5, 61), 3001]:
        exact = np.array([[[float(x) for x in row] for row in m]
                          for m in matrix_stack_exact(l)])
        assert np.array_equal(matrix_stack(l), exact), l


def test_harmonic_matrix_rejects_non_letter():
    with pytest.raises(DomainError):
        harmonic_matrix(5, (1, 1))
    with pytest.raises(DomainError):
        harmonic_matrix(5, (2, 0, 0))


@pytest.mark.parametrize("l", [5, 6, 9, 14])
def test_harmonic_matrix_matches_the_stack(l):
    """The one-cell closed form answers exactly the cells of the stack, in
    boundary_cells order, and refuses every other index of the triangle."""
    cells = boundary_cells(l)
    assert [harmonic_matrix(l, i).entries for i in cells] == list(matrix_stack_exact(l))
    for i in itertools.product(range(-1, l + 1), repeat=2):
        if i not in cells:
            with pytest.raises(DomainError):
                harmonic_matrix(l, i)


@pytest.mark.parametrize("l", range(5, 17))
def test_closed_forms_equal_elimination(l):
    assert matrix_stack_exact(l) == matrix_stack_by_elimination(l)


# ---- Traces --------------------------------------------------------------


@pytest.mark.parametrize("l", [5, 6, 10])
def test_one_subdivision_trace_is_scaled_triangle(l):
    r = resistance_ratio(l)
    trace = one_subdivision_trace(l)
    for j in range(3):
        for k in range(3):
            expected = 2 * r if j == k else -r
            assert trace[j][k] == expected


# symmetric with zero row sums, and not a multiple of the triangle form
_SKEWED_FORM = ((Fraction(3), Fraction(-1), Fraction(-2)),
                (Fraction(-1), Fraction(5, 2), Fraction(-3, 2)),
                (Fraction(-2), Fraction(-3, 2), Fraction(7, 2)))


def _lexicographic_trace(l, trace):
    """The exact trace eliminated in the depth-1 graph's own vertex order."""
    g = _depth_one_graph(l)
    lap = np.zeros((g.n_vertices, g.n_vertices), dtype=object)
    for cell in g.cells:
        lap[np.ix_(cell, cell)] += np.array(trace, dtype=object)
    return linalg.schur_complement(lap, [int(v) for v in g.boundary])


@pytest.mark.parametrize("l", range(5, 13))
@pytest.mark.parametrize("trace", [TRIANGLE_FORM, _SKEWED_FORM], ids=["triangle", "skewed"])
def test_band_ordered_trace_equals_lexicographic_elimination(l, trace):
    banded = one_subdivision_trace(l, trace)
    assert np.array_equal(banded, _lexicographic_trace(l, trace))
    assert all(type(x) is Fraction for x in banded.ravel())


@given(st.lists(st.integers(-10**30, 10**30), min_size=3, max_size=3))
def test_triangle_form_is_the_base_energy(v):
    """v^T TRIANGLE_FORM v == E0(v) in integers: with the trace equal to
    r_l * TRIANGLE_FORM, every pin's energy ratio is exactly r_l."""
    quad = sum(v[a] * TRIANGLE_FORM[a][b] * v[b] for a in range(3) for b in range(3))
    assert quad == base_energy(v)


def test_extension_ratio_check_both_precisions():
    exact = extension_ratio_check(5, seed=3, precision="rational")
    assert exact["passed"]
    approx = extension_ratio_check(5, seed=3, precision="float")
    assert approx["passed"]
    assert approx["max_rel_err"] < 1e-12


# ---- Harmonic extension --------------------------------------------------


def test_extension_conserves_energy_exactly(ls5):
    pin = (Fraction(1), Fraction(0), Fraction(0))
    h = harmonic_extend(ls5, pin, 2, method="cells", precision="rational")
    e0 = base_energy(pin)
    assert h.energy(0) == e0
    assert h.energy(1) == e0
    assert h.energy(2) == e0


@given(rationals, rationals, rationals)
def test_depth_one_energy_identity_random_pins(a, b, c):
    ls = LevelSequence((5,))
    h = harmonic_extend(ls, (a, b, c), 1, method="cells", precision="rational")
    assert h.energy(1) == base_energy((a, b, c))


def test_routes_agree_on_floats(ls576):
    h = harmonic_extend(ls576, (1.0, 0.5, 0.0), 2, method="cells")
    via_matrices = np.asarray(h.cell_values(2))
    via_graph = np.asarray(h.cell_values_from_graph(2))
    assert np.max(np.abs(via_matrices - via_graph)) < 1e-12
    graph_energy = cell_energies(via_graph).sum() / ls576.R(2)
    assert h.energy(2) == pytest.approx(graph_energy, rel=1e-12)


def test_extension_bounded_by_pin_range(ls5):
    h = harmonic_extend(ls5, (1.0, 0.0, 0.0), 2, method="cells")
    _, values = h.extend(2)
    assert values.min() >= -1e-12
    assert values.max() <= 1 + 1e-12


@pytest.mark.parametrize("seq,depth", [((5,), 1), ((5, 5), 2), ((6, 5), 2)])
def test_rational_extend_equals_the_dense_solve(seq, depth):
    ls = LevelSequence(seq, continuation="repeat-last")
    h = harmonic_extend(ls, (1, Fraction(2, 3), Fraction(1, 9)), 0, precision="rational")
    g, values = h.extend(depth)
    assert all(type(x) is Fraction for x in values)
    assert np.array_equal(values[g.cells], h.cell_values_from_graph(depth))


@pytest.mark.parametrize("seq,depth", [((5,), 3), ((5, 7, 6), 3), ((7, 7), 2)])
def test_cells_sharing_a_vertex_write_one_value(seq, depth):
    # every cell reads its own cascade row back from the scattered values
    ls = LevelSequence(seq, continuation="repeat-last")
    for precision, pin in (("float", (1.0, 0.25, -0.5)),
                           ("rational", (1, Fraction(1, 4), Fraction(-1, 2)))):
        h = harmonic_extend(ls, pin, depth, precision=precision)
        g, values = h.extend(depth)
        assert np.array_equal(values[g.cells], h.cell_values(depth)), precision


def test_float_extend_is_the_rounded_exact_extension():
    # the cascade stays within an ulp or so of the exact values, where the
    # sparse LU on the 5,565-vertex graph drifts to ~5e-14
    ls = LevelSequence((5, 7, 6))
    _, exact = harmonic_extend(ls, (1, Fraction(1, 2), 0), 0, precision="rational").extend(3)
    _, approx = harmonic_extend(ls, (1.0, 0.5, 0.0), 0).extend(3)
    assert np.max(np.abs(approx - exact.astype(np.float64))) <= 1e-15


def test_cg_matches_direct(ls5, monkeypatch):
    # at depth 2 the incomplete LU is nearly exact; at depth 4 (33,930
    # unknowns) preconditioned cg iterates, and still matches the direct LU
    cg = linalg.spla.cg
    steps = []

    def counted_cg(a, b, **kwargs):
        steps.append(0)

        def count(_):
            steps[-1] += 1

        return cg(a, b, callback=count, **kwargs)

    monkeypatch.setattr(linalg.spla, "cg", counted_cg)
    pin = np.array([1.0, 2.0, -1.0])
    for depth in (2, 4):
        g = build_graph(ls5, depth)
        lap = linalg.laplacian(g.adjacency)
        vd, res_d = linalg.pinned_solve(lap, g.boundary, pin, method="direct")
        vc, res_c = linalg.pinned_solve(lap, g.boundary, pin, method="cg")
        assert np.max(np.abs(vd - vc)) <= 1e-9
        assert res_d <= 1e-10 and res_c <= 1e-10
    assert len(steps) == 2 and steps[-1] > 1


def test_extension_method_is_cells(ls5):
    for method in ("direct", "cg", "Cells", "auto"):
        with pytest.raises(DomainError):
            harmonic_extend(ls5, (1.0, 0.0, 0.0), 1, method=method)


@pytest.mark.parametrize("method", ["cells"])  # every method harmonic_extend accepts
def test_corner_pin_containers_agree(ls5, method):
    # a tuple, a list and an array all mean (u(q0), u(q1), u(q2))
    for pin in ((1.0, 2.0, 3.0), [1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0])):
        h = harmonic_extend(ls5, pin, 1, method=method)
        assert h.cell_values(0).tolist() == [[1.0, 2.0, 3.0]]
        g, values = h.extend(1)
        assert values[g.boundary].tolist() == [1.0, 2.0, 3.0]


def test_corner_pin_must_have_three_values(ls5):
    for pin in ((1.0, 0.0), np.zeros(4)):
        with pytest.raises(DomainError):
            harmonic_extend(ls5, pin, 1)
    with pytest.raises(DomainError):
        harmonic_extend(ls5, (1.0, 0.0, 0.0), -1)


def test_cell_cascade_refuses_past_its_budget(ls5):
    # 3 M_8 = 3 * 12^8 corner slots is past 2^27; 3 M_7 is not
    h = harmonic_extend(ls5, (1.0, 0.0, 0.0), 0, method="cells")
    with pytest.raises(BudgetError):
        h.cell_values(8)
    assert sorted(h._cascade) == [0]  # refused before any product


def test_large_level_stack_certifies_itself():
    # No elimination: together with the trace identity S = r_l T these
    # properties make the matrices the unique energy minimizer.
    for l in (301, 3001):
        q = 6 * l + 1
        stack = matrix_stack_exact(l)
        g = _depth_one_graph(l)
        assert len(stack) == g.n_cells == 3 * l - 3
        by_vertex = {}
        for cell, mat in zip(g.cells.tolist(), stack):
            for v, row in zip(cell, mat):
                assert sum(row) == 1 and min(row) >= 0
                assert by_vertex.setdefault(v, row) == row
        for j in range(3):
            assert by_vertex[int(g.boundary[j])] == tuple(Fraction(int(m == j)) for m in range(3))
        # sum_i A_i^T T A_i = r_l T with A_i = N_i / q and r_l = 9 / q
        nums = np.array([[[x.numerator * (q // x.denominator) for x in row] for row in mat]
                         for mat in stack], dtype=np.int64)
        t = np.array(TRIANGLE_FORM, dtype=np.int64)
        total = np.einsum("ija,jk,ikb->ab", nums, t, nums)
        assert np.array_equal(total, 9 * q * t)


# ---- Integer cascade against the Fraction einsum -------------------------


def _fraction_cascade(ls, pin, depth):
    """Depth-`depth` cell values as Fraction products of the Fraction matrix
    stacks, level by level: the route the integer cascade replaced."""
    values = np.array([pin], dtype=object)
    for d in range(1, depth + 1):
        stack = np.array(matrix_stack_exact(ls.level(d)), dtype=object)
        values = np.einsum("mij,wj->wmi", stack, values).reshape(-1, 3)
    return values


ORACLE_PINS = [
    (Fraction(-3), Fraction(1, 2), Fraction(7, 3)),  # negative, non-unit denominators
    (Fraction(2, 5), Fraction(2, 5), Fraction(2, 5)),  # zero energy
    (Fraction(0), Fraction(-1, 6), Fraction(0)),
    (Fraction(1), Fraction(2, 3), Fraction(1, 9)),
]


@pytest.mark.parametrize("seq", [(5, 6, 5), (9, 58), (5, 7, 6, 12)])
@pytest.mark.parametrize("pin", ORACLE_PINS, ids=["negative", "constant", "one-sixth",
                                                  "thirds-ninths"])
def test_integer_cascade_equals_fraction_einsum(seq, pin):
    # depths 0-3, as far as the sequence defines levels
    ls = LevelSequence(seq)
    h = harmonic_extend(ls, pin, 0, method="cells", precision="rational")
    for depth in range(min(3, len(seq)) + 1):
        values = h.cell_values(depth)
        assert all(type(x) is Fraction for x in values.ravel())
        assert np.array_equal(values, _fraction_cascade(ls, pin, depth))
        energy = h.energy(depth)
        assert type(energy) is Fraction and energy == base_energy(pin)


def test_rational_cells_method_builds_no_fractions(ls5):
    pin = (Fraction(1, 3), Fraction(0), Fraction(-2))
    h = harmonic_extend(ls5, pin, 2, method="cells", precision="rational")
    num, den = h.cell_numerators(2)
    assert den == 3 * 31 * 31

    def cached_ints_only():
        return all(type(x) is int for num, _ in h._cascade.values() for x in num.ravel())

    assert sorted(h._cascade) == [0, 1, 2] and cached_ints_only()
    assert np.array_equal(h.cell_values(2), _fraction_cascade(ls5, pin, 2))
    assert cached_ints_only()  # the Fractions of cell_values are not cached


def test_rational_cascade_refuses_past_its_budget(ls5):
    h = harmonic_extend(ls5, (1, 0, 0), 0, method="cells", precision="rational")
    with pytest.raises(BudgetError):
        h.cell_values(8)
    with pytest.raises(BudgetError):
        h.energy(8)
    assert sorted(h._cascade) == [0]  # refused before any product


def test_float_cell_numerators_are_the_cell_values(ls5):
    # one cascade: a float step divides by nothing and copies nothing
    h = harmonic_extend(ls5, (1.0, 0.0, 0.0), 1, method="cells")
    for d in (1, 2):
        num, den = h.cell_numerators(d)
        assert den == 1 and num.dtype == np.float64
        assert h.cell_values(d) is num


@pytest.mark.parametrize("precision", ["float", "rational"])
def test_cached_cascade_arrays_are_read_only(ls5, precision):
    # a write into a handed-out array once changed every later energy of h:
    # v[0, 0] = 7.0 on the float depth-1 values moved energy(1) from 2 to 274
    h = harmonic_extend(ls5, (1, 0, 0), 0, precision=precision)
    arrays = [h.cell_numerators(d)[0] for d in (0, 1)] + [h.extend(1)[1]]
    if precision == "float":
        arrays.append(h.cell_values(1))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    assert h.energy(1) == 2


# ---- The exact trace comparison is not vacuous ---------------------------


def test_ratio_check_fails_on_a_perturbed_trace(monkeypatch):
    real = forms.one_subdivision_trace

    def perturbed(l, *args, **kwargs):
        t = real(l, *args, **kwargs).copy()
        eps = Fraction(1, 10**6)
        t[0, 1] += eps
        t[1, 0] += eps
        return t

    assert extension_ratio_check(5, seed=3)["passed"]
    monkeypatch.setattr(forms, "one_subdivision_trace", perturbed)
    report = extension_ratio_check(5, seed=3)
    assert report["passed"] is False
    assert report["trace_equal"] is False


# ---- Unknown precisions --------------------------------------------------


def test_harmonic_extend_refuses_an_unknown_precision(ls5):
    for precision in ("Rational", "exact"):
        with pytest.raises(DomainError):
            harmonic_extend(ls5, (1, 0, 0), 1, method="cells", precision=precision)


def test_extension_ratio_check_refuses_an_unknown_precision():
    with pytest.raises(DomainError):
        extension_ratio_check(5, precision="exact")
