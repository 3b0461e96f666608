from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import DomainError
from thin_gasket.forms import (TRIANGLE_FORM, _depth_one_graph, base_energy,
                               discrete_form, extension_ratio_check,
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
    for l in (5, 9):
        exact = np.array([[[float(x) for x in row] for row in m]
                          for m in matrix_stack_exact(l)])
        assert np.max(np.abs(matrix_stack(l) - exact)) == 0.0


def test_harmonic_matrix_rejects_non_letter():
    with pytest.raises(DomainError):
        harmonic_matrix(5, (1, 1))


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


def test_extension_ratio_check_both_precisions():
    exact = extension_ratio_check(5, n_random=20, seed=3, precision="rational")
    assert exact["passed"]
    approx = extension_ratio_check(5, n_random=20, seed=3, precision="float")
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
    h = harmonic_extend(ls576, (1.0, 0.5, 0.0), 2, method="direct")
    via_matrices = np.asarray(h.cell_values(2))
    via_graph = np.asarray(h.cell_values_from_graph(2))
    assert np.max(np.abs(via_matrices - via_graph)) < 1e-12
    assert h.energy(2, route="matrices") == pytest.approx(
        h.energy(2, route="graph"), rel=1e-12)


def test_extension_bounded_by_pin_range(ls5):
    h = harmonic_extend(ls5, (1.0, 0.0, 0.0), 2, method="direct")
    _, values = h.extend(2)
    assert values.min() >= -1e-12
    assert values.max() <= 1 + 1e-12


def test_cg_matches_direct(ls5):
    hd = harmonic_extend(ls5, (1.0, 2.0, -1.0), 2, method="direct")
    hc = harmonic_extend(ls5, (1.0, 2.0, -1.0), 2, method="cg")
    _, vd = hd.extend(2)
    _, vc = hc.extend(2)
    assert np.max(np.abs(vd - vc)) < 1e-9


def test_deep_pin_level(ls5):
    g1 = build_graph(ls5, 1)
    pin = np.zeros(g1.n_vertices)
    pin[int(g1.corner_id(0))] = 1.0
    h = harmonic_extend(ls5, pin, 2, pin_level=1)
    assert h.energy(2, route="graph") > 0
    with pytest.raises(DomainError):
        harmonic_extend(ls5, pin, 0, pin_level=1)


def test_discrete_form_energy(ls5):
    g = build_graph(ls5, 1)
    form = discrete_form(ls5, 1, g)
    u = np.zeros(g.n_vertices)
    u[int(g.corner_id(0))] = 1.0
    # pinning only the corner is not harmonic, so the energy exceeds 2
    assert form.energy(u) > 0
    exact = form.energy_exact([Fraction(int(round(x))) for x in u])
    assert exact == pytest.approx(form.energy(u), rel=1e-12)


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
