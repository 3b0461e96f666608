import math
from fractions import Fraction

import numpy as np
import pytest

from thin_gasket.forms import base_energy, harmonic_extend
from thin_gasket.geometry import build_graph, word_to_index, words
from thin_gasket.measures import (bhattacharyya_children, ceiling_below_sup,
                                  children_sum_ceiling, divergence_statistic,
                                  energy_measure, singularity_certificate)
from thin_gasket.resistance import corner_trace, effective_resistance
from thin_gasket.sequence import LevelSequence


def _rational_extension(seq, pin, depth):
    ls = LevelSequence(seq, continuation="repeat-last")
    frac_pin = tuple(Fraction(p) for p in pin)
    return harmonic_extend(ls, frac_pin, depth, method="cells",
                           precision="rational")


def test_golden_depth_one_masses():
    h = _rational_extension((5,), (1, 0, 0), 1)
    mu = energy_measure(h, 1)
    assert mu.total == 2
    assert mu.mass(((2, 0),)) == Fraction(6, 31)
    assert mu.mass(((0, 2),)) == Fraction(6, 31)
    assert sum(mu.masses, Fraction(0)) == 2


def test_total_mass_equals_pin_energy():
    for pin in ((1, 0, 0), (1, Fraction(2, 3), Fraction(1, 9))):
        h = _rational_extension((5, 6, 5), pin, 3)
        e0 = base_energy(tuple(Fraction(p) for p in pin))
        for depth in range(4):
            mu = energy_measure(h, depth)
            assert mu.total == e0


def test_children_sum_to_parent_exactly():
    h = _rational_extension((5, 6), (1, 0, 0), 2)
    parent = energy_measure(h, 1)
    child = energy_measure(h, 2)
    m = 15  # cells per level-6 subdivision
    for p in range(12):
        block = child.masses[p * m:(p + 1) * m]
        assert sum(block, Fraction(0)) == parent.masses[p]


def test_constant_pin_gives_zero_measure():
    h = _rational_extension((5,), (1, 1, 1), 1)
    mu = energy_measure(h, 1)
    assert mu.total == 0
    assert all(x == 0 for x in mu.masses)


def _only_fractions(values) -> bool:
    flat = np.asarray(values, dtype=object).ravel()
    return flat.size > 0 and all(type(x) is Fraction for x in flat)


def test_rational_routes_stay_exact():
    pin = (Fraction(1), Fraction(2, 3), Fraction(1, 9))
    ls = LevelSequence((5, 6), continuation="repeat-last")
    h = _rational_extension((5, 6), pin, 2)
    for d in range(3):
        assert _only_fractions(h.cell_values(d))
        assert type(h.energy(d)) is Fraction
        mu = energy_measure(h, d)
        assert _only_fractions(mu.masses) and type(mu.total) is Fraction
    # the graph route, on the depth-1 graph
    assert _only_fractions(h.cell_values_from_graph(1))
    assert type(h.energy(1, route="graph")) is Fraction
    mu = energy_measure(h, 1, route="graph")
    assert _only_fractions(mu.masses) and type(mu.total) is Fraction
    # a depth-1 pin: the depth-0 measure sums children
    g1 = build_graph(ls, 1)
    h1 = harmonic_extend(ls, np.linspace(0.0, 1.0, g1.n_vertices), 2, pin_level=1,
                         method="cells", precision="rational")
    mu0 = energy_measure(h1, 0)
    assert _only_fractions(mu0.masses)
    assert mu0.total == h1.energy(1)
    for n in (0, 2):
        assert _only_fractions(corner_trace(ls, n))
    assert type(effective_resistance(ls, 1, 3, 11, method="rational").value) is Fraction


def test_routes_agree_in_float():
    ls = LevelSequence((5, 7), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.25, 0.0), 2, method="direct")
    a = energy_measure(h, 2, route="matrices")
    b = energy_measure(h, 2, route="graph")
    assert np.max(np.abs(np.asarray(a.masses) - np.asarray(b.masses))) < 1e-12


# ---- Concentration ceiling ----------------------------------------------


@pytest.mark.parametrize("l", [5, 6, 7, 8, 9, 20])
def test_ceiling_below_uniform_sup(l):
    assert ceiling_below_sup(l)
    expected = (4 * l - 1) / math.sqrt((3 * l - 3) * (6 * l + 1))
    assert children_sum_ceiling(l) == pytest.approx(expected, rel=1e-13)
    assert children_sum_ceiling(l) <= math.sqrt(361 / 372) + 1e-15


def test_bhattacharyya_children_below_ceiling():
    h = _rational_extension((5,), (1, 0, 0), 1)
    mu1 = energy_measure(h, 1)
    mu0 = energy_measure(h, 0)
    # compare child masses of the root against the uniform split
    coeff = bhattacharyya_children(mu1, 0)
    assert 0 <= coeff <= children_sum_ceiling(5) + 1e-12


# ---- Certificate ---------------------------------------------------------


def test_certificate_on_varied_sequence():
    ls = LevelSequence((5, 7, 9, 6), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, method="cells")
    rep = singularity_certificate(h, 3)
    assert rep.passed
    assert rep.max_depth == 3
    assert rep.gap == pytest.approx(1 - math.sqrt(361 / 372), rel=1e-12)
    assert rep.n_admissible > 0
    assert rep.max_excess <= 0
    for rec in rep.records:
        assert rec.ok
        assert rec.ceiling <= math.sqrt(361 / 372) + 1e-15


def test_certificate_handles_zero_mass_branches():
    # a corner-difference pin kills the mass on part of the gasket
    ls = LevelSequence((5,), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 1.0, 0.0), 0, method="cells")
    rep = singularity_certificate(h, 2)
    assert rep.passed


def test_divergence_statistic():
    ls = LevelSequence((5, 5, 5, 5))
    h = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, method="cells")
    rep = divergence_statistic(h, 4, n_samples=60, seed=29)
    assert rep.passed
    assert rep.n_failures == 0
    assert rep.n_samples == 60
    assert rep.delta == pytest.approx(1 - math.sqrt(361 / 372), rel=1e-12)
    for s in rep.samples:
        assert len(s.letters) == 4
        assert s.divergence_sum >= s.bound - 1e-12
        assert s.bound == pytest.approx(rep.delta * s.ap_count, rel=1e-12)


def test_divergence_reproducible():
    ls = LevelSequence((5, 6), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, method="cells")
    a = divergence_statistic(h, 3, n_samples=20, seed=5)
    b = divergence_statistic(h, 3, n_samples=20, seed=5)
    assert [s.letters for s in a.samples] == [s.letters for s in b.samples]
    assert [s.divergence_sum for s in a.samples] == [
        s.divergence_sum for s in b.samples]
