import math
from fractions import Fraction

import numpy as np
import pytest

from thin_gasket import forms, measures
from thin_gasket.errors import BudgetError, DomainError
from thin_gasket.forms import base_energy, cell_energies, harmonic_extend
from thin_gasket.geometry import boundary_cells, interior_letters, word_to_index
from thin_gasket.linalg import cell_values_from_graph, corner_trace
from thin_gasket.measures import (MASS_FLOOR_REL, SINGULARITY_GAP,
                                  _children_coefficients, ceiling_below_sup,
                                  children_sum_ceiling, divergence_statistic,
                                  energy_measure, singularity_certificate)
from thin_gasket.rand import stream
from thin_gasket.resistance import effective_resistance
from thin_gasket.sequence import LevelSequence, cell_count


def _rational_extension(seq, pin, depth):
    ls = LevelSequence(seq, continuation="repeat-last")
    frac_pin = tuple(Fraction(p) for p in pin)
    return harmonic_extend(ls, frac_pin, depth, method="cells",
                           precision="rational")


def test_golden_depth_one_masses():
    h = _rational_extension((5,), (1, 0, 0), 1)
    mu = energy_measure(h, 1)
    assert mu.total == 2
    assert mu.masses[word_to_index(h.ls, ((2, 0),))] == Fraction(6, 31)
    assert mu.masses[word_to_index(h.ls, ((0, 2),))] == Fraction(6, 31)
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
    # the values on V_2, and the graph oracle on the depth-1 graph
    assert _only_fractions(h.extend(2)[1])
    assert _only_fractions(cell_values_from_graph(h, 1))
    for n in (0, 2):
        assert _only_fractions(corner_trace(ls, n))
    assert type(effective_resistance(ls, 1, 3, 11, precision="rational").value) is Fraction


def test_negative_depth_is_refused():
    h = harmonic_extend(LevelSequence((5,)), (1.0, 0.0, 0.0), 1, method="cells")
    with pytest.raises(DomainError):
        energy_measure(h, -1)
    with pytest.raises(DomainError):
        h.extend(-1)


def test_routes_agree_in_float():
    ls = LevelSequence((5, 7), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.25, 0.0), 2, method="cells")
    masses = energy_measure(h, 2).masses
    oracle = cell_energies(cell_values_from_graph(h, 2)) / float(ls.R(2))
    assert np.max(np.abs(masses - oracle)) < 1e-12


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
    parent = np.array([float(mu0.total)])
    children = np.asarray(mu1.masses, dtype=np.float64)[None, :]
    [coeff] = _children_coefficients(parent, children)
    assert 0 <= coeff <= children_sum_ceiling(5) + 1e-12
    expected = sum(math.sqrt(float(c) / float(mu0.total)) for c in mu1.masses) / math.sqrt(12)
    assert coeff == pytest.approx(expected, rel=1e-14)


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


def test_constant_pin_has_no_live_cells():
    # the zero energy measure: the float cascade leaves noise of order 1e-32
    # per cell below the pin level's exact zeros, and none of it is mass
    for seq in ((5,), (5, 6, 7)):
        h = harmonic_extend(LevelSequence(seq, continuation="repeat-last"),
                            (1.0, 1.0, 1.0), 0, method="cells")
        assert float(np.asarray(energy_measure(h, 3).masses).max()) > 0.0
        cert = singularity_certificate(h, 3)
        assert cert.passed
        assert cert.n_admissible == 0 and cert.max_excess == 0.0
        assert sum(r.n_zero_mass for r in cert.records) > 0
        div = divergence_statistic(h, 3, n_samples=50, seed=0)
        assert div.passed and div.n_failures == 0
        assert all(s.divergence_sum == 3.0 for s in div.samples)


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


def test_divergence_budget_refuses_before_the_cascade(monkeypatch):
    """n_samples times the largest child count past DIVERGENCE_MAX_ENTRIES
    is a BudgetError raised before any mass or index array is built; at the
    cap the statistic runs."""
    ls = LevelSequence((5, 58), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, method="cells")
    at_cap = measures.DIVERGENCE_MAX_ENTRIES // cell_count(58)
    assert divergence_statistic(h, 2, n_samples=at_cap, seed=1).n_samples == at_cap

    def no_cascade(*args):
        raise AssertionError("masses built for a refused run")

    monkeypatch.setattr(forms.HarmonicSpec, "float_masses", no_cascade)
    for n_samples in (at_cap + 1, 10 ** 8):
        with pytest.raises(BudgetError, match="budget"):
            divergence_statistic(h, 2, n_samples=n_samples)


def test_divergence_reproducible():
    ls = LevelSequence((5, 6), continuation="repeat-last")
    h = harmonic_extend(ls, (1.0, 0.0, 0.0), 0, method="cells")
    a = divergence_statistic(h, 3, n_samples=20, seed=5)
    b = divergence_statistic(h, 3, n_samples=20, seed=5)
    assert [s.letters for s in a.samples] == [s.letters for s in b.samples]
    assert [s.divergence_sum for s in a.samples] == [
        s.divergence_sum for s in b.samples]


def _divergence_by_address(h, max_depth, n_samples, seed, tol=1e-9):
    """Reference: the statistic one address at a time, on float masses
    from the cascade and interior flags from interior_letters."""
    ls = h.ls
    masses = {d: cell_energies(h.cell_values(d)) / float(ls.R(d))
              for d in range(max_depth + 1)}
    total = float(masses[0].sum())
    floor = MASS_FLOOR_REL * total if total > 0 else math.inf
    counts = [cell_count(ls.level(d)) for d in range(1, max_depth + 1)]
    interior = {}
    for d in range(1, max_depth + 1):
        l = ls.level(d)
        interior[l] = [w in interior_letters(l) for w in boundary_cells(l)]
    rng = stream(seed, 0)
    letters = np.stack([rng.integers(0, counts[d - 1], size=n_samples)
                        for d in range(1, max_depth + 1)], axis=1)
    out = []
    for s in range(n_samples):
        idx = 0
        div = 0.0
        ap = 0
        for n in range(1, max_depth + 1):
            letter = int(letters[s, n - 1])
            child_idx = idx * counts[n - 1] + letter
            parent_mass = float(masses[n - 1][idx])
            if parent_mass <= floor:
                div += 1.0
            else:
                m = counts[n - 1]
                block = masses[n][idx * m:(idx + 1) * m]
                coeff = float(np.sqrt(np.maximum(block, 0.0) / parent_mass).sum()
                              / math.sqrt(m))
                div += 1.0 - coeff
            if n >= 2 and interior[ls.level(n - 1)][int(letters[s, n - 2])]:
                ap += 1
            idx = child_idx
        bound = SINGULARITY_GAP * ap
        out.append((tuple(int(x) for x in letters[s]), div, ap, bound, div >= bound - tol))
    return out


@pytest.mark.parametrize("entries,pin,depth,n_samples,seed", [
    ((5, 7, 9, 6), (1.0, 0.0, 0.0), 4, 200, 29),
    ((5, 5, 5, 5), (1.0, 0.0, 0.0), 4, 200, 29),
    ((9, 8, 7, 6), (1.0, 0.0, 0.0), 4, 200, 29),
    ((6, 6, 6, 6), (1.0, 0.0, 0.0), 4, 200, 29),
    ((5,), (1.0, 0.25, 0.0), 6, 200, 11),
    ((9, 58), (0.3, -0.7, 1.0), 2, 200, 4),
    ((5, 6), (1.0, 1.0, 0.0), 4, 200, 3),
], ids=["c7-5-7-9-6", "c7-5-5-5-5", "c7-9-8-7-6", "c7-6-6-6-6", "5-d6", "9-58-d2",
        "5-6-zero-mass"])
def test_divergence_matches_per_address_loop(entries, pin, depth, n_samples, seed):
    ls = LevelSequence(entries, continuation="repeat-last")
    h = harmonic_extend(ls, pin, 0, method="cells")
    rep = divergence_statistic(h, depth, n_samples=n_samples, seed=seed)
    expected = _divergence_by_address(h, depth, n_samples, seed)
    got = [(s.letters, s.divergence_sum, s.ap_count, s.bound, s.ok) for s in rep.samples]
    assert got == expected
    assert rep.n_failures == sum(not e[4] for e in expected)
    assert rep.passed == (rep.n_failures == 0)


@pytest.mark.parametrize("seq,pin", [
    ((5, 6, 5), (Fraction(-3), Fraction(1, 2), Fraction(7, 3))),
    ((9, 58), (Fraction(2, 5), Fraction(2, 5), Fraction(2, 5))),
    ((5, 7, 6, 12), (Fraction(1), Fraction(2, 3), Fraction(1, 9))),
])
def test_rational_masses_equal_fraction_cell_energies(seq, pin):
    # the integer masses against E0 of the Fraction cell values over R_d
    h = _rational_extension(seq, pin, 0)
    for depth in range(min(3, len(seq)) + 1):
        mu = energy_measure(h, depth)
        oracle = cell_energies(h.cell_values(depth)) / h.ls.R(depth)
        assert all(type(x) is Fraction for x in mu.masses)
        assert np.array_equal(mu.masses, oracle)
        assert type(mu.total) is Fraction and mu.total == base_energy(pin)


def test_float_masses_are_cached_read_only():
    h = harmonic_extend(LevelSequence((5, 6), continuation="repeat-last"),
                        (1.0, 0.3, -0.5), 0)
    first = energy_measure(h, 3).masses
    assert energy_measure(h, 3).masses is first
    with pytest.raises(ValueError):
        first[0] = 1.0


def test_rational_measure_computes_e0_once_per_depth(monkeypatch):
    h = _rational_extension((9, 58), (1, Fraction(2, 3), Fraction(1, 9)), 0)
    totals = {d: h.energy(d) for d in range(3)}
    calls = []

    def counted(values):
        calls.append(len(values))
        return cell_energies(values)

    monkeypatch.setattr(forms, "cell_energies", counted)
    monkeypatch.setattr(measures, "cell_energies", counted)
    for d in range(3):
        assert energy_measure(h, d).total == totals[d]
    assert calls == [h.ls.M(d) for d in range(3)]


def test_statistics_agree_on_fresh_and_cached_masses(monkeypatch):
    ls = LevelSequence((5, 6, 7), continuation="repeat-last")
    pin = (1.0, 0.3, -0.5)
    cert = singularity_certificate(harmonic_extend(ls, pin, 0), 4)
    div = divergence_statistic(harmonic_extend(ls, pin, 0), 4, n_samples=40, seed=3)
    warm = harmonic_extend(ls, pin, 0)
    for d in range(5):
        energy_measure(warm, d)

    def no_energies(values):
        raise AssertionError("masses recomputed")

    # a warm h reads its masses from the cache alone
    monkeypatch.setattr(forms, "cell_energies", no_energies)
    assert singularity_certificate(warm, 4) == cert
    assert divergence_statistic(warm, 4, n_samples=40, seed=3) == div


@pytest.mark.parametrize("pin", [
    (Fraction(-3), Fraction(1, 2), Fraction(7, 3)),
    (Fraction(2, 5), Fraction(2, 5), Fraction(2, 5)),  # zero energy: every cell zero-mass
    (Fraction(0), Fraction(-1, 6), Fraction(0)),
], ids=["negative", "constant", "one-sixth"])
def test_statistics_of_a_rational_h_read_its_rounded_exact_masses(pin):
    ls = LevelSequence((5, 6, 5, 7))
    hr = harmonic_extend(ls, pin, 0, precision="rational")
    hf = harmonic_extend(ls, tuple(float(v) for v in pin), 0)
    for d in range(5):
        masses = hr.float_masses(d)
        assert masses.dtype == np.float64 and hr.float_masses(d) is masses
        assert masses.tolist() == [float(m) for m in energy_measure(hr, d).masses]
        with pytest.raises(ValueError):
            masses[0] = 1.0
    exact, approx = singularity_certificate(hr, 4), singularity_certificate(hf, 4)
    assert exact.passed and exact.n_admissible == approx.n_admissible
    for a, b in zip(exact.records, approx.records, strict=True):
        assert (a.n_admissible, a.n_zero_mass) == (b.n_admissible, b.n_zero_mass)
        assert abs(a.max_coeff - b.max_coeff) <= 1e-12
