"""Energy measures of harmonic functions and their singularity statistics.

The energy measure of a harmonic function h assigns to each depth-d cell
the energy h contributes there: E0(corner values) / R_d.  Aggregating over
children is exact by the one-subdivision trace identity, so these numbers
are consistent across depths.

Against the uniform measure, the per-cell Bhattacharyya coefficient of the
children of an admissible cell is bounded away from 1 by a fixed gap; the
certificate checks that bound cell by cell and the divergence statistic
accumulates 1 - coefficient along sampled addresses.

A measure is plain arrays: CellMeasure holds the per-cell masses in word
enumeration order and their total, nothing else.  Masses come from the cell
cascade, the one route of harmonic extension, and follow the precision of
the harmonic function.  Exact masses are one Fraction E0 / (D_d^2 R_d) per
cell, E0 summed in integers from the cascade's numerators over their common
denominator D_d.  Float masses are HarmonicSpec.float_masses: computed once
per depth and kept on h read-only, correctly rounded from the exact masses
for a rational h, so the measure, the certificate and the divergence
statistic of one h share them.  Both statistics run on whole arrays: the
certificate over every cell of a depth, the divergence statistic over all
sampled addresses one depth at a time, both through the one kernel
_children_coefficients.  The cascade's size budget
(HarmonicSpec.cell_numerators) bounds the depths they reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, DomainError
from .forms import HarmonicSpec, cell_energies
from .geometry import CellMeasure, boundary_cells, interior_letters
from .rand import stream
from .sequence import cell_count

#: sup over levels of the squared children-sum ceiling; attained at l = 5.
CEILING_SUP_SQ = Fraction(361, 372)

#: Uniform gap 1 - sqrt(361/372) between the ceiling and 1.
SINGULARITY_GAP = 1.0 - math.sqrt(361.0 / 372.0)

#: Relative floor below which a cell mass counts as zero.  Double-precision
#: cascades carry absolute noise around 1e-31 per cell energy, amplified by
#: 1/R_d; genuine admissible masses sit many orders above 1e-20 * total,
#: exact zeros (degenerate pins) far below.  The total is read at depth 0,
#: whose masses have no cascade noise: a constant pin's total is 0,
#: its floor infinite, and its noise no mass.  Cells under the floor are
#: reported as zero-mass: the divergence statistic assigns them the limit
#: term 1, the certificate counts them separately instead of verifying
#: unverifiable noise.  Rational-precision routes have exact zeros and
#: never hit the floor.
MASS_FLOOR_REL = 1e-20

#: Largest n_samples times the largest child count that divergence_statistic
#: runs: the children index of one depth holds that many int64 entries, and
#: a run keeps one Python record per address.  At the cap, 174,762
#: addresses on (5,) at depth 3, this function took 1.2 s and 167 MB peak,
#: and the `diverge` verb, which writes every record, 5.0 s and 385 MB, on
#: 2 vCPUs; 200 addresses on (9, 58, 3001) (1.8e6 entries) fit.
DIVERGENCE_MAX_ENTRIES = 1 << 21


def children_sum_ceiling(l: int) -> float:
    """Upper bound (4l-1)/sqrt((3l-3)(6l+1)) for the children coefficient
    of an admissible level-l subdivision."""
    return (4 * l - 1) / math.sqrt((3 * l - 3) * (6 * l + 1))


def ceiling_below_sup(l: int) -> bool:
    """Exact integer check that children_sum_ceiling(l)^2 <= 361/372."""
    lhs = (4 * l - 1) ** 2 * CEILING_SUP_SQ.denominator
    rhs = CEILING_SUP_SQ.numerator * (3 * l - 3) * (6 * l + 1)
    return lhs <= rhs


# ---- Energy measures -----------------------------------------------------


def energy_measure(h: HarmonicSpec, depth: int) -> CellMeasure:
    """Energy measure of h on depth-`depth` cells, from the cell cascade.

    Masses are an object array of exact Fractions when h carries rational
    precision, otherwise h.float_masses(depth), read-only float64.
    """
    if h.precision == "rational":
        num, den = h.cell_numerators(depth)
        r = h.ls.R(depth)
        scale = den * den * r.numerator
        energies = cell_energies(num)
        masses = np.array([Fraction(e * r.denominator, scale) for e in energies], dtype=object)
        # the total as h.energy(depth) gives it, without a second pass of E0
        return CellMeasure(h.ls, depth, masses, Fraction(energies.sum() * r.denominator, scale))
    return CellMeasure(h.ls, depth, h.float_masses(depth))


def _children_coefficients(parent: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Bhattacharyya coefficients against uniform of the rows of the (P, m)
    array `children` under the positive parent masses `parent` (P,)."""
    m = children.shape[1]
    return np.sqrt(np.maximum(children, 0.0) / parent[:, None]).sum(axis=1) / math.sqrt(m)


def _interior_flags(l: int) -> np.ndarray:
    """Flags over the letters of level l in boundary_cells order, True at
    interior_letters(l)."""
    inner = set(interior_letters(l))
    return np.array([i in inner for i in boundary_cells(l)])


# ---- Singularity certificate --------------------------------------------


@dataclass
class DepthRecord:
    depth: int          # parent depth
    level: int          # child subdivision level
    n_admissible: int
    n_zero_mass: int
    max_coeff: float
    ceiling: float

    @property
    def ok(self) -> bool:
        return self.n_admissible == 0 or self.max_coeff <= self.ceiling + 1e-12


@dataclass
class CertificateReport:
    max_depth: int
    gap: float
    records: list
    n_admissible: int
    max_excess: float
    passed: bool


def singularity_certificate(h: HarmonicSpec, max_depth: int) -> CertificateReport:
    """Check the children-coefficient ceiling over every admissible cell.

    Admissible parents sit at depths 1 .. max_depth-1, end in an interior
    letter of their own level, and carry positive energy mass.  Every
    admissible coefficient must also stay within 1e-12 of sqrt(361/372).
    """
    ls = h.ls
    if max_depth < 2:
        raise DomainError("certificate needs max_depth >= 2")
    masses = [h.float_masses(d) for d in range(max_depth + 1)]
    total = float(masses[0].sum())
    floor = MASS_FLOOR_REL * total if total > 0 else math.inf

    records = []
    n_adm = 0
    max_excess = -math.inf
    for d in range(1, max_depth):
        parent = masses[d]
        child = masses[d + 1].reshape(parent.size, -1)
        flags = _interior_flags(ls.level(d))
        interior = np.tile(flags, parent.size // flags.size)
        live = parent > floor
        mask = interior & live
        n_mask = int(mask.sum())
        n_zero = int((interior & ~live).sum())
        mx = float(_children_coefficients(parent[mask], child[mask]).max()) if n_mask else 0.0
        l_child = ls.level(d + 1)
        ceiling = children_sum_ceiling(l_child)
        records.append(DepthRecord(d, l_child, n_mask, n_zero, mx, ceiling))
        n_adm += n_mask
        if n_mask:
            max_excess = max(max_excess, mx - ceiling)
    passed = all(r.ok for r in records) and all(
        r.max_coeff <= math.sqrt(float(CEILING_SUP_SQ)) + 1e-12 for r in records if r.n_admissible)
    return CertificateReport(max_depth, SINGULARITY_GAP, records, n_adm,
                             max_excess if n_adm else 0.0, passed)


# ---- Divergence along sampled addresses ----------------------------------


@dataclass(frozen=True)
class AddressSample:
    letters: tuple
    divergence_sum: float
    ap_count: int
    bound: float
    ok: bool


@dataclass
class DivergenceReport:
    n_samples: int
    max_depth: int
    delta: float
    samples: list
    n_failures: int
    passed: bool


def divergence_statistic(h: HarmonicSpec, max_depth: int, n_samples: int = 200,
                         seed: int = 0) -> DivergenceReport:
    """Accumulate 1 - coefficient along uniformly sampled addresses.

    Along each address the partial sum over depths 1..N must dominate
    delta times the number of interior-letter steps in 2..N, up to 1e-9;
    cells of zero mass contribute a full unit.  All addresses advance
    together, one depth at a time.
    """
    ls = h.ls
    if max_depth < 2:
        raise DomainError("divergence needs max_depth >= 2")
    if n_samples < 1:
        raise DomainError(f"divergence needs n_samples >= 1, got {n_samples}")
    counts = [cell_count(ls.level(d)) for d in range(1, max_depth + 1)]
    if n_samples * max(counts) > DIVERGENCE_MAX_ENTRIES:
        raise BudgetError(f"{n_samples} addresses with up to {max(counts)} children "
                          f"each exceed the budget of {DIVERGENCE_MAX_ENTRIES} entries")
    masses = [h.float_masses(d) for d in range(max_depth + 1)]
    total = float(masses[0].sum())
    floor = MASS_FLOOR_REL * total if total > 0 else math.inf

    rng = stream(seed, 0)
    letters = np.stack([rng.integers(0, m, size=n_samples) for m in counts], axis=1)

    idx = np.zeros(n_samples, dtype=np.int64)  # depth n-1 cell of each address
    div = np.zeros(n_samples)
    ap = np.zeros(n_samples, dtype=np.int64)
    for n in range(1, max_depth + 1):
        m = counts[n - 1]
        parent = masses[n - 1][idx]
        live = parent > floor
        children = masses[n][idx[live, None] * m + np.arange(m)]
        step = np.ones(n_samples)
        step[live] = 1.0 - _children_coefficients(parent[live], children)
        div += step
        if n >= 2:
            ap += _interior_flags(ls.level(n - 1))[letters[:, n - 2]]
        idx = idx * m + letters[:, n - 1]

    delta = SINGULARITY_GAP
    samples = []
    for s in range(n_samples):
        total_s = float(div[s])
        bound = delta * int(ap[s])
        samples.append(AddressSample(tuple(int(x) for x in letters[s]), total_s, int(ap[s]),
                                     bound, total_s >= bound - 1e-9))
    failures = sum(not x.ok for x in samples)
    return DivergenceReport(n_samples, max_depth, delta, samples, failures, failures == 0)
