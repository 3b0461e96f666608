"""Thin irregular gasket approximations: geometry, energies, scales, walks.

The package builds finite-depth approximations of planar gaskets obtained
by keeping only the boundary cells of repeated l-fold triangle subdivision,
and computes the discrete objects attached to them: graph metrics and cell
measures, Dirichlet energies and harmonic extensions, effective
resistances, energy measures with their singularity statistics, piecewise
space-time scale functions, realization of prescribed scales, and random
walk diagnostics.
"""

from types import ModuleType as _ModuleType

from .errors import (BudgetError, DomainError, GasketError, RealizationError,
                     SequenceError, SolveError)
from .forms import (HarmonicMatrix, HarmonicSpec, base_energy, harmonic_extend,
                    harmonic_matrix, matrix_stack, matrix_stack_exact)
from .geometry import (ApproximationGraph, CellMeasure, boundary_cells,
                       build_graph, geodesic_hops, graph_to_json,
                       index_to_word, interior_letters, is_cell_index,
                       neighborhood_vertex_ids, render_svg, word_to_index,
                       words)
from .measures import (AddressSample, CertificateReport, DivergenceReport,
                       SINGULARITY_GAP, children_sum_ceiling,
                       divergence_statistic, energy_measure,
                       singularity_certificate)
from .realization import (EtaFunction, RealizationResult,
                          comparability_report, realize_sequence,
                          slow_decay_eta, summability_report)
from .resistance import (ResistanceResult, ResistanceSolver, corner_resistance,
                         effective_resistance)
from .scales import (PiecewiseScale, comparison_checks, doubling_check,
                     knot_continuity_check, mass_exponent,
                     product_identity_check, quadratic_envelope_check,
                     resistance_exponent, same_segment_check)
from .sequence import (LevelSequence, cell_count, resistance_ratio,
                       time_factor, walk_exponent)
from .walks import (HittingStats, WalkConfig, commute_time_check,
                    exit_time_profile)

__version__ = "0.1.0"

# the public functions, classes and constants; a star import binds no submodule
__all__ = [name for name, value in vars().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
