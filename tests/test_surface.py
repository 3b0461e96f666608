"""The package's settable surface, counted so that a new knob is a visible edit.

A settable value is a function or lambda parameter other than self and cls,
or a dataclass or NamedTuple field.  A change that adds or removes one
updates the count below, as test_parser_surface does for CLI flags.

The public names, thin_gasket.__all__ (functions, classes and constants,
no submodule), are pinned the same way, so a name added or removed is an
edit to PUBLIC_NAMES.

The import boundary is guarded the same way: only linalg, the home of the
general solvers and their oracles, imports scipy when it loads, and only
acceptance imports linalg when it loads.
"""

import ast
from pathlib import Path
from types import ModuleType

import thin_gasket

SETTABLE_VALUES = 428

PUBLIC_NAMES = (
    "AddressSample", "ApproximationGraph", "BudgetError", "CellMeasure",
    "CertificateReport", "DivergenceReport", "DomainError", "EtaFunction",
    "GasketError", "HarmonicMatrix", "HarmonicSpec", "HittingStats", "LevelSequence",
    "PiecewiseScale", "RealizationError", "RealizationResult", "ResistanceResult",
    "ResistanceSolver", "SINGULARITY_GAP", "SequenceError", "SolveError", "WalkConfig",
    "base_energy", "boundary_cells", "build_graph", "cell_count",
    "children_sum_ceiling", "commute_time_check", "comparability_report",
    "comparison_checks", "corner_resistance", "divergence_statistic", "doubling_check",
    "effective_resistance", "energy_measure", "exit_time_profile",
    "geodesic_hops", "graph_to_json", "harmonic_extend", "harmonic_matrix",
    "index_to_word", "interior_letters", "is_cell_index", "knot_continuity_check",
    "mass_exponent", "matrix_stack", "matrix_stack_exact",
    "neighborhood_vertex_ids", "product_identity_check", "quadratic_envelope_check",
    "realize_sequence", "render_svg",
    "resistance_exponent", "resistance_ratio", "same_segment_check",
    "singularity_certificate", "slow_decay_eta", "summability_report",
    "time_factor", "walk_exponent", "word_to_index", "words",
)


def _is_record_class(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple" for b in node.bases)


def _settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            count += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_record_class(node):
            count += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                         for s in node.body)
    return count


def test_settable_value_count():
    package = Path(thin_gasket.__file__).parent
    per_module = {p.name: _settable_values(ast.parse(p.read_text()))
                  for p in sorted(package.glob("*.py"))}
    counts = ", ".join(f"{name} {n}" for name, n in per_module.items() if n)
    assert sum(per_module.values()) == SETTABLE_VALUES, f"settable values per module: {counts}"


def test_public_names():
    assert sorted(thin_gasket.__all__) == list(PUBLIC_NAMES)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from thin_gasket import *", namespace)
    del namespace["__builtins__"]
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
    assert sorted(namespace) == list(PUBLIC_NAMES)


def _load_time_imports(tree: ast.AST) -> list[str]:
    """The modules a module's import statements name outside function
    bodies, the ones that run when it loads: `from .x import y` gives .x
    and .x.y, `from . import y` gives .y."""
    names = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            names += [base] * bool(node.module) + [f"{base}{sep}{a.name}" for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return names


def _names_module(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def test_only_linalg_imports_scipy_and_only_acceptance_imports_linalg():
    package = Path(thin_gasket.__file__).parent
    imports = {p.name: _load_time_imports(ast.parse(p.read_text()))
               for p in sorted(package.glob("*.py"))}
    scipy = {name for name, found in imports.items()
             if any(_names_module(m, "scipy") for m in found)}
    linalg = {name for name, found in imports.items()
              if any(_names_module(m, ".linalg") or _names_module(m, "thin_gasket.linalg")
                     for m in found)}
    assert scipy == {"linalg.py"}
    assert linalg == {"acceptance.py"}
