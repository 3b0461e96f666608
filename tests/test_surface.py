"""The package's settable surface, counted so that a new knob is a visible edit.

A settable value is a function or lambda parameter other than self and cls,
or a dataclass or NamedTuple field.  A change that adds or removes one
updates the count below, as test_parser_surface does for CLI flags.
"""

import ast
from pathlib import Path

import thin_gasket

SETTABLE_VALUES = 433


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
