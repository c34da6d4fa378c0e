"""``Poly`` dicts stay at the edges: only ``polycore``, which parses and
prints with them, and the package ``__init__``, which exports the class,
refer to it by name.  Every other module works on a system's term arrays."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "snewton"
EDGES = {"polycore.py", "__init__.py"}


def poly_references(path):
    """The line numbers at which the module ``path`` imports ``Poly``, names
    it, or reads it as an attribute (``polycore.Poly``)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "Poly"]
        elif isinstance(node, ast.Name) and node.id == "Poly":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Poly":
            lines.append(node.lineno)
    return sorted(lines)


def test_poly_is_named_only_by_polycore_and_the_package_init():
    modules = sorted(SOURCE.rglob("*.py"))
    assert {path.name for path in modules} >= EDGES | {"bench.py", "dualspace.py", "twostep.py"}
    found = {path.name: poly_references(path) for path in modules if path.name not in EDGES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_sees_each_kind_of_reference(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .polycore import Poly, PolySystem\n"
        "from . import polycore\n"
        "p = Poly(1, {})\n"
        "q = polycore.Poly\n"
        "r: PolySystem = None\n"
    )
    assert poly_references(module) == [1, 3, 4]
