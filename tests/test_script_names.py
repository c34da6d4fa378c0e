"""The snewton names that the bench scripts in ``scripts/`` import or read
stay bound.  The scripts run outside the test suite, so a name they read
that snewton no longer has would otherwise fail only when a script runs."""

import ast
import functools
import importlib
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def snewton_names(source: str) -> set[str]:
    """The dotted snewton names that ``source`` imports (``import snewton``,
    ``from snewton import x``, ``from snewton.x import y``), reads as an
    attribute of a name that one of those imports binds (``x.y``), or names
    by a string after such a name in a call (``getattr(x, "y")``, or a
    wrapper such as ``wrap(x, "y")``).  A ``getattr`` with a default reads a
    name that a revision may lack, so it is left out."""
    tree = ast.parse(source)
    bound = {}  # the name an import binds -> the dotted name it binds it to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "snewton":
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "snewton")
    names = set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            names.add(f"{bound[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            owner, attr = node.args[:2]
            defaulted = getattr(node.func, "id", None) == "getattr" and len(node.args) > 2
            if (isinstance(owner, ast.Name) and owner.id in bound and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str) and not defaulted):
                names.add(f"{bound[owner.id]}.{attr.value}")
    return names


def resolves(name: str) -> bool:
    """Whether ``name`` is bound: the longest prefix of it that imports as a
    module, then one attribute per further part."""
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        try:
            functools.reduce(getattr, parts[k:], owner)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_every_snewton_name_a_script_reads_is_bound(script):
    names = snewton_names(script.read_text(encoding="utf-8"))
    missing = [name for name in sorted(names) if not resolves(name)]
    assert not missing, f"{script.name} reads names that snewton does not bind: {', '.join(missing)}"


def test_a_name_that_snewton_lost_is_reported():
    source = """
from snewton import dualspace, polycore as pc
from snewton.bench import get_entry, no_such_entry
import snewton

def probe(system, zero):
    with wrap(dualspace, "taylor_coefficients"), wrap(pc, "_shift_plan"):
        return dualspace.next_order, getattr(pc, "_no_such_constant", None), snewton.__file__
"""
    names = snewton_names(source)
    assert names == {"snewton", "snewton.__file__", "snewton.bench.get_entry", "snewton.bench.no_such_entry",
                     "snewton.dualspace", "snewton.dualspace.next_order", "snewton.dualspace.taylor_coefficients",
                     "snewton.polycore", "snewton.polycore._shift_plan"}
    assert [name for name in sorted(names) if not resolves(name)] == [
        "snewton.bench.no_such_entry", "snewton.dualspace.taylor_coefficients"]
