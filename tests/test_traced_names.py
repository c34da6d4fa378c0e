"""The functions that perfbench traces stay bound in snewton."""

import ast
import functools
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """The ``TRACED`` list of the tracer, read from its source."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {TRACER}")


def test_every_traced_name_is_bound():
    names = traced_names()
    assert "polycore.dir_hessian" in names
    for path in names:
        module, *attributes = path.split(".")
        owner = importlib.import_module(f"snewton.{module}")
        assert callable(functools.reduce(getattr, attributes, owner)), path
