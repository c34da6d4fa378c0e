"""The functions that perfbench traces stay bound in snewton, where the
tracer can replace them and put them back."""

import ast
import functools
import importlib
import importlib.util
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


def test_every_traced_method_is_in_its_own_class_dict():
    # The tracer reads a method from its class's __dict__: one inherited from
    # a base class would raise KeyError there.
    for path in traced_names():
        module, *owner, attr = path.split(".")
        if owner:
            cls = getattr(importlib.import_module(f"snewton.{module}"), owner[0])
            assert attr in cls.__dict__, path


def test_tracer_install_then_restore_leaves_every_traced_object_in_place():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    paths = traced_names()
    modules = {"snewton": importlib.import_module("snewton")}
    modules.update((p.split(".")[0], importlib.import_module(f"snewton.{p.split('.')[0]}")) for p in paths)

    def lookup(path):
        module, *attributes = path.split(".")
        return functools.reduce(getattr, attributes, modules[module])

    homes = [*modules.values(), modules["polycore"].PolySystem]
    before, traced = [dict(vars(home)) for home in homes], [lookup(path) for path in paths]
    t = tracer.Tracer(modules)
    t.install()
    try:
        for path, original in zip(paths, traced):
            assert lookup(path) is not original, path  # wrapped while installed
    finally:
        t.restore()
    for home, held in zip(homes, before):
        assert vars(home).keys() == held.keys()
        assert all(vars(home)[name] is value for name, value in held.items()), home
