"""The functions that perfbench traces stay bound in snewton, where the
tracer can replace them and put them back."""

import ast
import collections
import functools
import importlib
import importlib.util
import math
import pathlib

import numpy as np

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


def tracer_and_modules():
    """The tracer module, and snewton's modules by the short names its
    ``Tracer`` takes."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {"snewton": importlib.import_module("snewton")}
    modules.update((p.split(".")[0], importlib.import_module(f"snewton.{p.split('.')[0]}")) for p in traced_names())
    return tracer, modules


def test_tracer_install_then_restore_leaves_every_traced_object_in_place():
    tracer, modules = tracer_and_modules()
    paths = traced_names()

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


def test_the_tracer_sees_one_two_step_per_iteration_of_refine():
    # perfbench's twostep.two_step.* and step_over_newton read the traced
    # two_step calls: a refine that stepped some other way would leave them
    # empty without an error
    from snewton.bench import random_variant, variant_rank_tolerance
    from snewton.twostep import StepConfig

    tracer, modules = tracer_and_modules()
    system, zero = random_variant(10, 2, seed=1)
    rng = np.random.default_rng(1)
    x0 = zero + 1e-3 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
    cfg = StepConfig(tol=variant_rank_tolerance(system, zero, 2), seed=0)
    t = tracer.Tracer(modules)
    t.install()
    try:
        t.enabled = True
        trace = modules["twostep"].refine(system, x0, cfg)
    finally:
        t.restore()
    assert trace.iterations >= 2
    assert len(t.steps) == trace.iterations
    iterates = [x0] + [step.x_double_prime for step in trace.steps[:-1]]
    assert [x.tobytes() for _, x in t.steps] == [np.asarray(x, dtype=complex).tobytes() for x in iterates]
    names = [span[0] for span in t.spans]
    assert names.count("twostep.two_step") == trace.iterations
    assert "numla.solve" not in names  # the kernel step solves B' without it


def test_the_tracer_sees_one_next_order_per_order_of_a_dual_space_call():
    # perfbench's dualspace.next_order.* and membership_cols read the traced
    # next_order calls: a call that stepped its orders some other way would
    # leave them short without an error
    from snewton.bench import random_variant

    tracer, modules = tracer_and_modules()
    dualspace = modules["dualspace"]
    system, zero = random_variant(8, 3, seed=1)
    t = tracer.Tracer(modules)
    t.install()
    try:
        t.enabled = True
        report = dualspace.multiplicity_structure(system, zero)
        dualspace.deflation_one_necessary(system, zero)
    finally:
        t.restore()
    steps = [span for span in t.spans if span[0] == "dualspace.next_order"]
    callers = collections.Counter(t.spans[span[3]][0] for span in steps)
    assert report.depth == 3 and len(report.bases) == 5  # orders 1-4 are steps
    assert callers == {"dualspace.multiplicity_structure": 4, "dualspace.deflation_one_necessary": 2}
    assert [span[5]["cols"] for span in steps] == [math.comb(8 + k, k) for k in (1, 2, 3, 4, 1, 2)]
