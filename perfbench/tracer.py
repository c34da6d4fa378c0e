"""In-memory span tracer that wraps snewton's public functions from outside.

Each traced function is replaced, in every snewton module that holds a
reference to it, by a wrapper that records one span: name, start, end, the
enclosing span and the solve id the benchmark set before the call.  Nothing
under ``src/`` changes; ``restore`` puts the original objects back.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

# Functions to wrap, as module.attribute.  A layer is named module.function.
# The wrapper is installed wherever the same object is bound, because several
# modules import these functions by name (``from .numla import solve``).
TRACED = [
    "polycore.dir_hessian",
    "polycore.PolySystem.eval",
    "polycore.PolySystem.jacobian",
    "polycore.normalized_partial",
    "polycore.compose_affine",
    "polycore.parse_system",
    "numla.split_svd",
    "numla.solve",
    "numla.singular_values",
    "numla.least_squares",
    "numla.kernel_basis",
    "twostep.refine",
    "twostep.two_step",
    "twostep.first_refinement",
    "twostep.second_refinement",
    "twostep.operator_B",
    "twostep.auto_tolerance",
    "lvz.deflate_once",
    "lvz.gauss_newton",
    "dualspace.multiplicity_structure",
    "dualspace.next_order",
    "dualspace.deflation_one_necessary",
    "dualspace.is_deflation_one",
    "bench.catalog",
    "bench.get_entry",
    "bench.random_variant",
    "cli.main",
]
LAYERS = [f"{path.split('.')[0]}.{path.split('.')[-1]}" for path in TRACED]

# Layers with traced callees get a self time as well.
WITH_SELF = {
    "polycore.dir_hessian",
    "twostep.refine",
    "twostep.two_step",
    "twostep.first_refinement",
    "twostep.second_refinement",
    "twostep.operator_B",
    "lvz.deflate_once",
    "lvz.gauss_newton",
    "dualspace.multiplicity_structure",
    "dualspace.next_order",
    "dualspace.deflation_one_necessary",
    "dualspace.is_deflation_one",
    "bench.catalog",
    "bench.get_entry",
    "bench.random_variant",
    "cli.main",
}

CLI_COMMANDS = ("refine", "check")


def _note(name, args, result):
    """Per-span facts the layer metrics need, taken from arguments and result."""
    if name == "twostep.two_step":
        return {"n": args[0].num_vars, "mode": result.mode}
    if name == "lvz.gauss_newton":
        return {"iters": result.iterations}
    if name == "dualspace.next_order":
        n = args[0].num_vars
        return {"cols": math.comb(n + result.order, result.order)}
    if name == "cli.main":
        argv = args[0] if args else []
        return {"cmd": argv[0] if argv else ""}
    return None


class Tracer:
    """Spans are tuples (name, start, end, parent index, solve id, note)."""

    def __init__(self, modules):
        self.modules = modules  # short name -> module object
        self.spans = []
        self.stack = []
        self.enabled = False
        self.solve = None
        self.steps = []  # (system, x) at each traced two_step, for the Newton probe
        self._saved = []

    def install(self):
        for path, name in zip(TRACED, LAYERS):
            mod, *owner, attr = path.split(".")
            home = self.modules[mod]
            targets = list(self.modules.values())
            if owner:  # a method is looked up on its class only
                home = getattr(home, owner[0])
                targets = [home]
            original = home.__dict__[attr]
            wrapper = self._wrap(name, original)
            for target in targets:
                if target.__dict__.get(attr) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def restore(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def write(self, path, first_timed):
        """Write every span once, at the end: names, then compact rows."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        rows = [
            [code[name], start, end, parent, solve]
            for name, start, end, parent, solve, _ in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "columns": ["name", "start", "end", "parent", "solve"],
                "names": names,
                "first_timed_span": first_timed,
                "spans": rows,
            }, fh)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                note = _note(name, args, result) if result is not None else None
                tracer.spans[index] = (name, start, end, parent, tracer.solve, note)
                if name == "twostep.two_step" and result is not None:
                    tracer.steps.append((args[0], args[1]))

        return traced


def layer_names(sizes):
    """Every per-layer metric name, in output order."""
    names = []
    for name in LAYERS:
        names += [f"{name}.calls", f"{name}.s"]
        if name in WITH_SELF:
            names.append(f"{name}.self_s")
    for cmd in CLI_COMMANDS:
        names += [f"cli.main.{cmd}.calls", f"cli.main.{cmd}.s"]
    for derived in ("dir_hessian_share", "operator_B_per_iter", "step_over_newton"):
        names.append(f"twostep.{derived}")
        names += [f"twostep.{derived}.n{n}" for n in sizes]
    names += ["twostep.retries", "lvz.gn_iters", "dualspace.membership_cols", "trace.overhead_share"]
    return names


def layer_unit(name):
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls") or name in ("twostep.retries", "lvz.gn_iters", "dualspace.membership_cols"):
        return "count"
    return "ratio"


def _median(values):
    return statistics.median(values) if values else 0.0


def _totals(spans, weight):
    """Weighted calls, seconds and self seconds per layer and cli subcommand."""
    calls, secs, child = defaultdict(float), defaultdict(float), defaultdict(float)
    for index, (name, start, end, parent, solve, note) in spans:
        w = weight(solve)
        keys = [name]
        if name == "cli.main" and note:
            keys.append(f"cli.main.{note['cmd']}")
        for key in keys:
            calls[key] += w
            secs[key] += w * (end - start)
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for index, (name, start, end, _, solve, _) in spans:
        self_s[name] += weight(solve) * (end - start - child[index])
    return calls, secs, self_s


def _safe_ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup_spans, timed_spans, solves, newton_s, sizes, overhead_share):
    """Per-layer metrics for one set-up plus one solve of every task.

    ``setup_spans`` and ``timed_spans`` are lists of (index, span) pairs, and
    a timed span's solve id is its task's index.  ``solves`` counts the traced
    solves of each task: a span is weighted by one over its task's count, so
    that tasks repeated within a pass count once.  ``newton_s`` holds one
    Newton-step time per traced two_step call, in call order.  Ratios whose
    base is zero (the layer never ran) read 0.
    """
    out = {}
    s_calls, s_secs, s_self = _totals(setup_spans, lambda solve: 1.0)
    weight = lambda solve: 1.0 / solves[solve]  # noqa: E731
    t_calls, t_secs, t_self = _totals(timed_spans, weight)
    for key in set(s_calls) | set(t_calls):
        out[f"{key}.calls"] = s_calls[key] + t_calls[key]
        out[f"{key}.s"] = s_secs[key] + t_secs[key]
        if key in WITH_SELF:
            out[f"{key}.self_s"] = s_self[key] + t_self[key]

    # Attribute each timed span to its enclosing two_step call, if any.
    owner = {}
    step_n, step_mode, step_s, step_w = {}, {}, {}, {}
    hess_s, op_b = defaultdict(float), defaultdict(int)
    second = gn_iters = 0.0
    cols = 0
    for index, (name, start, end, parent, solve, note) in timed_spans:
        w = weight(solve)
        if name == "twostep.two_step":
            owner[index] = index
            if note:
                step_n[index], step_mode[index] = note["n"], note["mode"]
                step_s[index], step_w[index] = end - start, w
        else:
            owner[index] = owner.get(parent, -1)
        step = owner[index]
        if step >= 0 and step != index:
            if name == "polycore.dir_hessian":
                hess_s[step] += end - start
            elif name == "twostep.operator_B":
                op_b[step] += 1
            elif name == "twostep.second_refinement":
                second += w
        if name == "lvz.gauss_newton" and note:
            gn_iters += w * note["iters"]
        if name == "dualspace.next_order" and note:
            cols = max(cols, note["cols"])

    steps = sorted(step_n)
    newton = dict(zip(steps, newton_s))
    groups = [("", steps)] + [(f".n{n}", [i for i in steps if step_n[i] == n]) for n in sizes]
    for suffix, group in groups:
        out[f"twostep.dir_hessian_share{suffix}"] = _safe_ratio(
            sum(step_w[i] * hess_s[i] for i in group), sum(step_w[i] * step_s[i] for i in group)
        )
        out[f"twostep.operator_B_per_iter{suffix}"] = _safe_ratio(
            sum(step_w[i] * op_b[i] for i in group), sum(step_w[i] for i in group)
        )
        out[f"twostep.step_over_newton{suffix}"] = _safe_ratio(
            _median([step_s[i] for i in group]), _median([newton[i] for i in group])
        )
    kernel_steps = sum(step_w[i] for i in steps if step_mode[i] != "newton")
    out["twostep.retries"] = second - kernel_steps
    out["lvz.gn_iters"] = gn_iters
    out["dualspace.membership_cols"] = cols
    out["trace.overhead_share"] = overhead_share
    for name, value in out.items():  # weighted counts: drop float dust
        if layer_unit(name) == "count":
            out[name] = round(value, 6)
    return {name: out.get(name, 0.0) for name in layer_names(sizes)}
