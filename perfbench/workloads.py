"""The three benchmark workloads: inputs made from the seed, tasks, checks.

A task is one call of one pipeline on one instance (a solve).  ``run`` is the
only timed part; ``judge`` checks the result against the known answer and
returns (outcome, failure reason or None, iterations, digits).  The outcome
is what must repeat exactly across passes and between traced and untraced
runs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Sizes of the random variants f(A(X - b)) with f = [x_1^2..x_k^2, x_k+1..x_n].
VARIANT_SIZES = (10, 15, 20)
VARIANT_KAPPAS = (1, 2, 3)
# Instances per (n, k): the iteration count of one instance depends on its
# random start, so the gated times take the median of several per (n, k).
VARIANT_INSTANCES = 3
VARIANT_START_DISTANCE = 1e-3
CATALOG_DIGITS = (2, 3, 4)
CLI_DIGITS = 3
DUAL_VARIANTS = ((8, 2), (10, 2), (12, 2), (6, 3), (8, 3), (10, 3))

# x2-xy has a non-isolated zero: no multiplicity to check, nothing to refine to.
CATALOG_SKIP = {"x2-xy"}
CATALOG_NAMES = {
    "running-example", "x2-z3xy-y2", "truncated-sin", "stability-k2", "robustness-pair",
    "Caprasse", "cbms1", "cbms2", "Cyclic9", "KSS", "mth191",
}
# The one catalogued zero that needs two deflation rounds (README, criterion 5).
NOT_DEFLATION_ONE = {"x2-z3xy-y2"}
# stability-k2 has a second zero at (0,0,-1e-2).  From 2 digits the Jacobian
# has full rank at the catalog tol and deflate_once refuses by design; from 3
# digits Gauss-Newton on the randomly deflated system may converge to that
# other zero, depending on the seed.  Neither is a refinement of the start.
BASELINE_SKIP = {"stability-k2"}

PRIMARY = {"variants": "refine", "catalog": "refine", "dual": "dual"}
SECOND = {"variants": "deflate_gn", "catalog": "deflate_gn", "dual": "check"}


class SetupError(RuntimeError):
    """The workload cannot be built, so its correctness checks cannot run."""


@dataclass
class Task:
    pipeline: str
    label: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple]


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _subseed(seed, *key):
    return int(_rng(seed, *key).integers(2**31))


def _distance(x, zero):
    return float(np.linalg.norm(np.asarray(x)[: len(zero)] - zero))


def _digits(dist):
    return -math.log10(max(dist, 1e-30))


def _refine_task(sn, label, system, zero, x0, tol, step_seed):
    start = _distance(x0, zero)

    def run():
        return sn.twostep.refine(system, x0, sn.twostep.StepConfig(tol=tol, seed=step_seed))

    def judge(trace):
        dist = _distance(trace.x, zero)
        outcome = (trace.iterations, trace.stop_reason, trace.x.tobytes())
        reason = None
        if trace.stop_reason == "max_iters":
            reason = "stopped at the iteration cap"
        elif not dist < start:
            reason = f"ended at distance {dist:.3e}, started at {start:.3e}"
        return outcome, reason, trace.iterations, _digits(dist)

    return Task("refine", label, run, judge)


def _baseline_task(sn, label, system, zero, x0, tol, step_seed):
    start = _distance(x0, zero)

    def run():
        deflated, y0 = sn.lvz.deflate_once(system, x0, tol, seed=step_seed)
        return sn.lvz.gauss_newton(deflated.system, y0, stop=1e-13)

    def judge(gn):
        dist = _distance(gn.x, zero)
        outcome = (gn.iterations, gn.converged, gn.stationary, gn.x.tobytes())
        reason = None
        if not (gn.converged or gn.stationary):
            reason = "stopped at the iteration cap"
        elif not dist < start:
            reason = f"ended at distance {dist:.3e}, started at {start:.3e}"
        return outcome, reason, gn.iterations, _digits(dist)

    return Task("deflate_gn", label, run, judge)


def _dual_task(sn, label, system, zero, want):
    def run():
        return sn.dualspace.multiplicity_structure(system, zero)

    def judge(report):
        got = (report.breadth, report.depth, report.multiplicity)
        outcome = (got, tuple(report.dims), report.stabilized)
        reason = None if got == want and report.stabilized else f"breadth/depth/mu {got}, known {want}"
        return outcome, reason, len(report.bases) - 1, None

    return Task("dual", label, run, judge)


def _check_task(sn, label, system, zero, deflation_one, check_seed):
    def run():
        necessary = sn.dualspace.deflation_one_necessary(system, zero)
        return necessary, sn.dualspace.is_deflation_one(system, zero, seed=check_seed)

    def judge(result):
        reason = None
        if result != (True, deflation_one):
            reason = f"(necessary, deflation-one) = {result}, known (True, {deflation_one})"
        return result, reason, None, None

    return Task("check", label, run, judge)


def _format_point(x):
    return ",".join(
        f"{float(z.real)!r}{'-' if z.imag < 0 else '+'}{abs(float(z.imag))!r}i" for z in x
    )


def _cli_task(sn, label, argv, judge_payload):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sn.cli.main(argv)
        return code, out.getvalue()

    def judge(result):
        code, text = result
        if code != 0:
            return result, f"exit code {code}", None, None
        return result, judge_payload(json.loads(text)), None, None

    return Task("cli", label, run, judge)


def _catalog_entries(sn):
    entries = [e for e in sn.bench.catalog() if e.name not in CATALOG_SKIP]
    missing = CATALOG_NAMES - {e.name for e in entries}
    if missing:
        raise SetupError(f"catalog entries missing: {sorted(missing)}")
    return entries


def build_variants(sn, seed):
    refines, baselines = [], []
    for n, k, i in itertools.product(VARIANT_SIZES, VARIANT_KAPPAS, range(VARIANT_INSTANCES)):
        rng = _rng(seed, n, k, i)
        system, zero = sn.bench.random_variant(n, k, seed=int(rng.integers(2**31)))
        tol = sn.bench.variant_rank_tolerance(system, zero, k)
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 = zero + VARIANT_START_DISTANCE * direction / np.linalg.norm(direction)
        step_seed = int(rng.integers(2**31))
        label = f"variant n={n} k={k} #{i}"
        refines.append(_refine_task(sn, label, system, zero, x0, tol, step_seed))
        baselines.append(_baseline_task(sn, label, system, zero, x0, tol, step_seed))
    return refines + baselines


def build_catalog(sn, seed):
    refines, baselines, clis = [], [], []
    for entry in _catalog_entries(sn):
        for digits in CATALOG_DIGITS:
            x0 = sn.bench.perturbed_start(entry.zero, digits)
            step_seed = _subseed(seed, digits, *entry.name.encode())
            label = f"{entry.name} digits={digits}"
            refines.append(
                _refine_task(sn, label, entry.system, entry.zero, x0, entry.tol, step_seed)
            )
            if entry.name not in BASELINE_SKIP:
                baselines.append(
                    _baseline_task(sn, label, entry.system, entry.zero, x0, entry.tol, step_seed)
                )
        cli_seed = str(_subseed(seed, *entry.name.encode()))
        x0 = sn.bench.perturbed_start(entry.zero, CLI_DIGITS)
        start = _distance(x0, entry.zero)

        def refine_ok(payload, zero=entry.zero, start=start):
            x = np.array([complex(re, im) for re, im in payload["final_point"]])
            dist = _distance(x, zero)
            return None if dist < start else f"ended at distance {dist:.3e}"

        def check_ok(payload, want=entry.name not in NOT_DEFLATION_ONE):
            got = (payload["necessary_dimension_test"], payload["randomized_operator_test"])
            return None if got == (True, want) else f"verdict {got}, known (True, {want})"

        argv = ["refine", "--catalog", entry.name, f"--x0={_format_point(x0)}",
                "--tol", repr(float(entry.tol)), "--seed", cli_seed, "--format", "json"]
        clis.append(_cli_task(sn, f"refine {entry.name}", argv, refine_ok))
        argv = ["check", "--catalog", entry.name, "--seed", cli_seed, "--format", "json"]
        clis.append(_cli_task(sn, f"check {entry.name}", argv, check_ok))
    return refines + baselines + clis


def build_dual(sn, seed):
    duals, checks = [], []
    cases = []
    for entry in _catalog_entries(sn):
        known = (entry.kappa, entry.rho, entry.mu)
        cases.append((entry.name, entry.system, entry.zero, known, entry.name not in NOT_DEFLATION_ONE))
    for n, k in DUAL_VARIANTS:
        system, zero = sn.bench.random_variant(n, k, seed=_subseed(seed, n, k))
        cases.append((f"variant n={n} k={k}", system, zero, (k, k, 2**k), True))
    for label, system, zero, known, deflation_one in cases:
        check_seed = _subseed(seed, *label.encode())
        duals.append(_dual_task(sn, label, system, zero, known))
        checks.append(_check_task(sn, label, system, zero, deflation_one, check_seed))
    return duals + checks


BUILDERS = {"variants": build_variants, "catalog": build_catalog, "dual": build_dual}
