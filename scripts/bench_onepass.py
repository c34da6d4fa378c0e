#!/usr/bin/env python3
"""Measure one revision of snewton against another and write BENCH_onepass.json.

    python3 scripts/bench_onepass.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs variants=601-610 --pairs catalog=611-615 --pairs dual=616-620 \\
        --out BENCH_onepass.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
The script writes one JSON file in the layout of ``BENCH_evaluator.json``:

* ``end_to_end``: perfbench pairs, one parent/change pair per seed of
  ``--pairs``, as ``scripts/abdriver.py`` runs and summarises them.
* ``in_process``: per-call medians of ``eval``, ``jacobian``, ``dir_hessian``,
  a Newton step (``eval``, ``jacobian`` and ``np.linalg.solve``),
  ``two_step``, ``two_step_newton`` (a corank-0 ``two_step``: a fixed
  tolerance below the kernel singular values), ``refine``, ``refine_auto``
  (``tol="auto"`` from 1e-2 off the zero to a residual of 1e-10) and one
  Gauss-Newton iterate on the deflated system (g and Dg from one
  ``_values`` call, as ``gauss_newton`` takes them, and the least-squares
  step at a new point) on ``random_variant(n, 2,
  seed=1)``, in one fresh process per revision, size and round; the rounds
  alternate which revision goes first.  The Newton step and both
  ``two_step`` take a fresh point at every call, and ``step_over_newton``
  is the ratio of their medians.  Each probe also counts the
  ``np.linalg.svd`` calls and the evaluation passes (``polycore._monomials``
  calls) of one ``two_step`` and of one ``two_step_newton``, and the passes
  of the ``refine`` run; it reports the iterations and the stop reason of
  that run, and of the ``refine_auto`` run also the steps per mode, the
  final distance to the zero and a digest of the final point's bytes.
* ``cache``: the bytes ``tracemalloc`` still counts after one ``refine`` at
  n = 200 has returned, its result dropped: what the system's caches keep.

The options, the alternating processes and the save after every
measurement are those of ``scripts/abdriver.py``; the probes are here.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter

import numpy as np

from abdriver import MIN_REPS, PERFBENCH_COMMAND, counting, main, median_call

SIZES = (10, 15, 20, 50, 100, 200)
PROBE_SECONDS = 0.4  # time per quantity, after at least MIN_REPS calls
# What each value of an in-process probe is; a timed name NAME also has
# NAME_reps, the calls its median was taken over.
FIELDS = {
    "eval": "s per call: f at x, 1e-5*offset off the zero (offset a seeded complex Gaussian n-vector)",
    "jacobian": "s per call: Df at x",
    "dir_hessian": "s per call: D2f(x).v, v a seeded complex Gaussian n-vector",
    "newton_lu": "s per call: f and Df at a fresh point near x and np.linalg.solve",
    "two_step": "s per call: two_step at a fresh point near x with the oracle tolerance "
                "variant_rank_tolerance (corank 2)",
    "two_step_newton": "s per call: two_step at a fresh point near x with tol=1e-9, below the two "
                       "kernel singular values, so corank 0",
    "step_over_newton": "two_step / newton_lu",
    "refine": "s per call: refine with the oracle tolerance from zero + 1e-3*offset",
    "refine_auto": "s per call: refine with tol='auto' from zero + 1e-2*offset/|offset| to a "
                   "residual of 1e-10, at most 30 iterations",
    "gauss_newton_iterate": "s per call: g and Dg of the once-deflated system from one _values "
                            "call at a new point, as gauss_newton takes them, and least_squares",
    "refine_iterations": "iterations of the oracle-tolerance refine run",
    "refine_stop": "its stop reason (max_iters: it ran to the cap of 50)",
    "refine_passes": "its evaluation passes (f at the start point, then per iteration)",
    "two_step_newton_mode": "the mode of the tol=1e-9 two_step",
    "two_step_svds": "np.linalg.svd calls in one oracle-tolerance two_step",
    "two_step_newton_svds": "np.linalg.svd calls in one tol=1e-9 two_step",
    "two_step_passes": "evaluation passes in one oracle-tolerance two_step at a fresh point",
    "two_step_newton_passes": "evaluation passes in one tol=1e-9 two_step at a fresh point",
    "refine_auto_iterations": "iterations of the tol='auto' refine run",
    "refine_auto_modes": "its steps counted per mode",
    "refine_auto_stop": "its stop reason",
    "refine_auto_distance": "the 2-norm distance of its final point to the zero",
    "refine_auto_x_sha256": "sha256 of its final point's bytes",
}


def probe(n: int) -> dict:
    """Per-call medians in seconds at ``random_variant(n, 2, seed=1)``, and
    the counts and the ``tol="auto"`` run that the module docstring names."""
    from snewton import polycore
    from snewton.bench import random_variant, variant_rank_tolerance
    from snewton.lvz import deflate_once
    from snewton.numla import least_squares
    from snewton.polycore import dir_hessian
    from snewton.twostep import StepConfig, refine, two_step

    system, zero = random_variant(n, 2, seed=1)
    rng = np.random.default_rng(n)
    offset = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = zero + 1e-5 * offset
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tol = variant_rank_tolerance(system, zero, 2)
    cfg = StepConfig(tol=tol, seed=0)
    # the two kernel singular values at x are O(1e-5); 1e-9 keeps them
    newton_cfg = StepConfig(tol=1e-9, seed=0)
    x0 = zero + 1e-3 * offset
    x_auto = zero + 1e-2 * offset / np.linalg.norm(offset)
    # ROADMAP item 1's setting: to a residual of 1e-10, at most 30 iterations
    auto_cfg = StepConfig(tol="auto", seed=0, stop_residual=1e-10, max_iters=30)
    deflated, y0 = deflate_once(system, x, tol, seed=2)
    g = deflated.system
    points = [y0, y0 + 1e-9]  # a new point at every iterate, as in a run
    turn = iter(range(1 << 62))
    near = [x + 1e-9 * k for k in range(2)]  # fresh points near x, in turn

    def fresh():
        return near[next(turn) % 2]

    def gn_iterate():  # as gauss_newton makes one: g and Dg from one _values call, then the step
        y = points[next(turn) % 2]
        value, jac = g._values(y, (0, 1))
        least_squares(jac, value)

    def newton_lu():
        y = fresh()
        np.linalg.solve(system.jacobian(y), system.eval(y))

    calls = {
        "eval": lambda: system.eval(x),
        "jacobian": lambda: system.jacobian(x),
        "dir_hessian": lambda: dir_hessian(system, x, v),
        "newton_lu": newton_lu,
        "two_step": lambda: two_step(system, fresh(), cfg),
        "two_step_newton": lambda: two_step(system, fresh(), newton_cfg),
        "refine": lambda: refine(system, x0, cfg),
        "refine_auto": lambda: refine(system, x_auto, auto_cfg),
        "gauss_newton_iterate": gn_iterate,
    }
    auto = refine(system, x_auto, auto_cfg)
    oracle = refine(system, x0, cfg)
    out = {
        "refine_iterations": oracle.iterations,
        "refine_stop": oracle.stop_reason,
        "two_step_newton_mode": two_step(system, x, newton_cfg).mode,
    }
    counts = {
        "refine_passes": (polycore, "_monomials", "refine"),
        "two_step_svds": (np.linalg, "svd", "two_step"),
        "two_step_newton_svds": (np.linalg, "svd", "two_step_newton"),
        "two_step_passes": (polycore, "_monomials", "two_step"),
        "two_step_newton_passes": (polycore, "_monomials", "two_step_newton"),
    }
    for key, (owner, name, call) in counts.items():
        with counting(owner, name) as made:
            calls[call]()
        out[key] = len(made)
    out |= {
        "refine_auto_iterations": auto.iterations,
        "refine_auto_modes": dict(sorted(Counter(step.mode for step in auto.steps).items())),
        "refine_auto_stop": auto.stop_reason,
        "refine_auto_distance": float(np.linalg.norm(auto.x - zero)),
        "refine_auto_x_sha256": hashlib.sha256(auto.x.tobytes()).hexdigest(),
    }
    for name, fn in calls.items():
        fn()  # compile the term sets and factor indexes first
        out[name], out[f"{name}_reps"] = median_call(fn, PROBE_SECONDS, max_reps=400)
    out["step_over_newton"] = out["two_step"] / out["newton_lu"]
    return out


def probe_cache(n: int = 200) -> dict:
    import gc
    import tracemalloc

    from snewton.bench import random_variant, variant_rank_tolerance
    from snewton.twostep import StepConfig, refine

    system, zero = random_variant(n, 2, seed=1)
    rng = np.random.default_rng(n)
    x0 = zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    gc.collect()
    tracemalloc.start()
    cfg = StepConfig(tol=variant_rank_tolerance(system, zero, 2), seed=0)
    trace = refine(system, x0, cfg)
    iterations = trace.iterations
    del trace
    gc.collect()
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"n": n, "refine_iterations": iterations, "kept_mb": kept / 1e6, "peak_mb": peak / 1e6}


def _over_rounds(probes: list[dict]) -> dict:
    """Times and repeat counts as their median over the rounds; every other
    value as it was in each round, or the list of them where the rounds
    disagree."""
    out = {}
    for name, first in probes[0].items():
        values = [p[name] for p in probes]
        if isinstance(first, float) or name.endswith("_reps"):
            out[name] = float(np.median(values))
        else:
            out[name] = first if all(value == first for value in values) else values
    return out


def measure(run) -> None:
    """Perfbench pairs, then the in-process probes per size, then the cache."""
    doc, rounds = run.doc, run.args.rounds
    doc["end_to_end"] = {
        "command": PERFBENCH_COMMAND.format(run.args.seconds),
        "method": "parent/change pairs, one pair per seed, the side that runs first alternating "
                  "from pair to pair; medians and quartiles (numpy linear quantiles) over the "
                  "pairs; change_better_pairs counts pairs where the change reads lower. Per "
                  "workload: digests_match (perfbench outcome digests equal in every pair), "
                  "correct, failed, attempted and failures as each run reports them, and per "
                  "metric its value in every run (parent_runs, change_runs), the ratio of the "
                  "medians (change_over_parent), whether the medians differ by more than the "
                  "parent's q3 - q1 (median_gap_exceeds_parent_iqr) and the pairs run",
        "claimed": "catalog solve_s.gmean",
        "workloads": {},
    }
    doc["in_process"] = {
        "method": f"one process per revision, size and round ({rounds} rounds, the first "
                  "revision alternating); in each, per-call medians over at least "
                  f"{MIN_REPS} calls and {PROBE_SECONDS} s after one warm-up call, on "
                  "random_variant(n, 2, seed=1); times are the medians over the rounds, "
                  "every other value is the same in every round (a list where it is not)",
        "fields": FIELDS,
        "runs": {},
    }
    run.pairs(doc["end_to_end"]["workloads"])
    for n in SIZES:
        probes = run.alternate(str(n), rounds)
        doc["in_process"]["runs"][f"n{n}"] = {side: _over_rounds(p) for side, p in probes.items()}
        run.save()
    doc["cache"] = {
        "method": "tracemalloc started after building random_variant(200, 2, seed=1); the "
                  "oracle tolerance (one jacobian) and one refine from 1e-3 off the zero; kept_mb is "
                  "the bytes still traced once its result is dropped, peak_mb the traced peak, "
                  "refine_iterations the iterations of that refine",
        **{side: run.probe(side, "cache") for side in run.trees},
    }
    run.save()


if __name__ == "__main__":
    sys.exit(main(
        __file__, __doc__,
        what="one SVD per two-step iteration: the kappa x kappa B' solved by a division or one "
             "inverse, refused at an exact 1-norm condition number of 1e12; the split body that "
             "split_svd uses, handed Df after a finiteness check only; one finiteness test (a "
             "vdot); a monomial pass that takes its first factor as it is and skips x**1",
        out="BENCH_onepass.json", rounds=3, rounds_help="in-process rounds per size",
        probes={**{str(n): lambda n=n: probe(n) for n in SIZES}, "cache": probe_cache},
        measure=measure,
    ))
