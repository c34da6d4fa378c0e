#!/usr/bin/env python3
"""Measure the dual-space code of one revision of snewton against another and
write BENCH_dualspace.json.

    python3 scripts/bench_dualspace.py --parent PARENT_TREE --change CHANGE_TREE \\
        --rounds 5 --pairs dual=981-990 --pairs catalog=991-1000 \\
        --pairs variants=1001-1010 --out BENCH_dualspace.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
Every number in the file comes from the one run its header describes:

* ``in_process``: on the instances of the perfbench ``dual`` workload (the
  catalog zeros but ``x2-xy``, and ``random_variant(n, k, seed=1)`` for its
  six (n, k)) plus two larger variants, per instance:
  - the cold first calls of ``multiplicity_structure`` and
    ``deflation_one_necessary`` (``cold_s``,
    ``cold_deflation_one_necessary_s``), each on a fresh copy of the system
    with every memoized table of ``polycore`` and ``dualspace`` emptied:
    the median of ``COLD_REPS`` calls per process, in ``COLD_ROUNDS`` short
    processes per revision that alternate between the revisions;
  - the medians of warm calls of both;
  - ``several_points_s``: ``deflation_one_necessary`` at ``POINTS``
    different points (the zero and points 1e-12 from it) on one fresh copy
    of the system, the case where a compiled shift is reused;
  - the Taylor shift at order min(2, deg f), the order every call makes:
    warm ``taylor_coefficients`` (``shift_s``) and the loop over the
    variables (``oracle_shift_s``: ``looped_taylor_shift`` of the tree's
    ``tests/oracles.py``);
  - the build of that shift's plan (``plan_build_s``), its bytes
    (``plan_bytes``) and the bytes of all the plans the system holds after
    the warm calls (``plans_held_bytes``);
  - the ``tracemalloc`` peaks of cold and warm ``multiplicity_structure``
    and cold ``deflation_one_necessary``.
  One fresh process per revision and round, the revision that goes first
  alternating; times and MB are the medians over the rounds, counts and
  bytes as every round has them (a list where rounds differ).
  ``cold_parity`` checks the cold calls against the parent: the gmean over
  the ``dual`` instances beside the spread of the parent's own rounds.  The
  factorizations of each order and the shift plans and graded-lex rows of
  a cold call are pinned by tests in ``tests/``, not counted here.
* ``large_first_call``: one first call of ``multiplicity_structure`` on
  ``random_variant(30, 3, seed=1)`` per revision, in a fresh process, under
  ``tracemalloc``: its time (building the system not counted), peak and
  dimensions.
* ``end_to_end`` (with ``--pairs``): perfbench pairs, one parent/change pair
  per seed, as ``scripts/abdriver.py`` runs and summarises them.

The options, the alternating processes and the save after every
measurement are those of ``scripts/abdriver.py``; the probes are here.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from abdriver import MIN_REPS, main, median_call, over_rounds

DUAL_VARIANTS = ((8, 2), (10, 2), (12, 2), (6, 3), (8, 3), (10, 3))  # as perfbench/workloads.py
LARGE_VARIANTS = ((20, 2), (30, 2))
LARGE_FIRST_CALL = (30, 3)  # one first call per revision: 1.5 GB before the commutation matrix
WARM_SECONDS = 0.3  # per quantity and instance, after at least MIN_REPS calls
COLD_REPS = 5  # cold calls per quantity, instance and round, each on a fresh copy
COLD_ROUNDS = 20  # cold processes per revision (one process can read 40 % off on a shared 2-CPU host)
COLD = (("cold_s", "multiplicity_structure"), ("cold_deflation_one_necessary_s", "deflation_one_necessary"))
POINTS = 8  # points per system in several_points_s


def _forget_tables():
    """Empty every memoized table of ``polycore`` and ``dualspace`` (the
    graded-lex tables and the block index of the candidate basis)."""
    from snewton import dualspace, polycore

    for module in (polycore, dualspace):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _peak_mb(fn) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _tree_module(directory: str, name: str):
    """The module ``name`` from ``directory`` of the tree whose ``src/`` is
    imported."""
    import importlib

    import snewton

    sys.path.insert(0, str(Path(snewton.__file__).resolve().parents[2] / directory))
    return importlib.import_module(name)


def _plan_bytes(plan) -> int:
    return sum(part.nbytes for part in plan if isinstance(part, np.ndarray))


def _cases():
    from snewton.bench import catalog, random_variant

    cases = [(e.name, e.system, e.zero) for e in catalog() if e.name != "x2-xy"]
    for n, k in DUAL_VARIANTS + LARGE_VARIANTS:
        cases.append((f"variant n={n} k={k}", *random_variant(n, k, seed=1)))
    return cases


def probe(cold: bool) -> dict:
    """Per instance, the cold calls (``cold``) or everything else."""
    from snewton import dualspace, polycore
    from snewton.dualspace import deflation_one_necessary, multiplicity_structure

    np.linalg.svd(np.ones((64, 64)))  # start the BLAS threads before any timing
    looped = _tree_module("tests", "oracles").looped_taylor_shift
    out = {}

    def warm(fn):
        return median_call(fn, WARM_SECONDS)[0]

    for label, system, zero in _cases():
        def fresh():
            _forget_tables()
            return polycore.system_from_terms(*system._arrays)

        row = out[label] = {}
        if cold:
            for name, fn in COLD:
                times = []
                for _ in range(COLD_REPS):
                    copy = fresh()
                    t = time.perf_counter()
                    getattr(dualspace, fn)(copy, zero)
                    times.append(time.perf_counter() - t)
                row[name] = float(np.median(times))
            continue
        copy = fresh()
        row["mu"] = multiplicity_structure(copy, zero).multiplicity
        for name, fn in COLD:
            prefix, copy = name.removesuffix("_s"), fresh()
            row[f"{prefix}_peak_mb"] = _peak_mb(lambda: getattr(dualspace, fn)(copy, zero))
        row["multiplicity_structure_s"] = warm(lambda: multiplicity_structure(system, zero))
        row["deflation_one_necessary_s"] = warm(lambda: deflation_one_necessary(system, zero))
        row["warm_peak_mb"] = _peak_mb(lambda: multiplicity_structure(system, zero))
        rng = np.random.default_rng(5)
        n = system.num_vars
        # 1e-12 off the zero |f| stays below 1e-10, so each point is a zero at the default tolerance
        points = [zero] + [zero + 1e-12 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                           for _ in range(POINTS - 1)]

        def several_points():
            copy = polycore.system_from_terms(*system._arrays)
            for xi in points:
                deflation_one_necessary(copy, xi)

        row["several_points_s"] = warm(several_points)
        order = min(2, system.degree())
        row["shift_s"] = warm(lambda: polycore.taylor_coefficients(system, zero, order))
        row["oracle_shift_s"] = warm(lambda: looped(system, zero, order))
        expo, _, term_rows, _ = system._arrays
        row["plan_build_s"] = warm(lambda: polycore._shift_plan(expo, term_rows, order))
        row["plan_bytes"] = _plan_bytes(polycore._shift_plan(expo, term_rows, order))
        row["plans_held_bytes"] = sum(
            _plan_bytes(plan) for key, plan in system._cache.items() if key[0] == "shift"
        )
    return out


def probe_large() -> dict:
    """One first call of ``multiplicity_structure`` on ``random_variant(30, 3,
    seed=1)`` under ``tracemalloc``."""
    import tracemalloc

    from snewton.bench import random_variant
    from snewton.dualspace import multiplicity_structure

    system, zero = random_variant(*LARGE_FIRST_CALL, seed=1)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = multiplicity_structure(system, zero)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"s": seconds, "peak_mb": peak / 1e6, "dims": report.dims,
            "candidate_dims": [basis.candidate_dim for basis in report.bases]}


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def measure(run) -> None:
    """The large first call, the warm and cold probes, then perfbench pairs."""
    doc, rounds = run.doc, run.args.rounds
    doc["large_first_call"] = {
        "what": "one first call of multiplicity_structure(random_variant({}, {}, seed=1)) per "
                "revision in a fresh process under tracemalloc: seconds (the system "
                "built before), peak MB, dims and candidate dims by order".format(*LARGE_FIRST_CALL),
        **{side: run.probe(side, "large") for side in run.trees},
    }
    run.save()
    section = doc["in_process"] = {
        "method": f"warm: one process per revision and round ({rounds} rounds, the first revision "
                  "alternating); per instance, medians of warm calls (the dual-space calls, the "
                  "Taylor shift at order min(2, deg f), the looped shift, the plan build, "
                  f"deflation_one_necessary at {POINTS} points on one fresh system) over at least "
                  f"{MIN_REPS} calls and {WARM_SECONDS} s, and tracemalloc peaks; times and MB are "
                  "medians over the rounds, counts and bytes as every round has them (a list "
                  "where rounds differ)",
        "cold_method": f"cold: short processes, one per revision and round ({COLD_ROUNDS} rounds, "
                       f"the first revision alternating), each timing per instance the median of "
                       f"{COLD_REPS} first calls, each on a fresh copy of the system with every "
                       "memoized table of polycore and dualspace emptied; values are medians over "
                       "the rounds",
        "instances": {},
    }
    instances = section["instances"]
    for kind, kind_rounds in (("warm", rounds), ("cold", COLD_ROUNDS)):
        probes = run.alternate(kind, kind_rounds)
        for side, runs in probes.items():
            for label, values in over_rounds(runs).items():
                instances.setdefault(label, {}).setdefault(side, {}).update(values)
        dual = list(instances)[: len(instances) - len(LARGE_VARIANTS)]  # the large variants come last
        if kind == "cold":
            spread = section["dual_parent_round_spread"] = {}
            for key, _ in COLD:
                spread[key] = [_gmean([p[lb][key] / instances[lb]["parent"][key] for lb in dual])
                               for p in probes["parent"]]
        run.save()

    def ratios(key):
        return {lb: instances[lb]["change"][key] / instances[lb]["parent"][key] for lb in dual}

    keys = ("multiplicity_structure_s", "deflation_one_necessary_s", "several_points_s", "shift_s",
            "cold_s", "cold_deflation_one_necessary_s", "cold_peak_mb",
            "cold_deflation_one_necessary_peak_mb", "warm_peak_mb")
    section["dual_gmean_change_over_parent"] = {key: _gmean(list(ratios(key).values())) for key in keys}
    section["cold_parity"] = {
        key: {
            "gmean_change_over_parent": section["dual_gmean_change_over_parent"][key],
            "parent_round_spread": [min(spread[key]), max(spread[key])],
            "worst_instance": max(ratios(key).items(), key=lambda kv: kv[1]),
        }
        for key, _ in COLD
    }
    run.save()
    run.pairs(claimed="dual second_s.gmean")


if __name__ == "__main__":
    sys.exit(main(
        __file__, __doc__,
        what="dual-space calls that check their input once: multiplicity_structure and "
             "deflation_one_necessary check the point and tolerance at entry, and each order takes "
             "the basis the call just made as Q without its shape, finiteness and orthonormality "
             "checks; order 1's candidates built as e_0 and the first-order functionals, without "
             "the commutation matrix",
        out="BENCH_dualspace.json", rounds=5, rounds_help="warm in-process rounds per revision",
        probes={"cold": lambda: probe(True), "warm": lambda: probe(False), "large": probe_large},
        measure=measure,
    ))
