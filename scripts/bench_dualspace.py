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
    and cold ``deflation_one_necessary``, and the work of those cold calls:
    the shift plans they build (``_plans_built``) and the rows of the
    graded-lex tables they make (``_grlex_rows``: the rows of each table
    ``dualspace._grlex`` is asked for, every table emptied before the call),
    counted with the driver's ``counting``.
  One fresh process per revision and round, the revision that goes first
  alternating; the values are the medians over the rounds, in seconds,
  bytes, MB and counts.  ``cold_parity`` checks the cold calls against the
  parent: the gmean over the ``dual`` instances beside the spread of the
  parent's own rounds and, since a shared 2-CPU host spreads one
  instance's cold time too widely to resolve 10 %, the instances where one
  cold call does more work than at the parent (``instances_with_more_work``).
* ``factorizations``: per instance and order of ``multiplicity_structure``
  (the instances above, one process per revision), the shape of the array
  that every ``np.linalg.qr``, ``svd``, ``cholesky`` and ``inv`` call in
  ``next_order`` sees ("batch x rows x columns"), ``closedness``, the shape of the matrix
  whose kernel gives the candidates (the ``right_svd`` argument made before
  the order's Taylor shift: MZ or the commutation matrix K, none where the
  order has no such SVD), and ``work``, the sum over those calls of batch x
  rows x columns x min(rows, columns): a count of the factorization work
  that does not depend on the host's speed, where the cold timings cannot
  resolve a change of a few per cent per instance.
* ``large_first_call``: one first call of ``multiplicity_structure`` on
  ``random_variant(30, 3, seed=1)`` per revision, in a fresh process, under
  ``tracemalloc``: its time (building the system not counted), peak and
  dimensions.
* ``plan_reuse``: the share of Taylor shifts
  that find their plan compiled already, over the perfbench ``dual`` tasks
  (seed 7, a warm-up and ``PASSES`` passes, as perfbench runs them) and over
  CLI ``analyze`` and ``check`` on every catalog entry.
* ``end_to_end`` (with ``--pairs``): perfbench pairs, one parent/change pair
  per seed, as ``scripts/abdriver.py`` runs and summarises them.

The options, the alternating processes and the save after every
measurement are those of ``scripts/abdriver.py``; the probes are here.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import time
import types
from pathlib import Path

import numpy as np

from abdriver import MIN_REPS, PERFBENCH_COMMAND, counting, main, median_call

DUAL_VARIANTS = ((8, 2), (10, 2), (12, 2), (6, 3), (8, 3), (10, 3))  # as perfbench/workloads.py
LARGE_VARIANTS = ((20, 2), (30, 2))
LARGE_FIRST_CALL = (30, 3)  # one first call per revision: 1.5 GB before the commutation matrix
WARM_SECONDS = 0.3  # per quantity and instance, after at least MIN_REPS calls
COLD_REPS = 5  # cold calls per quantity, instance and round, each on a fresh copy
COLD_ROUNDS = 20  # cold processes per revision (one process can read 40 % off on a shared 2-CPU host)
COLD = (("cold_s", "multiplicity_structure"), ("cold_deflation_one_necessary_s", "deflation_one_necessary"))
POINTS = 8  # points per system in several_points_s
PASSES = 3  # passes over the perfbench dual tasks in plan_reuse


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


def _cold_work(call) -> dict:
    """The shift plans that ``call`` builds and the graded-lex table rows it
    makes: the rows of each table ``dualspace._grlex`` is asked for, every
    table emptied before the call."""
    from snewton import dualspace, polycore

    with counting(polycore, "_shift_plan") as plans, counting(dualspace, "_grlex") as tables:
        call()
    return {"plans_built": len(plans), "grlex_rows": sum(math.comb(n + k, n) for n, k in set(tables))}


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
            copy = fresh()
            for count, value in _cold_work(lambda: getattr(dualspace, fn)(copy, zero)).items():
                row[f"{prefix}_{count}"] = value
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


def probe_factorizations() -> dict:
    """Per instance and order of ``multiplicity_structure``, the shapes the
    QRs, SVDs, Cholesky factorizations and inverses of ``next_order`` see and
    their work count."""
    from snewton import dualspace
    from snewton.dualspace import multiplicity_structure

    orders, closedness = [], []
    real_step, real_spectrum = dualspace.next_order, dualspace.right_svd

    def step(*args, **kwargs):
        for made in (qrs, svds, cholesky, inverses, shifts, closedness):
            made.clear()
        basis = real_step(*args, **kwargs)
        shapes = {kind: [np.shape(a[0]) for a in made] for kind, made in
                  (("qr", qrs), ("svd", svds), ("cholesky", cholesky), ("inv", inverses))}
        work = sum(int(np.prod(shape)) * min(shape[-2:]) for kind in shapes.values() for shape in kind)
        orders.append({"order": basis.order, "work": work, "closedness": closedness[0] if closedness else None,
                       **{kind: ["x".join(map(str, shape)) for shape in kind_shapes]
                          for kind, kind_shapes in shapes.items()}})
        return basis

    def spectrum(a, *args, **kwargs):
        if not shifts:  # the matrix whose kernel gives the candidates comes before the shift
            closedness.append("x".join(map(str, np.shape(a))))
        return real_spectrum(a, *args, **kwargs)

    out = {}
    dualspace.next_order, dualspace.right_svd = step, spectrum
    try:
        with counting(np.linalg, "qr") as qrs, counting(np.linalg, "svd") as svds, \
                counting(np.linalg, "cholesky") as cholesky, counting(np.linalg, "inv") as inverses, \
                counting(dualspace, "_taylor") as shifts:
            for label, system, zero in _cases():
                orders = out.setdefault(label, {"orders": []})["orders"]
                multiplicity_structure(system, zero)
                out[label]["work"] = sum(order["work"] for order in orders)
    finally:
        dualspace.next_order, dualspace.right_svd = real_step, real_spectrum
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


def probe_reuse() -> dict:
    """The Taylor shifts that find their plan compiled already, over the
    perfbench ``dual`` tasks and over CLI ``analyze`` and ``check``."""
    import snewton
    from snewton import bench, cli, dualspace, lvz, numla, polycore, twostep

    def share(run):
        with counting(dualspace, "taylor_coefficients") as shifts, counting(polycore, "_shift_plan") as plans:
            run()
        return {"shifts": len(shifts), "plans_built": len(plans),
                "reused_share": 1 - len(plans) / max(len(shifts), 1)}

    workloads = _tree_module("perfbench", "workloads")
    sn = types.SimpleNamespace(package=snewton, bench=bench, cli=cli, dualspace=dualspace, lvz=lvz,
                               numla=numla, polycore=polycore, twostep=twostep)
    tasks = workloads.build_dual(sn, 7)
    pipelines = {task.pipeline: task for task in reversed(tasks)}  # the first task of each

    def passes():
        for task in pipelines.values():  # the warm-up, as perfbench's set-up makes it
            task.run()
        for _ in range(PASSES):
            for task in tasks:
                task.run()

    def clis():
        with contextlib.redirect_stdout(io.StringIO()):
            for entry in bench.catalog():
                if entry.name != "x2-xy":
                    for command in ("analyze", "check"):
                        cli.main([command, "--catalog", entry.name, "--format", "json"])

    return {"dual_tasks": share(passes), "cli_analyze_and_check": share(clis)}


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def measure(run) -> None:
    """The factorizations, the large first call, the warm and cold probes,
    the plan reuse, then perfbench pairs."""
    doc, rounds = run.doc, run.args.rounds
    doc["in_process"] = {"instances": {}}
    doc["end_to_end"] = {
        "command": PERFBENCH_COMMAND.format(run.args.seconds),
        "method": "parent/change pairs, one pair per seed, the side that runs first alternating "
                  "from pair to pair; medians and quartiles (numpy linear quantiles) over the "
                  "pairs; change_better_pairs counts pairs where the change reads lower",
        "claimed": "dual second_s.gmean",
        "workloads": {},
    }
    section, instances = doc["in_process"], doc["in_process"]["instances"]

    work = {side: run.probe(side, "factorizations") for side in run.trees}
    doc["factorizations"] = {
        "what": "per instance and order of multiplicity_structure, the shape of the array each "
                "np.linalg.qr, svd, cholesky and inv call in next_order sees, closedness: the "
                "shape of the matrix whose kernel gives the candidates (MZ or K), and work: the "
                "sum over those calls of batch x rows x columns x min(rows, columns)",
        "work_change_over_parent": {lb: work["change"][lb]["work"] / work["parent"][lb]["work"]
                                    for lb in work["parent"]},
        **work,
    }
    run.save()
    doc["large_first_call"] = {
        "what": "one first call of multiplicity_structure(random_variant({}, {}, seed=1)) per "
                "revision in a fresh process under tracemalloc: seconds (the system "
                "built before), peak MB, dims and candidate dims by order".format(*LARGE_FIRST_CALL),
        **{side: run.probe(side, "large") for side in run.trees},
    }
    run.save()

    def ratios(key, labels):
        return {lb: instances[lb]["change"][key] / instances[lb]["parent"][key] for lb in labels}

    def more_work(key, lb):  # more shift plans built or graded-lex table rows made in one cold call
        counts = [f"{key.removesuffix('_s')}_{count}" for count in ("plans_built", "grlex_rows")]
        return any(instances[lb]["change"][count] > instances[lb]["parent"][count] for count in counts)

    section["method"] = (
        f"warm: one process per revision and round ({rounds} rounds, the first revision "
        "alternating); per instance, medians of warm calls (the dual-space calls, the Taylor "
        "shift at order min(2, deg f), the looped shift, the plan build, deflation_one_necessary "
        f"at {POINTS} points on one fresh system) over at least {MIN_REPS} calls and "
        f"{WARM_SECONDS} s, tracemalloc peaks, and the shift plans built and graded-lex table "
        "rows made by one cold call of each; values are medians over the rounds, in seconds, "
        "bytes, MB and counts")
    section["cold_method"] = (
        f"cold: short processes, one per revision and round ({COLD_ROUNDS} rounds, the first "
        f"revision alternating), each timing per instance the median of {COLD_REPS} first calls, "
        "each on a fresh copy of the system with every memoized table of polycore and "
        "dualspace emptied; values are medians over the rounds")
    for kind, kind_rounds in (("warm", rounds), ("cold", COLD_ROUNDS)):
        probes = run.alternate(kind, kind_rounds)
        for label in probes["parent"][0]:
            for side, runs in probes.items():
                instances.setdefault(label, {}).setdefault(side, {}).update(
                    {key: float(np.median([p[label][key] for p in runs])) for key in runs[0][label]})
        dual = list(instances)[: len(instances) - len(LARGE_VARIANTS)]  # the large variants come last
        if kind == "cold":
            spread = section["dual_parent_round_spread"] = {}
            for key, _ in COLD:
                spread[key] = [_gmean([p[lb][key] / instances[lb]["parent"][key] for lb in dual])
                               for p in probes["parent"]]
        run.save()
    keys = ("multiplicity_structure_s", "deflation_one_necessary_s", "several_points_s", "shift_s",
            "cold_s", "cold_deflation_one_necessary_s", "cold_peak_mb",
            "cold_deflation_one_necessary_peak_mb", "warm_peak_mb")
    section["dual_gmean_change_over_parent"] = {key: _gmean(list(ratios(key, dual).values())) for key in keys}
    section["cold_parity"] = {
        key: {
            "gmean_change_over_parent": section["dual_gmean_change_over_parent"][key],
            "parent_round_spread": [min(section["dual_parent_round_spread"][key]),
                                    max(section["dual_parent_round_spread"][key])],
            "worst_instance": max(ratios(key, dual).items(), key=lambda kv: kv[1]),
            "instances_with_more_work": [lb for lb in dual if more_work(key, lb)],
        }
        for key, _ in COLD
    }
    doc["plan_reuse"] = {
        "what": "shares of the Taylor shifts (dualspace calls of taylor_coefficients) that find "
                f"their plan compiled already; dual_tasks: perfbench build_dual(seed 7), one "
                f"warm-up call per pipeline and {PASSES} passes over all tasks; "
                "cli_analyze_and_check: cli.main analyze and check on every catalog entry",
        **run.probe("change", "reuse"),
    }
    run.save()
    run.pairs(doc["end_to_end"]["workloads"])


if __name__ == "__main__":
    sys.exit(main(
        __file__, __doc__,
        what="dual-space calls that check their input once: multiplicity_structure and "
             "deflation_one_necessary check the point and tolerance at entry, and each order takes "
             "the basis the call just made as Q without its shape, finiteness and orthonormality "
             "checks; order 1's candidates built as e_0 and the first-order functionals, without "
             "the commutation matrix",
        out="BENCH_dualspace.json", rounds=5, rounds_help="warm in-process rounds per revision",
        probes={"cold": lambda: probe(True), "warm": lambda: probe(False), "reuse": probe_reuse,
                "factorizations": probe_factorizations, "large": probe_large},
        measure=measure,
    ))
