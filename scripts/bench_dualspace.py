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
    different points (the zero and points 1e-3 from it) on one fresh copy
    of the system, the case where a compiled shift is reused;
  - the Taylor shift at order min(2, deg f), the order every call makes:
    warm ``taylor_coefficients`` (``shift_s``) and the loop over the
    variables (``oracle_shift_s``: ``looped_taylor_shift`` of the tree's
    ``tests/oracles.py``, or the tree's own ``taylor_coefficients`` where the
    shift still is that loop);
  - where the tree compiles shifts: the build of that plan
    (``plan_build_s``), its bytes (``plan_bytes``) and the bytes of all the
    plans the system holds after the warm calls (``plans_held_bytes``);
  - the ``tracemalloc`` peaks of cold and warm ``multiplicity_structure``
    and cold ``deflation_one_necessary``.
  One fresh process per revision and round, the revision that goes first
  alternating; the values are the medians over the rounds, in seconds,
  bytes and MB.  ``cold_parity`` checks the cold calls against the parent:
  the gmean over the ``dual`` instances beside the spread of the parent's
  own rounds, and the instances more than 10 % slower.
* ``factorizations``: per instance and order of ``multiplicity_structure``
  (the instances above, one process per revision), the shape of the array
  that every ``np.linalg.qr`` and ``np.linalg.svd`` call in ``next_order``
  sees ("batch x rows x columns"), ``closedness``, the shape of the matrix
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
* ``plan_reuse`` (trees that compile shifts): the share of Taylor shifts
  that find their plan compiled already, over the perfbench ``dual`` tasks
  (seed 7, a warm-up and ``PASSES`` passes, as perfbench runs them) and over
  CLI ``analyze`` and ``check`` on every catalog entry.
* ``end_to_end`` (with ``--pairs``): ``perfbench/run.py --workload W --seed
  S --seconds 30 --trace 0`` in each tree, one parent/change pair per seed,
  summarised as in ``BENCH_onepass.json`` by ``scripts/bench_onepass.py``.

The file is rewritten after every measurement.  ``--probe`` is the measuring
side, run by the script in a process whose ``PYTHONPATH`` is the tree's
``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

from bench_onepass import _machine, _revision, _run_perfbench, _seeds, _summary

DUAL_VARIANTS = ((8, 2), (10, 2), (12, 2), (6, 3), (8, 3), (10, 3))  # as perfbench/workloads.py
LARGE_VARIANTS = ((20, 2), (30, 2))
LARGE_FIRST_CALL = (30, 3)  # one first call per revision: 1.5 GB before the commutation matrix
WARM_SECONDS = 0.3  # per quantity and instance, after at least MIN_REPS calls
MIN_REPS = 3
COLD_REPS = 5  # cold calls per quantity, instance and round, each on a fresh copy
COLD_ROUNDS = 20  # cold processes per revision (one process can read 40 % off on a shared 2-CPU host)
COLD = (("cold_s", "multiplicity_structure"), ("cold_deflation_one_necessary_s", "deflation_one_necessary"))
POINTS = 8  # points per system in several_points_s
PASSES = 3  # passes over the perfbench dual tasks in plan_reuse


# -- the measuring side ------------------------------------------------------------------


def _median_call(fn):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < WARM_SECONDS:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


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
    imported, or None."""
    import importlib

    import snewton

    sys.path.insert(0, str(Path(snewton.__file__).resolve().parents[2] / directory))
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _looped_shift():
    """The Taylor shift as one loop over the variables: the tree's test
    oracle, or its ``taylor_coefficients`` where that is still the loop."""
    from snewton.polycore import taylor_coefficients

    return getattr(_tree_module("tests", "oracles"), "looped_taylor_shift", taylor_coefficients)


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
    looped, build = _looped_shift(), getattr(polycore, "_shift_plan", None)
    out = {}
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
        copy = fresh()
        row["cold_peak_mb"] = _peak_mb(lambda: multiplicity_structure(copy, zero))
        copy = fresh()
        row["cold_deflation_one_necessary_peak_mb"] = _peak_mb(lambda: deflation_one_necessary(copy, zero))
        row["multiplicity_structure_s"] = _median_call(lambda: multiplicity_structure(system, zero))
        row["deflation_one_necessary_s"] = _median_call(lambda: deflation_one_necessary(system, zero))
        row["warm_peak_mb"] = _peak_mb(lambda: multiplicity_structure(system, zero))
        rng = np.random.default_rng(5)
        n = system.num_vars
        points = [zero] + [zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                           for _ in range(POINTS - 1)]

        def several_points():
            copy = polycore.system_from_terms(*system._arrays)
            for xi in points:
                deflation_one_necessary(copy, xi)

        row["several_points_s"] = _median_call(several_points)
        order = min(2, system.degree())
        row["shift_s"] = _median_call(lambda: polycore.taylor_coefficients(system, zero, order))
        row["oracle_shift_s"] = _median_call(lambda: looped(system, zero, order))
        if build is not None:
            expo, _, rows, _ = system._arrays
            row["plan_build_s"] = _median_call(lambda: build(expo, rows, order))
            row["plan_bytes"] = _plan_bytes(build(expo, rows, order))
            row["plans_held_bytes"] = sum(
                _plan_bytes(plan) for key, plan in system._cache.items() if key[0] == "shift"
            )
    return out


def probe_factorizations() -> dict:
    """Per instance and order of ``multiplicity_structure``, the shapes the
    QRs and SVDs of ``next_order`` see and their work count."""
    from snewton import dualspace
    from snewton.dualspace import multiplicity_structure

    calls, orders, closedness, shifted = [], [], [], []

    def recording(kind, real):
        def wrapped(a, *args, **kwargs):
            calls.append((kind, np.shape(a)))
            return real(a, *args, **kwargs)

        return wrapped

    def step(*args, **kwargs):
        calls.clear()
        closedness.clear()
        shifted.clear()
        basis = real_step(*args, **kwargs)
        work = sum(int(np.prod(shape)) * min(shape[-2:]) for _, shape in calls)
        orders.append({"order": basis.order, "work": work, "closedness": closedness[0] if closedness else None,
                       **{kind: ["x".join(map(str, shape)) for k, shape in calls if k == kind]
                          for kind in ("qr", "svd")}})
        return basis

    def spectrum(a, *args, **kwargs):
        if not shifted:
            closedness.append("x".join(map(str, np.shape(a))))
        return real_spectrum(a, *args, **kwargs)

    def taylor(*args, **kwargs):
        shifted.append(True)
        return real_taylor(*args, **kwargs)

    real_qr, real_svd, real_step = np.linalg.qr, np.linalg.svd, dualspace.next_order
    real_spectrum, real_taylor = dualspace.right_svd, dualspace._taylor
    np.linalg.qr, np.linalg.svd = recording("qr", real_qr), recording("svd", real_svd)
    dualspace.next_order, dualspace.right_svd, dualspace._taylor = step, spectrum, taylor
    out = {}
    try:
        for label, system, zero in _cases():
            orders = out.setdefault(label, {"orders": []})["orders"]
            multiplicity_structure(system, zero)
            out[label]["work"] = sum(order["work"] for order in orders)
    finally:
        np.linalg.qr, np.linalg.svd, dualspace.next_order = real_qr, real_svd, real_step
        dualspace.right_svd, dualspace._taylor = real_spectrum, real_taylor
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

    if not hasattr(polycore, "_shift_plan"):
        return {}
    counts = {"shifts": 0, "plans_built": 0}

    def counting(key, real):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapped

    dualspace.taylor_coefficients = counting("shifts", dualspace.taylor_coefficients)
    polycore._shift_plan = counting("plans_built", polycore._shift_plan)

    def share(run):
        counts.update(shifts=0, plans_built=0)
        run()
        return {**counts, "reused_share": 1 - counts["plans_built"] / max(counts["shifts"], 1)}

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


# -- the driving side ------------------------------------------------------------------


def _run_probe(tree: Path, kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--probe", kind]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _alternate(trees: dict, rounds: int, kind: str) -> dict:
    """``rounds`` probes per tree, the tree that goes first alternating."""
    order, probes = list(trees), {side: [] for side in trees}
    for r in range(rounds):
        for side in order if r % 2 == 0 else order[::-1]:
            probes[side].append(_run_probe(trees[side], kind))
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", choices=("cold", "warm", "reuse", "factorizations", "large"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_dualspace.json"))
    parser.add_argument("--rounds", type=int, default=5, help="warm in-process rounds per revision")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=FIRST-LAST",
                        help="one perfbench pair per seed of the range")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    if args.probe:
        probes = {"reuse": probe_reuse, "factorizations": probe_factorizations, "large": probe_large}
        print(json.dumps(probes.get(args.probe, lambda: probe(args.probe == "cold"))()))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    order = list(trees)
    doc = {
        "schema": 1,
        "what": "the candidates of each dual-space order from the kernel of the commutation "
                "matrix K of the restricted-integral coefficients (C(n, 2) min(d, C(n + k - 2, "
                "k - 2)) rows, n d columns, d = dim D^(k-1)), in place of the membership matrix MZ "
                "(n C(n + k - 1, k - 1) rows)",
        "revisions": {side: _revision(tree) for side, tree in trees.items()},
        "machine": _machine(),
        "in_process": {"instances": {}},
        "end_to_end": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                       "--trace 0, run in each tree",
            "method": "parent/change pairs, one pair per seed, the side that runs first alternating "
                      "from pair to pair; medians and quartiles (numpy linear quantiles) over the "
                      "pairs; change_better_pairs counts pairs where the change reads lower",
            "claimed": "dual solve_s.gmean",
            "workloads": {},
        },
    }
    section, instances = doc["in_process"], doc["in_process"]["instances"]

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    work = {side: _run_probe(tree, "factorizations") for side, tree in trees.items()}
    doc["factorizations"] = {
        "what": "per instance and order of multiplicity_structure, the shape of the array each "
                "np.linalg.qr and np.linalg.svd call in next_order sees, closedness: the shape of "
                "the matrix whose kernel gives the candidates (MZ or K), and work: the sum over "
                "the qr and svd calls of batch x rows x columns x min(rows, columns)",
        "work_change_over_parent": {lb: work["change"][lb]["work"] / work["parent"][lb]["work"]
                                    for lb in work["parent"]},
        **work,
    }
    save()
    doc["large_first_call"] = {
        "what": "one first call of multiplicity_structure(random_variant({}, {}, seed=1)) per "
                "revision in a fresh process under tracemalloc: seconds (the system "
                "built before), peak MB, dims and candidate dims by order".format(*LARGE_FIRST_CALL),
        **{side: _run_probe(tree, "large") for side, tree in trees.items()},
    }
    save()

    def ratios(key, labels):
        return {lb: instances[lb]["change"][key] / instances[lb]["parent"][key] for lb in labels}

    section["method"] = (
        f"warm: one process per revision and round ({args.rounds} rounds, the first revision "
        "alternating); per instance, medians of warm calls (the dual-space calls, the Taylor "
        "shift at order min(2, deg f), the looped shift, the plan build, deflation_one_necessary "
        f"at {POINTS} points on one fresh system) over at least {MIN_REPS} calls and "
        f"{WARM_SECONDS} s, and tracemalloc peaks; values are medians over the rounds, in "
        "seconds, bytes and MB")
    section["cold_method"] = (
        f"cold: short processes, one per revision and round ({COLD_ROUNDS} rounds, the first "
        f"revision alternating), each timing per instance the median of {COLD_REPS} first calls, "
        "each on a fresh copy of the system with every memoized table of polycore and "
        "dualspace emptied; values are medians over the rounds")
    for kind, rounds in (("warm", args.rounds), ("cold", COLD_ROUNDS)):
        probes = _alternate(trees, rounds, kind)
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
        save()
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
            "instances_above_1.10": {lb: r for lb, r in ratios(key, dual).items() if r > 1.10},
        }
        for key, _ in COLD
    }
    doc["plan_reuse"] = {
        "what": "shares of the Taylor shifts (dualspace calls of taylor_coefficients) that find "
                f"their plan compiled already; dual_tasks: perfbench build_dual(seed 7), one "
                f"warm-up call per pipeline and {PASSES} passes over all tasks; "
                "cli_analyze_and_check: cli.main analyze and check on every catalog entry",
        **_run_probe(trees["change"], "reuse"),
    }
    save()

    for spec in args.pairs:
        workload, seeds = _seeds(spec)
        runs = []
        for k, seed in enumerate(seeds):
            sides = order if k % 2 == 0 else order[::-1]
            got = {side: _run_perfbench(trees[side], workload, seed, args.seconds) for side in sides}
            runs.append((got["parent"], got["change"]))
            doc["end_to_end"]["workloads"][workload] = {"seeds": seeds[: k + 1], **_summary(runs)}
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
