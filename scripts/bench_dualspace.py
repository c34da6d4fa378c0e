#!/usr/bin/env python3
"""Measure the dual-space code of one revision of snewton against another and
write BENCH_dualspace.json.

    python3 scripts/bench_dualspace.py --parent PARENT_TREE --change CHANGE_TREE \\
        --rounds 5 --pairs dual=921-930 --out BENCH_dualspace.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
The file records:

* ``in_process``: on the instances of the perfbench ``dual`` workload (the
  catalog zeros but ``x2-xy``, and ``random_variant(n, k, seed=1)`` for its
  six (n, k)) plus two larger variants, per instance: the first call of
  ``multiplicity_structure`` in the process (cold: no graded-lex table
  built yet), the medians of warm calls of ``multiplicity_structure`` and
  ``deflation_one_necessary``, and the ``tracemalloc`` peaks of a cold and
  a warm ``multiplicity_structure``.  One fresh process per revision and
  round, the revision that goes first alternating; the values are the
  medians over the rounds, in seconds and MB.
* ``end_to_end`` (with ``--pairs``): ``perfbench/run.py --workload W --seed
  S --seconds 30 --trace 0`` in each tree, one parent/change pair per seed,
  summarised as in ``BENCH_onepass.json`` by ``scripts/bench_onepass.py``.

The file is rewritten after every measurement.  ``--probe`` is the measuring
side, run by the script in a process whose ``PYTHONPATH`` is the tree's
``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_onepass import _machine, _revision, _run_perfbench, _seeds, _summary

DUAL_VARIANTS = ((8, 2), (10, 2), (12, 2), (6, 3), (8, 3), (10, 3))  # as perfbench/workloads.py
LARGE_VARIANTS = ((20, 2), (30, 2))
WARM_SECONDS = 0.3  # per quantity and instance, after at least MIN_REPS calls
MIN_REPS = 3


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
    """Empty the graded-lex table memo, where the revision has one."""
    from snewton import polycore

    memo = getattr(polycore, "_grlex", None)
    if memo is not None:
        memo.cache_clear()


def _peak_mb(fn) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def probe() -> dict:
    from snewton.bench import catalog, random_variant
    from snewton.dualspace import deflation_one_necessary, multiplicity_structure

    cases = [(e.name, e.system, e.zero) for e in catalog() if e.name != "x2-xy"]
    for n, k in DUAL_VARIANTS + LARGE_VARIANTS:
        cases.append((f"variant n={n} k={k}", *random_variant(n, k, seed=1)))
    np.linalg.svd(np.ones((64, 64)))  # start the BLAS threads before any timing
    out = {}
    for label, system, zero in cases:
        _forget_tables()
        t = time.perf_counter()
        report = multiplicity_structure(system, zero)
        cold = time.perf_counter() - t
        _forget_tables()
        cold_peak = _peak_mb(lambda: multiplicity_structure(system, zero))
        out[label] = {
            "mu": report.multiplicity,
            "cold_s": cold,
            "multiplicity_structure_s": _median_call(lambda: multiplicity_structure(system, zero)),
            "deflation_one_necessary_s": _median_call(lambda: deflation_one_necessary(system, zero)),
            "cold_peak_mb": cold_peak,
            "warm_peak_mb": _peak_mb(lambda: multiplicity_structure(system, zero)),
        }
    return out


# -- the driving side ------------------------------------------------------------------


def _run_probe(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--probe"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _gmean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_dualspace.json"))
    parser.add_argument("--rounds", type=int, default=5, help="in-process rounds per revision")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=FIRST-LAST",
                        help="one perfbench pair per seed of the range")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe()))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    order = list(trees)
    doc = {
        "schema": 1,
        "what": "dual-space orders without per-order rebuilds: one Taylor shift handed from "
                "order to order within a call, graded-lex tables memoized on (n, k), the basis "
                "carrying its coefficient matrix, MZ from one gather and one batched projection",
        "revisions": {side: _revision(tree) for side, tree in trees.items()},
        "machine": _machine(),
        "in_process": {
            "method": f"one process per revision and round ({args.rounds} rounds, the first "
                      "revision alternating); per instance, one cold multiplicity_structure "
                      "(graded-lex memo emptied first), then medians of warm calls over at least "
                      f"{MIN_REPS} calls and {WARM_SECONDS} s, then tracemalloc peaks of a cold "
                      "and a warm call; values are medians over the rounds, seconds and MB",
            "instances": {},
        },
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

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    rounds = {side: [] for side in trees}
    for r in range(args.rounds):
        for side in order if r % 2 == 0 else order[::-1]:
            rounds[side].append(_run_probe(trees[side]))
    labels = list(rounds["parent"][0])
    dual = labels[: len(labels) - len(LARGE_VARIANTS)]  # the large variants come last
    for label in labels:
        doc["in_process"]["instances"][label] = {
            side: {key: float(np.median([p[label][key] for p in probes]))
                   for key in probes[0][label]}
            for side, probes in rounds.items()
        }
    instances = doc["in_process"]["instances"]
    doc["in_process"]["dual_gmean_change_over_parent"] = {
        key: _gmean([instances[lb]["change"][key] / instances[lb]["parent"][key] for lb in dual])
        for key in ("cold_s", "multiplicity_structure_s", "deflation_one_necessary_s",
                    "cold_peak_mb", "warm_peak_mb")
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
