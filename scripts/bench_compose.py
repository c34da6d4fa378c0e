#!/usr/bin/env python3
"""Time the affine composition f(A(X - b)) of one revision of snewton against
another and write BENCH_compose.json.

    python3 scripts/bench_compose.py --parent PARENT_TREE --change CHANGE_TREE \\
        --rounds 5 --pairs variants=1101-1110 --pairs dual=1111-1120 \\
        --out BENCH_compose.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
Every number in the file comes from the one run its header describes:

* ``in_process``: one fresh process per revision and round, the revision
  that goes first alternating; the values are the medians over the rounds,
  in seconds.
  - ``compose_affine`` of Cyclic9 and of the cubic templates
    [x_1^3, x_2^3, x_3^3, x_4, ..., x_n] at n = 20, 50 and 100, each under
    the map of ``random_variant(n, k, seed=0)``: the first call of the
    process (``cold_s``, which builds the graded-lex tables the expansion
    reads) and the second (``warm_s``).
  - ``random_variant(n, 2)`` at n = 10, 15 and 20: the median of
    ``VARIANT_CALLS`` calls with seeds 0, 1, ..., after one warm-up call.
  - ``process``: the probe process's peak resident set size in MB
    (``ru_maxrss``), read after all of the above; the cubic at n = 100 sets it.
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
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_onepass import _machine, _revision, _run_perfbench, _seeds, _summary

CUBIC_SIZES = (20, 50, 100)
VARIANT_SIZES = (10, 15, 20)
VARIANT_CALLS = 50


def probe() -> dict:
    """The timings of one process, as the module docstring lists them."""
    from snewton import bench
    from snewton.polycore import compose_affine, system_from_terms

    def two_calls(system, n):
        a, b = bench._variant_map(n, 0)
        times = []
        for _ in range(2):
            start = time.perf_counter()
            compose_affine(system, a, b)
            times.append(time.perf_counter() - start)
        return {"cold_s": times[0], "warm_s": times[1]}

    out = {"Cyclic9": two_calls(bench.get_entry("Cyclic9").system, 9)}
    for n in CUBIC_SIZES:
        cubic = system_from_terms(np.diag(1 + 2 * (np.arange(n) < 3)), np.ones(n), np.arange(n), n)
        out[f"cubic n={n}"] = two_calls(cubic, n)
    for n in VARIANT_SIZES:
        bench.random_variant(n, 2, seed=0)
        times = []
        for seed in range(VARIANT_CALLS):
            start = time.perf_counter()
            bench.random_variant(n, 2, seed=seed)
            times.append(time.perf_counter() - start)
        out[f"random_variant n={n}"] = {"variant_s": float(np.median(times))}
    out["process"] = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return out


def _probe_tree(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def in_process(trees: dict, rounds: int) -> dict:
    runs = {side: [] for side in trees}
    for r in range(rounds):
        for side in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[side].append(_probe_tree(trees[side]))
    out = {}
    for case, quantities in runs["parent"][0].items():
        out[case] = {}
        for name in quantities:
            medians = {side: float(np.median([run[case][name] for run in runs[side]])) for side in trees}
            out[case][name] = {**medians, "change_over_parent": medians["change"] / medians["parent"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_compose.json"))
    parser.add_argument("--rounds", type=int, default=5, help="processes per revision")
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
    doc = {
        "schema": 1,
        "what": "the dual basis held as its coefficient matrix alone (functionals built on request) and "
                "the graded-lex tables held as arrays alone (monomials_upto builds its tuples per call)",
        "machine": _machine(),
        "revisions": {side: _revision(tree) for side, tree in trees.items()},
        "rounds": args.rounds,
        "in_process": in_process(trees, args.rounds),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for text in args.pairs:
        workload, seeds = _seeds(text)
        runs = []
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {side: _run_perfbench(trees[side], workload, seed, args.seconds) for side in order}
            runs.append((pair["parent"], pair["change"]))
            doc.setdefault("end_to_end", {})[workload] = {"seeds": seeds[: i + 1], **_summary(runs)}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
