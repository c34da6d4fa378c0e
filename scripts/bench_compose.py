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
* ``end_to_end`` (with ``--pairs``): perfbench pairs, one parent/change pair
  per seed, as ``scripts/abdriver.py`` runs and summarises them.

The options, the alternating processes and the save after every
measurement are those of ``scripts/abdriver.py``; the probes are here.
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

from abdriver import SIDES, main

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


def measure(run) -> None:
    """The in-process rounds, then perfbench pairs."""
    runs = run.alternate("compose", run.args.rounds)
    in_process = {}
    for case, quantities in runs["parent"][0].items():
        in_process[case] = {}
        for name in quantities:
            medians = {side: float(np.median([r[case][name] for r in runs[side]])) for side in SIDES}
            in_process[case][name] = {**medians, "change_over_parent": medians["change"] / medians["parent"]}
    run.doc |= {"rounds": run.args.rounds, "in_process": in_process}
    run.save()
    if run.args.pairs:
        run.pairs(run.doc.setdefault("end_to_end", {}))


if __name__ == "__main__":
    sys.exit(main(
        __file__, __doc__,
        what="the dual basis held as its coefficient matrix alone (functionals built on request) and "
             "the graded-lex tables held as arrays alone (monomials_upto builds its tuples per call)",
        out="BENCH_compose.json", rounds=5, rounds_help="processes per revision",
        probes={"compose": probe}, measure=measure,
    ))
