#!/usr/bin/env python3
"""Measure the least-squares layer of the deflation baseline and write BENCH_leastsq.json.

    python3 scripts/bench_leastsq.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs variants=7101-7110 --pairs catalog=7111-7120 --pairs dual=7121-7130 \\
        --out BENCH_leastsq.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
The script writes one JSON file in the layout of ``BENCH_onepass.json``:

* ``end_to_end``: perfbench pairs, one parent/change pair per seed of
  ``--pairs``, as ``scripts/abdriver.py`` runs and summarises them.
* ``shapes``: per-call medians of ``numla.least_squares`` and of
  ``np.linalg.lstsq`` on the shapes of the augmented Jacobian of one
  deflation round, (2n+1) x (2n-kappa+1) for n = 2..25 and kappa = 1..3,
  complex Gaussian matrices and right-hand sides, the solvers called in
  turn, in one fresh process per revision and round.  Where a revision has
  ``numla._QR_MIN_COLUMNS``, the QR path itself is also timed at every shape
  (``least_squares`` with that constant set to 1), and ``crossover`` is the
  fewest columns from which the QR path is faster than ``lstsq`` at every
  shape measured: what sets the constant.
* ``gauss_newton``: one ``deflate_once`` + ``gauss_newton`` run (the perfbench
  baseline task) on ``random_variant(n, 2, seed=1)`` from 1e-3 off the zero
  with the oracle tolerance, n in {10, 20, 50, 100}: its median time, its
  iterations, the ``np.linalg.lstsq`` calls and evaluation passes
  (``polycore._monomials`` calls) of one run, and a digest of its final
  point.

The options, the alternating processes and the save after every
measurement are those of ``scripts/abdriver.py``; the probes are here.
"""

from __future__ import annotations

import hashlib
import sys
import time

import numpy as np

from abdriver import MIN_REPS, PERFBENCH_COMMAND, counting, main, median_call

SHAPE_SIZES = range(2, 26)
SHAPE_KAPPAS = (1, 2, 3)
GN_SIZES = (10, 20, 50, 100)
PROBE_SECONDS = 0.3  # time per shape, its solvers called in turn, at least MIN_REPS turns
GN_SECONDS = 1.0  # time per baseline run size


def probe_shapes() -> dict:
    """Per-call medians in seconds per shape "rows x cols"."""
    from snewton import numla

    rng = np.random.default_rng(0)
    qr_columns = getattr(numla, "_QR_MIN_COLUMNS", None)
    out = {}
    for n in SHAPE_SIZES:
        for kappa in SHAPE_KAPPAS:
            rows, cols = 2 * n + 1, 2 * n - kappa + 1
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
            calls = {
                "least_squares": lambda: numla.least_squares(m, b),
                "lstsq": lambda: np.linalg.lstsq(m, b, rcond=None),
            }
            if qr_columns is not None:
                calls["qr_path"] = lambda: _with_qr_columns(numla, 1, m, b)
            out[f"{rows}x{cols}"] = {"n": n, "kappa": kappa, "cols": cols,
                                     **_interleaved(calls, PROBE_SECONDS)}
    return out


def _interleaved(calls: dict, seconds: float) -> dict:
    """The median time of each of ``calls``, timed one call of each in turn
    (after one warm-up call each) over at least ``MIN_REPS`` turns and
    ``seconds``, so that a drift of the machine's speed reaches all alike."""
    times = {name: [] for name in calls}
    for fn in calls.values():
        fn()
    start = time.perf_counter()
    while len(times["lstsq"]) < MIN_REPS or time.perf_counter() - start < seconds:
        for name, fn in calls.items():
            t = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t)
    return {name: float(np.median(t)) for name, t in times.items()}


def _with_qr_columns(numla, columns: int, m, b):
    kept, numla._QR_MIN_COLUMNS = numla._QR_MIN_COLUMNS, columns
    try:
        return numla.least_squares(m, b)
    finally:
        numla._QR_MIN_COLUMNS = kept


def probe_gauss_newton() -> dict:
    """The baseline task per size of ``GN_SIZES``, as the module docstring says."""
    from snewton import polycore
    from snewton.bench import random_variant, variant_rank_tolerance
    from snewton.lvz import deflate_once, gauss_newton

    out = {}
    for n in GN_SIZES:
        system, zero = random_variant(n, 2, seed=1)
        rng = np.random.default_rng(n)
        offset = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 = zero + 1e-3 * offset / np.linalg.norm(offset)
        tol = variant_rank_tolerance(system, zero, 2)

        def run():
            deflated, y0 = deflate_once(system, x0, tol, seed=2)
            return gauss_newton(deflated.system, y0, stop=1e-13)

        with counting(np.linalg, "lstsq") as lstsq, counting(polycore, "_monomials") as passes:
            trace = run()
        time_s, reps = median_call(run, GN_SECONDS, max_reps=200)
        out[f"n{n}"] = {
            "s": time_s,
            "reps": reps,
            "iterations": trace.iterations,
            "converged": trace.converged,
            "lstsq_calls": len(lstsq),
            "passes": len(passes),
            "distance": float(np.linalg.norm(trace.x[:n] - zero)),
            "x_sha256": hashlib.sha256(trace.x.tobytes()).hexdigest(),
        }
    return out


def _over_rounds(probes: list[dict], timed) -> dict:
    """Per key of the first probe, each value that ``timed(name)`` picks as
    its median over the rounds, every other value as the first round has it."""
    return {key: {name: float(np.median([p[key][name] for p in probes])) if timed(name) else value
                  for name, value in first.items()}
            for key, first in probes[0].items()}


def _crossover(shapes: dict) -> int | None:
    """The fewest columns from which ``qr_path`` is faster than ``lstsq`` at
    every shape measured, or None without QR-path times."""
    if not any("qr_path" in s for s in shapes.values()):
        return None
    return 1 + max((s["cols"] for s in shapes.values() if s["qr_path"] >= s["lstsq"]), default=0)


def measure(run) -> None:
    """Perfbench pairs, then the shapes, then the baseline runs."""
    doc, rounds = run.doc, run.args.rounds
    doc["end_to_end"] = {
        "command": PERFBENCH_COMMAND.format(run.args.seconds),
        "method": "parent/change pairs, one pair per seed, the side that runs first alternating "
                  "from pair to pair; medians and quartiles (numpy linear quantiles) over the "
                  "pairs; change_better_pairs counts pairs where the change reads lower",
        "claimed": "variants second_s.gmean",
        "workloads": {},
    }
    run.pairs(doc["end_to_end"]["workloads"])
    shapes = run.alternate("shapes", rounds)
    doc["shapes"] = {
        "method": f"one process per revision and round ({rounds} rounds, the first revision "
                  f"alternating); per shape the solvers are called in turn, over at least "
                  f"{MIN_REPS} turns and {PROBE_SECONDS} s after one warm-up call each; per solver "
                  "the median over its calls, then the median over the rounds; "
                  "qr_path is least_squares with numla._QR_MIN_COLUMNS = 1, where the revision "
                  "has that constant",
        "runs": {side: _over_rounds(p, lambda name: name not in ("n", "kappa", "cols"))
                 for side, p in shapes.items()},
    }
    doc["shapes"]["crossover"] = {side: _crossover(s) for side, s in doc["shapes"]["runs"].items()}
    run.save()
    gn = run.alternate("gauss_newton", rounds)
    doc["gauss_newton"] = {
        "method": f"one process per revision and round ({rounds} rounds); per size the median "
                  f"time of deflate_once + gauss_newton over at least {MIN_REPS} runs and "
                  f"{GN_SECONDS} s after one counted run; times are the medians over the rounds",
        "runs": {side: _over_rounds(p, lambda name: name == "s") for side, p in gn.items()},
    }
    run.save()


if __name__ == "__main__":
    sys.exit(main(
        __file__, __doc__,
        what="Gauss-Newton baseline by one Householder QR of [Dg | g]: numla.least_squares solves "
             "a tall matrix of at least _QR_MIN_COLUMNS columns by R and Q* rhs from one "
             "np.linalg.qr(mode='r') and the inverse of R, accepted below an exact 1-norm "
             "condition number of 1e12, else np.linalg.lstsq; gauss_newton takes g and Dg at each "
             "iterate from one evaluation",
        out="BENCH_leastsq.json", rounds=3, rounds_help="in-process rounds per probe",
        probes={"shapes": probe_shapes, "gauss_newton": probe_gauss_newton},
        measure=measure,
    ))
