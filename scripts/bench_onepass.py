#!/usr/bin/env python3
"""Measure one revision of snewton against another and write BENCH_onepass.json.

    python3 scripts/bench_onepass.py --parent PARENT_TREE --change CHANGE_TREE \\
        --pairs variants=601-610 --pairs catalog=611-615 --pairs dual=616-620 \\
        --out BENCH_onepass.json

PARENT_TREE and CHANGE_TREE are two source trees (``src/`` and
``perfbench/``), for example ``git archive`` exports of the two commits.
The script writes one JSON file in the layout of ``BENCH_evaluator.json``:

* ``end_to_end``: ``perfbench/run.py --workload W --seed S --seconds 30
  --trace 0`` in each tree, one parent/change pair per seed, the side that
  runs first alternating from pair to pair; per metric the quartiles of each
  side, the pairs the change wins and whether the gap of the medians exceeds
  the parent's interquartile range; whether the iterations of every solve
  and the stop reason of every ``refine`` equal the parent's.
* ``in_process``: per-call medians of ``eval``, ``jacobian``, ``dir_hessian``,
  a Newton step (``eval``, ``jacobian`` and ``np.linalg.solve``),
  ``two_step``, ``two_step_newton`` (a corank-0 ``two_step``: a fixed
  tolerance below the kernel singular values), ``refine``, ``refine_auto``
  (``tol="auto"`` from 1e-2 off the zero to a residual of 1e-10) and one
  Gauss-Newton iterate on the deflated system (``eval``, ``jacobian`` and
  the least-squares step at a new point) on ``random_variant(n, 2,
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

The file is rewritten after every measurement, so an interrupted run leaves
what it measured.  ``--probe`` is the measuring side, run by the script in a
process whose ``PYTHONPATH`` is the tree's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

SIZES = (10, 15, 20, 50, 100, 200)
PROBE_SECONDS = 0.4  # time per quantity, after at least MIN_REPS calls
MIN_REPS = 3
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
    "gauss_newton_iterate": "s per call: eval, jacobian and least_squares of the once-deflated "
                            "system at a new point",
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


# -- the measuring side ------------------------------------------------------------------


def _median_call(fn, seconds=PROBE_SECONDS, max_reps=400):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (time.perf_counter() - start < seconds and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times)), len(times)


def _calls(owner, name: str, fn) -> int:
    """The calls of ``owner.name`` that one call of ``fn`` makes."""
    real, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    setattr(owner, name, counting)
    try:
        fn()
    finally:
        setattr(owner, name, real)
    return len(calls)


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

    def gn_iterate():
        y = points[next(turn) % 2]
        least_squares(g.jacobian(y), g.eval(y))

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
        "refine_passes": _calls(polycore, "_monomials", calls["refine"]),
        "two_step_newton_mode": two_step(system, x, newton_cfg).mode,
        "two_step_svds": _calls(np.linalg, "svd", calls["two_step"]),
        "two_step_newton_svds": _calls(np.linalg, "svd", calls["two_step_newton"]),
        "two_step_passes": _calls(polycore, "_monomials", calls["two_step"]),
        "two_step_newton_passes": _calls(polycore, "_monomials", calls["two_step_newton"]),
        "refine_auto_iterations": auto.iterations,
        "refine_auto_modes": dict(sorted(Counter(step.mode for step in auto.steps).items())),
        "refine_auto_stop": auto.stop_reason,
        "refine_auto_distance": float(np.linalg.norm(auto.x - zero)),
        "refine_auto_x_sha256": hashlib.sha256(auto.x.tobytes()).hexdigest(),
    }
    for name, fn in calls.items():
        fn()  # compile the term sets and factor indexes first
        out[name], out[f"{name}_reps"] = _median_call(fn)
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


# -- the driving side ------------------------------------------------------------------


def _run_probe(tree: Path, what: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-B", str(Path(__file__).resolve()), "--probe", what]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    # the gated metrics, then the report's own (such as catalog cli_s.p50)
    metrics = {**report["metrics"], **result["metrics"]}
    return {
        "digest": report["outcome_digest"],
        "iterations": {task: iterations for task, (_, iterations) in report["instances"].items()},
        "refine_stops": report["refine_stops"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": report["failures"],
        "metrics": {name: m["value"] for name, m in metrics.items()},
        "units": {name: m["unit"] for name, m in metrics.items()},
    }


def _quartiles(values) -> dict:
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def _summary(runs: list[tuple[dict, dict]]) -> dict:
    """The pairs of one workload summarised per metric; the change is better
    where it reads lower on every gated metric and every time, not on the
    report's rates and digit counts."""
    metrics = {}
    for name, unit in runs[0][0]["units"].items():
        parent = [p["metrics"][name] for p, _ in runs]
        change = [c["metrics"][name] for _, c in runs]
        pq, cq = _quartiles(parent), _quartiles(change)
        metrics[name] = {
            "unit": unit,
            "parent": pq,
            "change": cq,
            "parent_runs": parent,
            "change_runs": change,
            "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(runs),
            "change_over_parent": cq["median"] / pq["median"] if pq["median"] else None,
            "median_gap_exceeds_parent_iqr": abs(cq["median"] - pq["median"]) > pq["q3"] - pq["q1"],
        }
    return {
        "digests_match": all(p["digest"] == c["digest"] for p, c in runs),
        "iterations_match": all(p["iterations"] == c["iterations"] for p, c in runs),
        "refine_stops_match": all(p["refine_stops"] == c["refine_stops"] for p, c in runs),
        "correct": {"parent": all(p["correct"] for p, _ in runs),
                    "change": all(c["correct"] for _, c in runs)},
        "failed": {"parent": [p["failed"] for p, _ in runs], "change": [c["failed"] for _, c in runs]},
        "attempted": {"parent": [p["attempted"] for p, _ in runs],
                      "change": [c["attempted"] for _, c in runs]},
        "failures": {"parent": [p["failures"] for p, _ in runs],
                     "change": [c["failures"] for _, c in runs]},
        "metrics": metrics,
    }


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


def _revision(tree: Path) -> dict:
    """A digest of the tree's ``src/`` files, which names what was measured
    whether or not it is committed, and the commit of a git checkout."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    out = {"src_sha256": h.hexdigest()}
    if (tree / ".git").exists():
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True, check=True)
        out["commit"] = head.stdout.strip()
    return out


def _machine() -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _seeds(text: str) -> tuple[str, list[int]]:
    workload, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("BENCH_onepass.json"))
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=FIRST-LAST",
                        help="one perfbench pair per seed of the range")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--rounds", type=int, default=3, help="in-process rounds per size")
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe_cache() if args.probe == "cache" else probe(int(args.probe))))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "schema": 1,
        "what": "three evaluation passes per two-step iteration: Df(x') and D2f(x').v from "
                "one pass over a factor index that Df and D2f share, no f(x'); term arrays "
                "already in canonical order stored without a sort",
        "revisions": {side: _revision(tree) for side, tree in trees.items()},
        "machine": _machine(),
        "end_to_end": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                       "--trace 0, run in each tree",
            "method": "parent/change pairs, one pair per seed, the side that runs first alternating "
                      "from pair to pair; medians and quartiles (numpy linear quantiles) over the "
                      "pairs; change_better_pairs counts pairs where the change reads lower. Per "
                      "workload: digests_match (perfbench outcome digests equal in every pair), "
                      "correct, failed, attempted and failures as each run reports them, and per "
                      "metric its value in every run (parent_runs, change_runs), the ratio of the "
                      "medians (change_over_parent), whether the medians differ by more than the "
                      "parent's q3 - q1 (median_gap_exceeds_parent_iqr) and the pairs run",
            "claimed": "variants solve_s.gmean",
            "workloads": {},
        },
        "in_process": {
            "method": f"one process per revision, size and round ({args.rounds} rounds, the first "
                      "revision alternating); in each, per-call medians over at least "
                      f"{MIN_REPS} calls and {PROBE_SECONDS} s after one warm-up call, on "
                      "random_variant(n, 2, seed=1); times are the medians over the rounds, "
                      "every other value is the same in every round (a list where it is not)",
            "fields": FIELDS,
            "runs": {},
        },
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    order = list(trees)
    for spec in args.pairs:
        workload, seeds = _seeds(spec)
        runs = []
        for k, seed in enumerate(seeds):
            sides = order if k % 2 == 0 else order[::-1]
            got = {side: _run_perfbench(trees[side], workload, seed, args.seconds) for side in sides}
            runs.append((got["parent"], got["change"]))
            doc["end_to_end"]["workloads"][workload] = {"seeds": seeds[: k + 1], **_summary(runs)}
            save()

    for n in SIZES:
        rounds = {side: [] for side in trees}
        for r in range(args.rounds):
            for side in order if r % 2 == 0 else order[::-1]:
                rounds[side].append(_run_probe(trees[side], str(n)))
        doc["in_process"]["runs"][f"n{n}"] = {
            side: _over_rounds(probes) for side, probes in rounds.items()
        }
        save()

    doc["cache"] = {
        "method": "tracemalloc started after building random_variant(200, 2, seed=1); the "
                  "oracle tolerance (one jacobian) and one refine from 1e-3 off the zero; kept_mb is "
                  "the bytes still traced once its result is dropped, peak_mb the traced peak, "
                  "refine_iterations the iterations of that refine",
        **{side: _run_probe(tree, "cache") for side, tree in trees.items()},
    }
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
