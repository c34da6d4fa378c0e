#!/usr/bin/env python3
"""snewton benchmark: one workload per run, results as JSON on stdout.

    python3 perfbench/run.py --workload variants --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  An untraced run starts ``WORKERS``
fresh worker processes (``worker.py``) one after another, each with an equal
share of ``--seconds``, and merges what they measured: a process's own speed
on this kind of machine varies from one process to the next, and several
processes average that out.  Each worker imports ``snewton`` from ``src/``,
sets up (import, catalog load, instance generation, one warm-up solve per
pipeline), then runs whole passes over the workload's tasks, one solve at a
time.  Every result is checked against its known answer, against the task's
first solve, and against the other workers.  A traced run uses one worker.
Solve and set-up times are scaled by the fixed unit of work in
``calibrate.py`` run between solves, which takes out the drift of the
machine's speed; the report keeps the unscaled values too.

The second-to-last line is a report with per-pipeline metrics, per-instance
times, the environment and every failure; the last line holds the metrics
listed in BENCHMARK.json: the end-to-end ones with ``--trace 0``, the
per-layer ones with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave the source tree as it was

from tracer import layer_unit  # noqa: E402
from workloads import BUILDERS, PRIMARY, SECOND  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s.gmean": "s",
    "solve_iter_ms.gmean": "ms",
    "second_s.gmean": "s",
    "peak_rss_mb": "MB",
}


def quantile(values, q):
    return float(np.quantile(values, q)) if values else 0.0


def gmean(values):
    return float(np.exp(np.mean(np.log(values)))) if values else 0.0


def _worker(args, seconds):
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark worker ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Merged:
    """The workers' results as one: every solve of every worker, per task."""

    def __init__(self, parts):
        self.parts = parts
        self.tasks = parts[0]["tasks"]
        count = len(self.tasks)
        self.samples = [[x for p in parts for x in p["samples"][i]] for i in range(count)]
        self.scaled = [[x for p in parts for x in p["scaled"][i]] for i in range(count)]
        self.solves = [sum(p["solves"][i] for p in parts) for i in range(count)]
        self.failures = [f for p in parts for f in p["failures"]]
        self.first = [next((p["first"][i] for p in parts if p["first"][i]), None) for i in range(count)]
        for p in parts[1:]:
            for (pipeline, label), mine, theirs in zip(self.tasks, p["first"], self.first):
                if mine and mine[0] != theirs[0]:
                    self.failures.append(f"{pipeline} {label}: outcome differs between workers")
        self.seconds = sum(p["seconds"] for p in parts)
        self.passes = sum(p["passes"] for p in parts)

    def _instances(self, pipeline, per_iteration, raw):
        out = []
        for (kind, label), samples, first in zip(self.tasks, self.samples if raw else self.scaled, self.first):
            if kind == pipeline and samples and (first[1] or not per_iteration):
                out.append((label, statistics.median(samples) / (first[1] if per_iteration else 1)))
        return out

    def medians(self, pipeline, per_iteration=False, raw=False):
        """Each instance's median solve time (or time per iteration), scaled to
        the calibration's reference speed unless ``raw``."""
        return [value for _, value in self._instances(pipeline, per_iteration, raw)]

    def cells(self, pipeline, per_iteration=False, raw=False):
        """As ``medians``, then the median over the instances of each cell:
        tasks whose labels differ only in their ``#i`` suffix."""
        groups = {}
        for label, value in self._instances(pipeline, per_iteration, raw):
            groups.setdefault(label.split(" #")[0], []).append(value)
        return [statistics.median(values) for values in groups.values()]

    def digest(self):
        """One hash of every task's outcome: iterations, stop reasons, points, mu."""
        return hashlib.sha256(repr([f and f[0] for f in self.first]).encode()).hexdigest()


def end_to_end(workload, run, setup_s, rss_mb, raw=False):
    primary = PRIMARY[workload]
    values = {
        "setup_s": setup_s,
        "solve_s.gmean": gmean(run.cells(primary, raw=raw)),
        "solve_iter_ms.gmean": 1e3 * gmean(run.cells(primary, per_iteration=True, raw=raw)),
        "second_s.gmean": gmean(run.cells(SECOND[workload], raw=raw)),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def named_report(workload, run, setup_s, rss_mb):
    """Per-pipeline metrics with units; percentiles are over per-instance medians."""
    out = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")}

    def p(pipeline, q, per_iteration=False):
        return quantile(run.medians(pipeline, per_iteration), q)

    def fail_frac(pipeline):
        total = sum(n for (kind, _), n in zip(run.tasks, run.solves) if kind == pipeline)
        failed = sum(1 for f in run.failures if f.startswith(pipeline + " "))
        return failed / total if total else 0.0

    if workload in ("variants", "catalog"):
        refine = [f for (kind, _), f in zip(run.tasks, run.first) if kind == "refine" and f]
        done = sum(len(s) for (kind, _), s in zip(run.tasks, run.samples) if kind == "refine")
        out.update({
            "refine_s.p50": (p("refine", 0.5), "s"),
            "refine_s.p90": (p("refine", 0.9), "s"),
            "refine_per_s": (done / run.seconds, "1/s"),
            "refine_iter_ms.p50": (1e3 * p("refine", 0.5, True), "ms"),
            "refine_iters": (sum(f[1] for f in refine), "count"),
            "refine_fail_frac": (fail_frac("refine"), "share"),
            "refine_digits.p50": (quantile([f[2] for f in refine], 0.5), "digits"),
            "deflate_gn_s.p50": (p("deflate_gn", 0.5), "s"),
            "deflate_gn_fail_frac": (fail_frac("deflate_gn"), "share"),
        })
    if workload == "catalog":
        out["cli_s.p50"] = (p("cli", 0.5), "s")
    if workload == "dual":
        out.update({
            "dual_s.p50": (p("dual", 0.5), "s"),
            "check_s.p50": (p("check", 0.5), "s"),
            "dual_fail_frac": (fail_frac("dual"), "share"),
        })
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workers = 1 if args.trace else WORKERS
    parts = [_worker(args, args.seconds / workers) for _ in range(workers)]
    run = Merged(parts)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": workers,
        "passes": run.passes,
        "timed_s": run.seconds,
        "solves": sum(run.solves),
        "outcome_digest": run.digest(),
    }
    if args.trace:
        layers = parts[0]["layers"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        report["spans_file"] = parts[0]["spans_file"]
    else:
        setup_s = statistics.median(p["setup_s"] for p in parts)
        rss_mb = max(p["rss_mb"] for p in parts)
        metrics = end_to_end(args.workload, run, setup_s, rss_mb)
        report["metrics"] = named_report(args.workload, run, setup_s, rss_mb)
        report["unscaled"] = end_to_end(
            args.workload, run, statistics.median(p["setup_raw_s"] for p in parts), rss_mb, raw=True
        )
        report["calibration_ms"] = [1e3 * statistics.median(p["calibration"]) for p in parts]
        report["refine_stops"] = {
            label: f[3] for (kind, label), f in zip(run.tasks, run.first) if kind == "refine" and f
        }
        report["instances"] = {
            f"{kind} {label}": [statistics.median(s), f[1]]
            for (kind, label), s, f in zip(run.tasks, run.samples, run.first) if s
        }
    report["failures"] = run.failures
    report["environment"] = parts[0]["environment"]

    for failure in run.failures:
        print(f"FAIL {args.workload}: {failure}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": sum(run.solves),
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
