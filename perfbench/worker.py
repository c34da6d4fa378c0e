#!/usr/bin/env python3
"""One benchmark worker: set up one workload, time it, print raw results.

    python3 -B perfbench/worker.py --workload dual --seed 1 --seconds 10 --trace 0

``run.py`` starts these one after another and merges what they print; the
last line of output is one JSON object.  The worker imports ``snewton`` from
``src/`` of the tree it sits in, and exits with code 2 when it cannot.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

start_import = time.perf_counter()
import numpy as np  # noqa: E402 - its import is part of set-up

NUMPY_IMPORT_S = time.perf_counter() - start_import

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("polycore", "numla", "twostep", "lvz", "dualspace", "bench", "cli")
TASK_MIN_S = 0.05
TASK_MAX_REPEATS = 20
# A task's solves are scaled by the median of this many calibration units on
# either side of it, so the scale follows the machine's speed second by second.
CALIBRATION_WINDOW = 3
SETUP_CALIBRATION_UNITS = 9


class Modules:
    """snewton's modules by short name, for the workloads and the tracer."""

    def __init__(self):
        self.package = importlib.import_module("snewton")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"snewton.{name}"))

    def by_name(self):
        return {"snewton": self.package, **{name: getattr(self, name) for name in MODULES}}


def fail(message):
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


def import_snewton():
    """Import snewton from this tree's src/ and nowhere else."""
    if not (SRC / "snewton" / "__init__.py").is_file():
        fail(f"no snewton package under {SRC}")
    sys.path.insert(0, str(SRC))
    sn = Modules()
    if Path(sn.package.__file__).resolve().parent != (SRC / "snewton").resolve():
        fail(f"imported snewton from {sn.package.__file__}, not from {SRC}")
    return sn


class Record:
    """Every solve of the timed phase: times, outcomes, failures.

    Within a pass a short task is repeated until it has run ``TASK_MIN_S``
    (at most ``TASK_MAX_REPEATS`` times), so that cheap instances get enough
    samples for a steady median.  One calibration unit runs before each task
    and one after the last; a task's solve times, scaled by the units around
    it, go to ``scaled``.
    """

    def __init__(self, tasks):
        self.tasks = tasks
        self.first = [None] * len(tasks)  # (outcome, iterations, digits) of the first solve
        self.samples = [[] for _ in tasks]  # seconds of each good solve, per task
        self.scaled = [[] for _ in tasks]  # the same, at the calibration's reference speed
        self.calibration = []  # every calibration unit
        self.solves = [0] * len(tasks)
        self.failures = []
        self.passes = 0
        self.seconds = 0.0

    def _solve(self, index, task):
        """Run and check one solve; return its seconds, or None if it failed."""
        self.solves[index] += 1
        start = time.perf_counter()
        try:
            result = task.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising solve is a failed solve
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                outcome, error, iterations, digits = task.judge(result)
            except Exception as exc:  # noqa: BLE001 - unreadable output fails the solve
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            if self.first[index] is None:
                self.first[index] = (outcome, iterations, digits)
            elif self.first[index][0] != outcome:
                error = "outcome differs from the first solve"
        if error is not None:
            self.failures.append(f"{task.pipeline} {task.label}: {error}")
            return None
        self.samples[index].append(elapsed)
        return elapsed

    def run_pass(self, tracer=None):
        start = time.perf_counter()
        before = [len(s) for s in self.samples]
        units = []
        for index, task in enumerate(self.tasks):
            units.append(calibrate.unit())
            if tracer is not None:
                tracer.solve = index
            spent, repeats = 0.0, 0
            while spent < TASK_MIN_S and repeats < TASK_MAX_REPEATS:
                elapsed = self._solve(index, task)
                if elapsed is None:
                    break
                spent += elapsed
                repeats += 1
        units.append(calibrate.unit())
        for index, (samples, scaled, lo) in enumerate(zip(self.samples, self.scaled, before)):
            window = units[max(0, index + 1 - CALIBRATION_WINDOW): index + 1 + CALIBRATION_WINDOW]
            scale = calibrate.factor(window)
            scaled.extend(x * scale for x in samples[lo:])
        self.calibration.extend(units)
        self.passes += 1
        self.seconds += time.perf_counter() - start

    def run_for(self, budget, tracer=None):
        """Whole passes, at least one more, while the next one fits in ``budget``."""
        start = time.perf_counter()
        target = self.passes + 1
        last = 0.0
        while self.passes < target or time.perf_counter() - start + last <= budget:
            t0 = time.perf_counter()
            self.run_pass(tracer)
            last = time.perf_counter() - t0

    def medians(self, pipeline):
        """Each instance's median scaled solve time."""
        return [statistics.median(s) for t, s in zip(self.tasks, self.scaled)
                if t.pipeline == pipeline and s]

    def to_json(self):
        def first(f, task):
            if f is None:
                return None
            outcome, iterations, digits = f
            stop = outcome[1] if task.pipeline == "refine" else None
            return [hashlib.sha256(repr(outcome).encode()).hexdigest(), iterations, digits, stop]

        return {
            "tasks": [[t.pipeline, t.label] for t in self.tasks],
            "first": [first(f, t) for f, t in zip(self.first, self.tasks)],
            "samples": self.samples,
            "scaled": self.scaled,
            "calibration": self.calibration,
            "solves": self.solves,
            "failures": self.failures,
            "passes": self.passes,
            "seconds": self.seconds,
        }


def set_up(sn, workload, seed, tracer=None):
    """Build the workload and warm each pipeline up once; with a tracer, the
    build is traced and the warm-up is not."""
    if tracer is not None:
        tracer.enabled = True
    tasks = workloads.BUILDERS[workload](sn, seed)
    if tracer is not None:
        tracer.enabled = False
    # The first LAPACK call above OpenBLAS's threading threshold pays a
    # one-time cost (up to 1 s seen here); pay it in set-up, not in a solve.
    np.linalg.svd(np.ones((200, 100), dtype=complex))
    seen = set()
    for task in tasks:  # one warm-up solve per pipeline, on its first instance
        if task.pipeline not in seen:
            seen.add(task.pipeline)
            with contextlib.suppress(Exception):  # the timed phase reports failures
                task.run()
    return tasks


def _blas_threads():
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        import ctypes

        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _newton_probe(sn, steps):
    """Seconds of one plain Newton step (Df, f, solve) at each traced point."""
    out = []
    for system, x in steps:
        start = time.perf_counter()
        try:
            sn.numla.solve(system.jacobian(x), system.eval(x))
        except sn.numla.SingularMatrixError:
            pass  # the factorization, which is the cost, has been paid
        out.append(time.perf_counter() - start)
    return out


def traced_run(sn, args):
    """Half the time untraced, then half traced; per-layer metrics of the traced half."""
    tracer = Tracer(sn.by_name())
    tracer.install()
    try:
        tasks = set_up(sn, args.workload, args.seed, tracer)
        setup_spans = list(enumerate(tracer.spans))
        record = Record(tasks)
        record.run_for(args.seconds / 2)
        primary = workloads.PRIMARY[args.workload]
        untraced = record.medians(primary)
        untraced_solves = list(record.solves)
        record.samples = [[] for _ in tasks]
        record.scaled = [[] for _ in tasks]
        lo = len(tracer.spans)
        tracer.enabled = True
        record.run_for(args.seconds / 2, tracer)
        tracer.enabled = False
        timed_spans = list(enumerate(tracer.spans))[lo:]
    finally:
        tracer.restore()
    traced = record.medians(primary)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    layers = layer_metrics(
        setup_spans, timed_spans, [a - b for a, b in zip(record.solves, untraced_solves)],
        _newton_probe(sn, tracer.steps), workloads.VARIANT_SIZES, overhead,
    )
    spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_file, lo)
    return record, {"layers": layers, "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    # Set-up is scaled by calibration units on both sides of it; their own
    # time is not set-up (the first, warm-up unit is).
    units = calibrate.measure(SETUP_CALIBRATION_UNITS)
    sn = import_snewton()
    try:
        if args.trace:
            record, extra = traced_run(sn, args)
        else:
            tasks = set_up(sn, args.workload, args.seed)
            setup_raw = NUMPY_IMPORT_S + time.perf_counter() - start - sum(units)
            units += calibrate.measure(SETUP_CALIBRATION_UNITS)
            extra = {"setup_raw_s": setup_raw, "setup_s": setup_raw * calibrate.factor(units)}
            record = Record(tasks)
            record.run_for(args.seconds)
    except workloads.SetupError as exc:
        fail(str(exc))
    print(json.dumps({
        **record.to_json(),
        **extra,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
