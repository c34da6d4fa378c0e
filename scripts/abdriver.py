"""The measuring protocol that the ``bench_*.py`` scripts share.

A script compares two source trees, a parent and a change (``src/`` and
``perfbench/``, for example ``git archive`` exports of two commits), and
writes one JSON file, saved after every measurement.  It passes ``main`` its
docstring, its probes, the function that measures and its ``--out`` and
``--rounds`` defaults; the options, the file's header, the probe processes,
the alternating rounds, their reduction to one value per side and the
perfbench pairs with their ``end_to_end`` header are written here once.
``--probe KIND`` runs the script's probe ``KIND`` and prints its JSON; the
script runs it in a fresh process whose ``PYTHONPATH`` is a tree's ``src/``.
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
from pathlib import Path

import numpy as np

MIN_REPS = 3  # calls per median_call, at least
SIDES = ("parent", "change")
PERFBENCH_COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds {:g} --trace 0, "
                     "run in each tree")
PAIRS_METHOD = (
    "parent/change pairs, one pair per seed, the side that runs first alternating from pair to "
    "pair; medians and quartiles (numpy linear quantiles) over the pairs; change_better_pairs "
    "counts pairs where the change reads lower. Per workload: digests_match (perfbench outcome "
    "digests equal in every pair), correct, failed, attempted and failures as each run reports "
    "them, and per metric its value in every run (parent_runs, change_runs), the ratio of the "
    "medians (change_over_parent), whether the medians differ by more than the parent's q3 - q1 "
    "(median_gap_exceeds_parent_iqr) and the pairs run")


def main(script, doc: str, what: str, out: str, rounds: int, rounds_help: str, probes: dict, measure,
         argv=None) -> int:
    """Run ``probes[KIND]()`` for ``--probe KIND``; otherwise check the two
    trees and call ``measure(run)`` with a ``Run`` that holds them."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--probe", choices=list(probes), help=argparse.SUPPRESS)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path, default=Path(out))
    parser.add_argument("--rounds", type=int, default=rounds, help=rounds_help)
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=FIRST-LAST",
                        help="one perfbench pair per seed of the range")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probes[args.probe]()))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    measure(Run(script, args, what))
    return 0


def sides(k: int) -> tuple[str, ...]:
    """The order in which the trees run in round or pair ``k``: the parent
    first in even ones, the change first in odd ones."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


class Run:
    """One comparison: the script, its arguments (``args``), the two trees
    and the document (``doc``) written to ``args.out`` by ``save``."""

    def __init__(self, script, args, what: str):
        self.script, self.args = Path(script).resolve(), args
        self.trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        self.doc = {
            "schema": 1,
            "what": what,
            "revisions": {side: _revision(tree) for side, tree in self.trees.items()},
            "machine": _machine(),
        }

    def save(self) -> None:
        self.args.out.write_text(json.dumps(self.doc, indent=1) + "\n")

    def probe(self, side: str, kind: str) -> dict:
        """The script's probe ``kind``, run in a fresh process on the tree ``side``."""
        env = dict(os.environ, PYTHONPATH=str(self.trees[side] / "src"))
        cmd = [sys.executable, "-B", str(self.script), "--probe", kind]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def alternate(self, kind: str, rounds: int) -> dict[str, list[dict]]:
        """``rounds`` probes ``kind`` per tree, the tree that goes first alternating."""
        probes = {side: [] for side in SIDES}
        for r in range(rounds):
            for side in sides(r):
                probes[side].append(self.probe(side, kind))
        return probes

    def pairs(self, claimed: str | None = None) -> None:
        """The perfbench pairs of ``--pairs``, if any, as the document's
        ``end_to_end``: its command and method, the metric the change claims
        a gain on (``claimed``, where it claims one), and per workload the
        summary of its pairs, saved after every pair.  Each pair runs
        ``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0``
        in each tree, one parent/change pair per seed, the side that runs
        first alternating from pair to pair."""
        if not self.args.pairs:
            return
        section = self.doc["end_to_end"] = {"command": PERFBENCH_COMMAND.format(self.args.seconds),
                                            "method": PAIRS_METHOD}
        if claimed:
            section["claimed"] = claimed
        into = section["workloads"] = {}
        for spec in self.args.pairs:
            workload, seeds = _seeds(spec)
            runs = []
            for k, seed in enumerate(seeds):
                got = {side: _run_perfbench(self.trees[side], workload, seed, self.args.seconds)
                       for side in sides(k)}
                runs.append((got["parent"], got["change"]))
                into[workload] = {"seeds": seeds[: k + 1], **_summary(runs)}
                self.save()


def over_rounds(rounds: list):
    """One value from the rounds of a probe: a dict key by key, a float as its
    median over the rounds, and any other value as it is where every round
    agrees, or as the list of the rounds' values where they differ."""
    first = rounds[0]
    if isinstance(first, dict):
        return {key: over_rounds([r[key] for r in rounds]) for key in first}
    if isinstance(first, float):
        return float(np.median(rounds))
    return first if all(r == first for r in rounds) else list(rounds)


def median_call(fn, seconds: float, max_reps: int | None = None) -> tuple[float, int]:
    """The median time of calls of ``fn`` over at least ``MIN_REPS`` calls and
    ``seconds`` (at most ``max_reps`` calls), and the calls made."""
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (time.perf_counter() - start < seconds
                                    and (max_reps is None or len(times) < max_reps)):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times)), len(times)


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
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _seeds(text: str) -> tuple[str, list[int]]:
    """``WORKLOAD=FIRST-LAST`` (or ``WORKLOAD=SEED``) as the workload and its seeds."""
    workload, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))
