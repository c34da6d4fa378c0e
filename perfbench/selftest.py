#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a source tree:

    python3 perfbench/selftest.py [--seconds 1]

1. For every workload, an untraced and a traced run of the same seed both
   print exactly the metric names and units listed in BENCHMARK.json.
2. The two runs give identical outcomes (iterations, stop reasons, final
   points, breadth/depth/multiplicity): their outcome digests agree, and
   both report every check as correct.  Within the traced run every traced
   solve is also compared with the task's first, untraced solve.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _expected(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, args.seed, args.seconds, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result, report = json.loads(lines[-1]), json.loads(lines[-2])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != _expected(spec, key):
                problems.append(f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: failures {report['failures'][:5]}")
            digests[trace] = report["outcome_digest"]
            print(f"{workload} trace={trace}: {len(got)} metrics, correct={result['correct']}")
        if len(set(digests.values())) != 1:
            problems.append(f"{workload}: traced and untraced outcomes differ")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, spec["workloads"][0]["name"], args.seed, args.seconds, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("without the sources the benchmark did not fail")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
