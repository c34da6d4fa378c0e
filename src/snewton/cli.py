"""Command-line front end.

Subcommands: refine (run the two-step iteration), analyze (dual-space
structure), check (deflation-one verdict), bench (experiment runners).
Exit codes: 0 success, 1 usage/input error, 2 refinement did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, dualspace
from .numla import SingularMatrixError, split_svd
from .polycore import PolyParseError, load_system_json
from .twostep import StepConfig, refine

_USAGE_ERROR = 1
_NOT_CONVERGED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snewton",
        description="Refine and classify singular zeros of polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--catalog", help="name of a built-in benchmark system")
        src.add_argument("--file", help="JSON file with {'vars': [...], 'polys': [...]}")
        p.add_argument("--x0", help="comma-separated start point, e.g. --x0 -0.999,1,1 or 2+0.5i,-i,1")
        p.add_argument("--format", choices=("json", "table"), default="table")

    p_refine = sub.add_parser("refine", help="run the two-step refinement")
    add_system_args(p_refine)
    p_refine.add_argument("--tol", default="auto", help="rank tolerance or 'auto'")
    p_refine.add_argument("--seed", type=int, default=0)
    p_refine.add_argument("--iters", type=int, default=20)
    p_refine.add_argument("--stop", type=float, default=1e-13)
    p_refine.add_argument("--reference", help="known zero for error annotation, a point as for --x0")

    p_analyze = sub.add_parser("analyze", help="dual-space structure at a point")
    add_system_args(p_analyze)
    p_analyze.add_argument("--max-order", type=int, default=12)

    p_check = sub.add_parser("check", help="deflation-one classification at a point")
    add_system_args(p_check)
    p_check.add_argument("--tol", default="auto", help="rank tolerance or 'auto'")
    p_check.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="run an experiment")
    p_bench.add_argument(
        "experiment", choices=("table1", "stability", "efficiency", "robustness")
    )
    p_bench.add_argument("--sizes", default="10:2", help="efficiency sizes, e.g. 10:2,50:2")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--iters", type=int, default=3)
    p_bench.add_argument("--format", choices=("json", "table"), default="table")
    return parser


def _join_points(argv: list[str]) -> list[str]:
    """``argv`` with a value of ``--x0`` or ``--reference`` that argparse would take for an
    option, one with a leading minus sign such as -0.999,1,1, joined to its flag by "="."""
    out = []
    for arg in argv:
        joins = out[-1:] in (["--x0"], ["--reference"]) and not arg.startswith("--")
        if joins and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_point(text: str, n: int, option: str) -> np.ndarray:
    """The ``n`` comma-separated entries of ``option``, like 1.5, inf, -i or
    2+0.5i; an error names the entry it cannot read."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"{option} has {len(parts)} coordinates, system has {n} variables")
    values = []
    for k, part in enumerate(parts, 1):
        try:  # only a trailing i is the imaginary unit
            values.append(complex(part[:-1] + "j" if part.endswith("i") else part))
        except ValueError:
            raise ValueError(f"{option} entry {k} is not a complex number: {part!r}") from None
    return np.array(values, dtype=complex)


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    """``n:kappa`` pairs separated by commas, e.g. ``10:2,50:2``."""
    sizes = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2 or not all(p.strip().isdigit() for p in parts):
            raise ValueError(f"--sizes entry {chunk!r} is not of the form n:kappa, e.g. 10:2")
        sizes.append((int(parts[0]), int(parts[1])))
    return sizes


def _load_system(args):
    if args.catalog:
        entry = bench.get_entry(args.catalog)
        return entry.system, entry
    system, _names = load_system_json(args.file)
    return system, None


def _start_point(args, system, entry) -> np.ndarray:
    if args.x0:
        return _parse_point(args.x0, system.num_vars, "--x0")
    if entry is not None:
        return entry.zero
    raise ValueError("--x0 is required when loading a system from a file")


def _emit(payload: dict, text: str, fmt: str):
    if fmt == "json":
        print(json.dumps(_strict(payload), sort_keys=True, allow_nan=False))
    else:
        print(text)


def _strict(value):
    """``value`` with each float that is not finite (a residual of a run that
    stopped as "nonfinite") as None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _cmd_refine(args) -> int:
    system, entry = _load_system(args)
    x0 = _start_point(args, system, entry)
    cfg = StepConfig(tol=args.tol, seed=args.seed, stop_residual=args.stop, max_iters=args.iters)
    reference = None
    if args.reference:
        reference = _parse_point(args.reference, system.num_vars, "--reference")
    elif entry is not None:
        reference = entry.zero
    try:
        trace = refine(system, x0, cfg, reference=reference)
    except SingularMatrixError as exc:  # a step refused its matrix: the run cannot go on
        print(f"error: {exc}", file=sys.stderr)
        return _NOT_CONVERGED
    lines = [
        f"iterations: {trace.iterations} (stop: {trace.stop_reason})",
        f"final residual: {trace.residuals[-1]:.3e}",
        "final point: " + ", ".join(bench.format_complex(z) for z in trace.x),
    ]
    if trace.error_exponents is not None:
        lines.append(
            "error exponents: " + " -> ".join(f"{e:.2f}" for e in trace.error_exponents)
        )
    _emit(trace.to_json(), "\n".join(lines), args.format)
    return 0 if trace.residuals[-1] <= cfg.stop_residual else _NOT_CONVERGED


def _cmd_analyze(args) -> int:
    system, entry = _load_system(args)
    x = _start_point(args, system, entry)
    report = dualspace.multiplicity_structure(system, x, max_order=args.max_order)
    text = (
        f"breadth kappa = {report.breadth}"
        + (" (regular point)" if report.regular else "")
        + f"\ndepth rho = {report.depth}\nmultiplicity mu = {report.multiplicity}"
        + f"\ndims by order: {report.dims}\nstabilized: {report.stabilized}"
    )
    _emit(report.to_json(), text, args.format)
    return 0


def _cmd_check(args) -> int:
    system, entry = _load_system(args)
    x = _start_point(args, system, entry)
    tol = args.tol if args.tol == "auto" else float(args.tol)
    split = split_svd(system.jacobian(x), tol)
    if split.kappa == 0:  # a regular zero, or no zero at all by the dual space's order-0 rule
        payload = {"schema": 1, "kappa": 0, "tol": split.tol, "verdict": "regular"}
        text = "kappa = 0: regular point, nothing to deflate"
        try:
            dualspace.multiplicity_structure(system, x, max_order=1)
        except ValueError as exc:  # x is checked, so x is not a zero
            payload.update(verdict="not a zero", reason=str(exc))
            text = f"kappa = 0: {exc}"
        _emit(payload, text, args.format)
        return 0
    try:
        necessary, why_not = dualspace.deflation_one_necessary(system, x), ""
    except ValueError as exc:  # x is checked, so x is not a zero: there is no dual space to count
        necessary, why_not = False, f" ({exc})"
    sufficient = dualspace.is_deflation_one(system, x, split.tol, seed=args.seed)
    verdict = "deflation-one" if necessary and sufficient else "NOT deflation-one"
    payload = {
        "schema": 1,
        "kappa": split.kappa,
        "tol": split.tol,
        "necessary_dimension_test": necessary,
        "randomized_operator_test": sufficient,
        "verdict": verdict,
    }
    text = (
        f"kappa = {split.kappa} (rank tolerance {split.tol:.3e})\n"
        f"necessary (order-2 dimension) test: {'pass' if necessary else 'FAIL'}{why_not}\n"
        f"sufficient (randomized operator) test: {'pass' if sufficient else 'FAIL'}\n"
        f"verdict: {verdict}"
    )
    _emit(payload, text, args.format)
    return 0


def _cmd_bench(args) -> int:
    if args.experiment == "table1":
        report = bench.run_table_convergence(iters=args.iters, seed=args.seed)
    elif args.experiment == "stability":
        report = bench.run_stability(
            k_values=[3, 4, 2], tol_values=[1e-2], iters=args.iters
        )
    elif args.experiment == "efficiency":
        report = bench.run_efficiency(_parse_sizes(args.sizes), iters=args.iters, seed=args.seed)
    else:
        report = bench.run_robustness()
    _emit(report.to_json(), report.to_text(), args.format)
    return 0


_COMMANDS = {
    "refine": _cmd_refine,
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_points(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return _USAGE_ERROR if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (PolyParseError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
