"""Benchmark catalog and experiment runners.

The catalog mixes small built-in systems (the records of ``_BUILTINS``) with
classic benchmark systems shipped as JSON data files next to this module,
all in one record format and built by one function, ``_entry``.  A missing
or corrupt data file only drops that one entry, with a warning.

The runners reproduce the standard experiment grid: convergence-rate
sequences from low-precision starts, stability of the corank estimate under
zero clustering, a wall-clock comparison against the deflation baseline on
random variant systems, and the robustness split between the two pipelines.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lvz
from .numla import cond, singular_values
from .polycore import PolySystem, _system_from_json, compose_affine, system_from_terms
from .twostep import StepConfig, refine, two_step

__all__ = [
    "CatalogEntry",
    "ExperimentReport",
    "catalog",
    "get_entry",
    "template_system",
    "stability_system",
    "random_variant",
    "run_convergence",
    "run_stability",
    "run_efficiency",
    "run_robustness",
    "format_complex",
]

_DATA_DIR = Path(__file__).parent / "data"


@dataclass
class CatalogEntry:
    """One benchmark system with its reference zero and expected structure.

    ``rho``/``mu`` are None for the catalogued non-isolated zero, whose dual
    space never stabilizes.  ``tol`` is the recommended Jacobian rank
    tolerance for refinement runs near the zero; ``zero_tol`` bounds
    ||f(zero)|| (loose for entries whose zero is irrational or truncated).
    """

    name: str
    system: PolySystem
    variables: list[str]
    zero: np.ndarray
    kappa: int
    rho: int | None
    mu: int | None
    tol: float
    zero_tol: float
    note: str


@dataclass
class ExperimentReport:
    """Rows of one experiment, one dict per (system, config) pair."""

    experiment: str
    rows: list[dict]

    def to_json(self) -> dict:
        return {"schema": 1, "experiment": self.experiment, "rows": self.rows}

    def to_text(self) -> str:
        if not self.rows:
            return f"{self.experiment}: no rows"
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        cells = [[_cell(row.get(k, "")) for k in keys] for row in self.rows]
        widths = [max(len(k), *(len(r[i]) for r in cells)) for i, k in enumerate(keys)]
        header = "  ".join(k.ljust(w) for k, w in zip(keys, widths))
        sep = "-" * len(header)
        lines = [self.experiment, header, sep]
        for r in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_cell(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


# The built-in systems by name, each the record a data file holds besides its
# name (see ``_entry``), one line per kind of field.
_BUILTINS = {
    "running-example": {
        "vars": ["x", "y", "z"], "zero": [[1.0, 0.0]] * 3,
        "polys": ["x^2 - x + y + z - 2", "y^2 + x - y + z - 2", "z^2 + x + y - z - 2"],
        "kappa": 2, "rho": 2, "mu": 4, "tol": 0.1, "zero_tol": 1e-8,
        "note": "three-variable quadratic system with a fourfold zero at (1,1,1)",
    },
    "x2-xy": {
        "vars": ["x", "y"], "zero": [[0.0, 0.0]] * 2,
        "polys": ["x^2", "x*y"],
        "kappa": 2, "rho": None, "mu": None, "tol": 0.1, "zero_tol": 1e-8,
        "note": "non-isolated zero embedded in the line x=0; dual space never stabilizes",
    },
    "x2-z3xy-y2": {
        "vars": ["x", "y", "z"], "zero": [[0.0, 0.0]] * 3,
        "polys": ["x^2", "z^3 + x*y", "y^2"],
        "kappa": 3, "rho": 5, "mu": 12, "tol": 0.1, "zero_tol": 1e-8,
        "note": "isolated zero needing two deflation rounds",
    },
    # sin t as t - t^3/6 (1/6 is 0.16666666666666666), of degree 3: the dropped terms, such as
    # z*y^5/120, have degree >= 6, past the orders the dual space probes, so kappa 3, rho 4 and
    # mu 11 still hold.
    "truncated-sin": {
        "vars": ["x", "y", "z"], "zero": [[0.0, 0.0]] * 3,
        "polys": [
            "x^3 + z*y - 0.16666666666666666*z*y^3",
            "y^3 + x*z - 0.16666666666666666*x*z^3",
            "z^3 + y*x - 0.16666666666666666*y*x^3",
        ],
        "kappa": 3, "rho": 4, "mu": 11, "tol": 0.1, "zero_tol": 1e-6,
        "note": "cubic/sine system with sin replaced by its degree-3 Taylor polynomial",
    },
    "stability-k2": {  # stability_system(2)
        "vars": ["x", "y", "z"], "zero": [[0.0, 0.0]] * 3,
        "polys": ["x^2", "y^2", "z^2 + 0.01*z"],
        "kappa": 2, "rho": 2, "mu": 4, "tol": 1e-2, "zero_tol": 1e-8,
        "note": "x^2, y^2, z^2 + 1e-2 z; second zero at (0,0,-1e-2)",
    },
    "robustness-pair": {
        "vars": ["x", "y"], "zero": [[0.0, 0.0]] * 2,
        "polys": ["x - y^2", "x^2 - y^2"],
        "kappa": 1, "rho": 1, "mu": 2, "tol": 0.1, "zero_tol": 1e-8,
        "note": "corank-1 double zero at the origin; the deflated system has a spurious stationary point",
    },
}


def _entry(data, source) -> CatalogEntry:
    """The entry of the record ``data`` read from ``source``: its "name", the
    "vars" and "polys" that ``_system_from_json`` checks and parses, its
    "zero" as [re, im] pairs, one per variable, and the fields of a
    ``CatalogEntry`` ("zero_tol" 1e-8 and "note" empty when absent)."""
    system, names = _system_from_json(data, source)
    zero = np.array([complex(re, im) for re, im in data["zero"]])
    if zero.shape != (system.num_vars,):
        raise ValueError("zero length does not match the variable count")
    return CatalogEntry(
        name=data["name"],
        system=system,
        variables=names,
        zero=zero,
        kappa=int(data["kappa"]),
        rho=None if data["rho"] is None else int(data["rho"]),
        mu=None if data["mu"] is None else int(data["mu"]),
        tol=float(data["tol"]),
        zero_tol=float(data.get("zero_tol", 1e-8)),
        note=str(data.get("note", "")),
    )


def _load_data_entry(path: Path) -> CatalogEntry:
    with open(path, "r", encoding="utf-8") as fh:
        return _entry(json.load(fh), path)


def catalog(data_dir: Path | str | None = None) -> list[CatalogEntry]:
    """All available entries: built-ins plus data-file systems.

    A data file that is missing or fails to load drops only its own entry
    (with a warning); everything else is still served.
    """
    entries = [_entry({"name": name, **row}, name) for name, row in _BUILTINS.items()]
    directory = Path(data_dir) if data_dir is not None else _DATA_DIR
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            try:
                entries.append(_load_data_entry(path))
            except Exception as exc:  # noqa: BLE001 - any bad file is skipped
                warnings.warn(f"catalog entry {path.name} unavailable: {exc}", stacklevel=2)
    return entries


def get_entry(name: str, data_dir: Path | str | None = None) -> CatalogEntry:
    """The entry called ``name``: a built-in, else the one in the data file
    ``<name lowercased>.json``, which is how data files are named.  Only
    when that file is missing or holds another entry is the whole catalog
    loaded, so that a bad file is warned about and a ``KeyError`` lists
    every entry, as with ``catalog``."""
    if name in _BUILTINS:
        return _entry({"name": name, **_BUILTINS[name]}, name)
    directory = Path(data_dir) if data_dir is not None else _DATA_DIR
    path = directory / f"{name.lower()}.json"
    if path.parent == directory and path.is_file():
        try:
            entry = _load_data_entry(path)
        except Exception:  # noqa: BLE001 - the catalog scan below warns about it
            entry = None
        if entry is not None and entry.name == name:
            return entry
    entries = catalog(data_dir)
    for entry in entries:
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in entries)
    raise KeyError(f"no catalog entry named {name!r} (available: {known})")


# ---------------------------------------------------------------------------
# Random variants
# ---------------------------------------------------------------------------


def template_system(n: int, k: int) -> PolySystem:
    """[x_1^2, ..., x_k^2, x_{k+1}, ..., x_n]; corank k at the origin."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return system_from_terms(np.diag(1 + (np.arange(n) < k)), np.ones(n), np.arange(n), n)


def random_variant(n: int, k: int, seed=0) -> tuple[PolySystem, np.ndarray]:
    """Affine variant X -> template(A (X - b)) with a random well-conditioned
    A and random b; the returned point b is its singular zero (corank k,
    multiplicity 2^k)."""
    template = template_system(n, k)
    a, b = _variant_map(n, seed)
    return compose_affine(template, a, b), b


def _variant_map(n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """The matrix A and the offset b that ``random_variant(n, k, seed)`` uses."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if cond(a) <= 1e3:
            break
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def variant_rank_tolerance(system: PolySystem, zero, corank: int) -> float:
    """Rank tolerance for a system with known corank at a known zero: a
    third of the smallest structurally nonzero singular value there.

    The dropped singular values vanish at the zero itself and grow linearly
    with the distance of the iterate, so this leaves room for starts a
    couple of orders of magnitude closer than the kept part of the spectrum.
    """
    sigma = singular_values(system.jacobian(zero))
    n = len(sigma)
    if corank >= n:
        return float(max(sigma[0], 1.0))
    return float(sigma[n - corank - 1] / 3.0)


# ---------------------------------------------------------------------------
# Stability system
# ---------------------------------------------------------------------------


def stability_system(k: float) -> PolySystem:
    """[x^2, y^2, z^2 + 10^-k z]: two corank-2 zeros a distance 10^-k apart
    (they merge once 10^-k underflows, and the term goes with its 0)."""
    expo = np.array([[2, 0, 0], [0, 2, 0], [0, 0, 1], [0, 0, 2]])
    return system_from_terms(expo, np.array([1, 1, 10.0 ** (-k), 1]), np.array([0, 1, 2, 2]), 3)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def perturbed_start(zero: np.ndarray, digits: int) -> np.ndarray:
    """Deterministic low-precision start: offsets each coordinate by
    10^-digits with alternating sign."""
    zero = np.asarray(zero, dtype=complex)
    offsets = np.array([(-1.0) ** j * 10.0 ** (-digits) for j in range(len(zero))])
    return zero + offsets


def run_convergence(
    entry: CatalogEntry,
    initial_digits: int = 2,
    iters: int = 3,
    seed: int = 0,
) -> list[float]:
    """log10 error exponents (initial point first) of a refinement run at the
    entry's tolerance from a start with ``initial_digits`` correct digits."""
    x0 = perturbed_start(entry.zero, initial_digits)
    cfg = StepConfig(tol=entry.tol, seed=seed, max_iters=iters)
    trace = refine(entry.system, x0, cfg, reference=entry.zero)
    return trace.error_exponents


def run_stability(k_values, tol_values, iters: int = 3) -> ExperimentReport:
    """Corank estimate and convergence target of the clustered-zero system
    over a (k, tol) grid, started from 1e-3 times (1,1,1).

    When the estimated corank is 3 the two clustered zeros act as one
    doubled zero and the iteration converges to their midpoint; when it is 2
    the iteration resolves the origin.
    """
    rows = []
    for k in k_values:
        system = stability_system(k)
        eps = 10.0 ** (-k)
        origin = np.zeros(3, dtype=complex)
        midpoint = np.array([0, 0, -eps / 2], dtype=complex)
        for tol in tol_values:
            cfg = StepConfig(tol=tol, seed=0, max_iters=iters)
            x0 = np.full(3, 1e-3, dtype=complex)
            trace = refine(system, x0, cfg)
            kappa_star = trace.steps[0].kappa if trace.steps else 0
            target = midpoint if kappa_star == 3 else origin
            dist = [float(np.linalg.norm(p - target)) for p in _trace_points(trace, x0)]
            rows.append(
                {
                    "k": k,
                    "tol": tol,
                    "kappa_star": kappa_star,
                    "target": "midpoint" if kappa_star == 3 else "origin",
                    "distances": dist,
                    "final_distance": dist[-1],
                }
            )
    return ExperimentReport(experiment="stability", rows=rows)


def _trace_points(trace, x0):
    return [x0] + [s.x_double_prime for s in trace.steps]


def run_efficiency(sizes, iters: int = 3, seed: int = 0) -> ExperimentReport:
    """Median seconds, over ``iters`` repeats, for one refinement iteration
    of each pipeline on random variants: the split-step method against one
    deflation round plus one Gauss-Newton step.  A warm-up rep is run and
    discarded."""
    rows = []
    for idx, (n, k) in enumerate(sizes):
        system, zero = random_variant(n, k, seed=seed + idx)
        rng = np.random.default_rng(seed + 1000 + idx)
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 = zero + 1e-3 * direction / np.linalg.norm(direction)
        tol = variant_rank_tolerance(system, zero, k)
        cfg = StepConfig(tol=tol, seed=seed)

        def one_twostep():
            two_step(system, x0, cfg)

        def one_lvz():
            deflated, y0 = lvz.deflate_once(system, x0, tol, seed=seed)
            lvz.gauss_newton(deflated.system, y0, max_iter=1, stop=0.0)

        rows.append(
            {
                "n": n,
                "kappa": k,
                "twostep_seconds": _time_reps(one_twostep, iters),
                "lvz_seconds": _time_reps(one_lvz, iters),
            }
        )
    return ExperimentReport(experiment="efficiency", rows=rows)


def _time_reps(fn, reps: int) -> float:
    """Median seconds of ``reps`` calls (at least one) after a warm-up call."""
    fn()
    times = []
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def run_robustness() -> ExperimentReport:
    """Both pipelines on the corank-1 pair system from the classic start
    (0.3, 0.3): the split-step method, run for at most 8 iterations,
    resolves the origin while the deflated system's Gauss-Newton run walks
    to a spurious stationary point."""
    entry = get_entry("robustness-pair")
    system = entry.system
    x0 = np.array([0.3, 0.3], dtype=complex)

    cfg = StepConfig(tol=entry.tol, seed=0, max_iters=8)
    trace = refine(system, x0, cfg)
    rows = [
        {
            "pipeline": "two-step",
            "iterations": trace.iterations,
            "final_point": [format_complex(z) for z in trace.x],
            "distance_to_zero": float(np.linalg.norm(trace.x - entry.zero)),
            "stationary": False,
        }
    ]

    # Pinned-kernel deflation with the exact kernel direction at the zero,
    # matching the classic construction for this system.
    v1 = np.array([[1.0], [0.0]], dtype=complex)
    v2 = np.array([[0.0], [1.0]], dtype=complex)
    deflated, y0 = lvz.deflate_structured(system, x0, v1, v2, [1.0])
    gn = lvz.gauss_newton(deflated, y0, max_iter=100)
    limit = np.array([0.5, np.sqrt(6) / 4, np.sqrt(6) / 2], dtype=complex)
    rows.append(
        {
            "pipeline": "lvz",
            "iterations": gn.iterations,
            "final_point": [format_complex(z) for z in gn.x],
            "distance_to_zero": float(np.linalg.norm(gn.x[:2] - entry.zero)),
            "stationary": gn.stationary,
            "distance_to_stationary_point": float(np.linalg.norm(gn.x - limit)),
        }
    )
    return ExperimentReport(experiment="robustness", rows=rows)


def run_table_convergence(
    iters: int = 3,
    seed: int = 0,
    data_dir: Path | str | None = None,
) -> ExperimentReport:
    """Convergence exponent sequences of the data-file benchmarks from
    2-digit starts."""
    rows = []
    for entry in catalog(data_dir):
        if entry.name in _BUILTINS:
            continue
        exponents = run_convergence(entry, 2, iters, seed=seed)
        rows.append(
            {
                "system": entry.name,
                "kappa": entry.kappa,
                "rho": entry.rho,
                "mu": entry.mu,
                "exponents": [round(e, 2) for e in exponents],
            }
        )
    return ExperimentReport(experiment="convergence", rows=rows)


def format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.10g}"
    return f"{z.real:.10g}{z.imag:+.10g}i"
