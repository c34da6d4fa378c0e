"""Two-step Newton refinement for deflation-one singular zeros.

One iteration splits the Jacobian spectrum at a tolerance, projects the
iterate along the regular directions (the V1 block), then corrects along the
kernel directions (the V2 block) by solving a small kappa x kappa system
built from the Hessian contracted with a random kernel direction.  At a
deflation-one singularity the combined step converges quadratically.

The two operators at the heart of the method:

    A(x) = Df(x) + D2f(x)(v, P .)     with P the Hermitian projection on
                                      the numerical kernel (V2 V2*),
    B(x) = U2* . D2f(x).v . V2        its kappa x kappa compression.

B is what gets solved; A only ever appears in analysis and tests.

f, Df and D2f(x).v all come from the system's cached term arrays.  One
iteration takes one SVD of Df (``split_svd(jac, "auto")`` picks the rank
tolerance from that spectrum), one ``random_direction`` draw, and one Hessian
contraction, inside ``second_refinement``, which returns B' with the step.
f is evaluated once per point (``PolySystem._eval_once``): at x' and at x'',
whose value ``refine`` hands on as f(x) of the next iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import polycore
from .numla import (
    SingularMatrixError,
    SvdSplit,
    _check_tolerance,
    auto_tolerance,
    solve,
    split_svd,
)
from .polycore import PolySystem

__all__ = [
    "StepConfig",
    "StepResult",
    "RefineTrace",
    "operator_B",
    "first_refinement",
    "second_refinement",
    "random_direction",
    "two_step",
    "refine",
    "auto_tolerance",
]

# Exponent floor used when annotating errors against a reference zero.
_LOG_FLOOR = 1e-30


@dataclass
class StepConfig:
    """Knobs for one refinement run.

    ``tol`` is the Jacobian rank tolerance, or "auto" to pick it from the
    largest relative gap in the singular spectrum.  ``v_override`` pins the
    kernel direction (it is projected onto the numerical kernel and
    normalized); otherwise a fresh random unit direction is drawn each
    iteration from the seeded generator.
    """

    tol: float | str = "auto"
    seed: int | None = 0
    v_override: np.ndarray | None = None
    stop_residual: float = 1e-13
    max_iters: int = 50

    def __post_init__(self):
        if self.tol != "auto":
            self.tol = _check_tolerance(self.tol)
        if not self.stop_residual > 0:
            raise ValueError("stop_residual must be positive")


@dataclass
class StepResult:
    """Intermediates of one iteration.

    ``mode`` is "two-step" for the generic path, "kernel-only" when the
    detected corank equals n (the projection step is skipped), and "newton"
    when the Jacobian has full numerical rank and an ordinary Newton step was
    taken instead.
    """

    kappa: int
    split: SvdSplit
    x_prime: np.ndarray
    v: np.ndarray | None
    b_prime: np.ndarray | None
    delta: np.ndarray | None
    x_double_prime: np.ndarray
    residuals: dict[str, float]
    mode: str
    elapsed: float = 0.0

    @property
    def first_step_skipped(self) -> bool:
        return self.mode == "kernel-only"


@dataclass
class RefineTrace:
    """Iteration history of ``refine``."""

    steps: list[StepResult]
    x: np.ndarray
    residuals: list[float]
    stop_reason: str
    error_exponents: list[float] | None = None

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        data = {
            "schema": 1,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "final_point": _point_json(self.x),
            "final_residual": self.residuals[-1],
            "steps": [
                {
                    "kappa": s.kappa,
                    "mode": s.mode,
                    "residual": s.residuals["x_double_prime"],
                    "elapsed": s.elapsed,
                }
                for s in self.steps
            ],
        }
        if self.error_exponents is not None:
            data["error_exponents"] = self.error_exponents
        return data


def _point_json(x: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(x, dtype=complex)]


def operator_B(system: PolySystem, x, v, u2: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The kappa x kappa compression U2* . (D2f(x).v) . V2."""
    if u2.shape[1] == 0:
        raise ValueError("operator_B needs corank at least 1")
    v = _check_direction(v, system.num_vars, v2)
    h = polycore.dir_hessian(system, x, v)
    return u2.conj().T @ h @ v2


def _check_direction(v, n: int, v2: np.ndarray) -> np.ndarray:
    v = polycore._check_direction(v, n)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    if np.linalg.norm(v2.conj().T @ v2 - np.eye(v2.shape[1])) > 1e-8:
        raise ValueError("basis columns are not orthonormal")
    resid = v - v2 @ (v2.conj().T @ v)
    if np.linalg.norm(resid) > 1e-8:
        raise ValueError("direction does not lie in the span of V2")
    return v


def first_refinement(system: PolySystem, x, split: SvdSplit) -> np.ndarray:
    """Projection step: x' = x - V1 Sigma1^-1 U1* f(x).

    Moves x only along the regular directions, so V2*(x' - x) = 0.
    """
    x = np.asarray(x, dtype=complex)
    if split.kappa >= split.n:
        raise ValueError("first refinement is skipped when the corank equals n")
    if np.min(split.sigma1) <= split.tol:
        raise ValueError("inconsistent split: sigma1 reaches below the tolerance")
    fx = system._eval_once(x)
    y = split.v1 @ ((split.u1.conj().T @ fx) / split.sigma1)
    return x - y


def second_refinement(system: PolySystem, x_prime, v, u2: np.ndarray, v2: np.ndarray):
    """Kernel step: solve B' delta = -U2* Df(x') v and move along V2.

    U2, V2 and v come from the split at the *original* point; only the
    Hessian and Jacobian are re-evaluated at x'.  Returns (delta, x'', B').
    Raises SingularMatrixError when B' is singular to working precision,
    which signals that the zero is not deflation-one at this scale.
    """
    b_prime = operator_B(system, x_prime, v, u2, v2)
    rhs = -(u2.conj().T @ (system.jacobian(x_prime) @ v))
    try:
        delta = solve(b_prime, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "kernel-step operator is singular: the zero does not look "
            "deflation-one at this scale; try another direction or deflation"
        ) from exc
    return delta, x_prime + v2 @ delta, b_prime


def two_step(
    system: PolySystem,
    x,
    cfg: StepConfig | None = None,
    rng: np.random.Generator | None = None,
) -> StepResult:
    """One full iteration (split, projection step, kernel step).

    Corank 0 falls back to an ordinary Newton step; corank n skips the
    projection step.  On a singular kernel operator with a random direction
    the step is retried once with a fresh direction before the error
    surfaces.
    """
    if not system.is_square():
        raise ValueError("two_step needs a square system")
    cfg = cfg or StepConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    x = system._check_point(x)
    t0 = time.perf_counter()

    fx = polycore._check_start_value(system._eval_once(x))
    jac = system.jacobian(x)
    split = split_svd(jac, cfg.tol)
    kappa = split.kappa
    n = system.num_vars
    res = {"x": float(np.linalg.norm(fx))}

    if kappa == 0:
        x_new = x - solve(jac, fx)
        res["x_prime"] = res["x_double_prime"] = float(np.linalg.norm(system._eval_once(x_new)))
        return StepResult(
            kappa=0,
            split=split,
            x_prime=x_new,
            v=None,
            b_prime=None,
            delta=None,
            x_double_prime=x_new,
            residuals=res,
            mode="newton",
            elapsed=time.perf_counter() - t0,
        )

    if kappa == n:
        x_prime, mode = x, "kernel-only"
        res["x_prime"] = res["x"]
    else:
        x_prime, mode = first_refinement(system, x, split), "two-step"
        res["x_prime"] = float(np.linalg.norm(system._eval_once(x_prime)))

    attempts = 1 if cfg.v_override is not None else 2
    last_error = None
    for _ in range(attempts):
        v = _draw_direction(cfg, split, rng)
        try:
            delta, x_second, b_prime = second_refinement(
                system, x_prime, v, split.u2, split.v2
            )
            break
        except SingularMatrixError as exc:
            last_error = exc
    else:
        raise last_error
    res["x_double_prime"] = float(np.linalg.norm(system._eval_once(x_second)))

    return StepResult(
        kappa=kappa,
        split=split,
        x_prime=x_prime,
        v=v,
        b_prime=b_prime,
        delta=delta,
        x_double_prime=x_second,
        residuals=res,
        mode=mode,
        elapsed=time.perf_counter() - t0,
    )


def _draw_direction(cfg: StepConfig, split: SvdSplit, rng: np.random.Generator) -> np.ndarray:
    v2 = split.v2
    if cfg.v_override is not None:
        w = polycore._check_direction(cfg.v_override, split.n)
        w = v2 @ (v2.conj().T @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-8:
            raise ValueError("v_override has no component in the numerical kernel")
        return w / norm
    return random_direction(v2, rng)


def random_direction(v2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit vector V2 lam with lam a standard complex Gaussian draw from ``rng``."""
    lam = rng.standard_normal(v2.shape[1]) + 1j * rng.standard_normal(v2.shape[1])
    w = v2 @ lam
    return w / np.linalg.norm(w)


def refine(
    system: PolySystem,
    x0,
    cfg: StepConfig | None = None,
    reference=None,
) -> RefineTrace:
    """Iterate ``two_step`` until the residual target, stagnation, or the
    iteration cap.  ``reference``, when given, only annotates the trace with
    log10 error exponents (initial point first); it never steers the run.
    """
    cfg = cfg or StepConfig()
    rng = np.random.default_rng(cfg.seed)
    x = system._check_point(x0)
    ref = None if reference is None else system._check_point(reference)

    exponents = None
    if ref is not None:
        exponents = [_exponent(x, ref)]

    steps: list[StepResult] = []
    residuals = [float(np.linalg.norm(polycore._check_start_value(system._eval_once(x))))]
    stop_reason = "max_iters"
    if residuals[0] <= cfg.stop_residual:
        stop_reason = "residual"
    else:
        for _ in range(cfg.max_iters):
            step = two_step(system, x, cfg, rng=rng)
            x_new = step.x_double_prime
            steps.append(step)
            residuals.append(step.residuals["x_double_prime"])
            if ref is not None:
                exponents.append(_exponent(x_new, ref))
            if residuals[-1] <= cfg.stop_residual:
                x = x_new
                stop_reason = "residual"
                break
            if np.linalg.norm(x_new - x) < 1e-15 * (1.0 + np.linalg.norm(x)):
                x = x_new
                stop_reason = "stagnation"
                break
            x = x_new

    return RefineTrace(
        steps=steps,
        x=x,
        residuals=residuals,
        stop_reason=stop_reason,
        error_exponents=exponents,
    )


def _exponent(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.log10(max(np.linalg.norm(x - ref), _LOG_FLOOR)))
