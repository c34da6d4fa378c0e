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

f, Df and D2f(x).v all come from the system's ``_values``, so any square
evaluator (see ``PolySystem``) will do; it keeps no value at a point, and
the iteration carries those it holds.  Every iteration takes one SVD, of
Df (``split_svd``'s, which with "auto" picks the rank tolerance from that
spectrum), and one path for every corank kappa: at kappa = 0, V1 Sigma1^-1
U1* = Df^-1 and the projection step is Newton's step; at kappa = n, V1 is
empty and x' = x.  For kappa > 0 the kernel step draws one
``random_direction`` and contracts the Hessian once, returning B' with the
step; B' is solved without an SVD, by a division at kappa = 1 and one
inverse otherwise, refused at an exact 1-norm condition number of 1e12
(``numla._solve_conditioned``, the rule the least-squares QR path also
uses; ``numla.solve``, an SVD, stays the Newton baseline).  An iteration
with 0 < kappa < n makes three evaluation passes: Df at x (f(x) is the
previous f(x''), which ``refine`` hands on as ``fx``), Df(x') and
D2f(x').v in one pass, and f at x''; f(x') is not evaluated, and a retried
direction recomputes only D2f(x').v.  ``two_step`` checks x and builds v
itself, so its projection and kernel steps skip the checks of the public
``first_refinement`` and ``second_refinement``, and its split checks only
that Df is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numla, polycore
from .numla import (
    SingularMatrixError,
    SvdSplit,
    _check_conditioned,
    _check_tolerance,
    auto_tolerance,
)
from .polycore import PolySystem, _norm

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
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be at least 0, got {self.max_iters}")


@dataclass
class StepResult:
    """Intermediates of one iteration.

    ``mode`` names the corank's place on the one path: "two-step" for
    0 < kappa < n, "kernel-only" for kappa = n (x' = x, no projection step),
    and "newton" for kappa = 0, where the projection step is Newton's step
    and x'' = x' (no kernel step: v, B' and delta are None).

    ``residuals`` holds the norms of f at "x" and "x_double_prime", and at
    "x_prime" only where it costs no evaluation: at kappa = 0 it equals
    "x_double_prime" and at kappa = n it equals "x".  f(x') is not evaluated
    otherwise; ``system.eval(step.x_prime)`` gives it.  ``f_double_prime``
    is the vector f(x''), whose norm is that residual.
    """

    kappa: int
    split: SvdSplit
    x_prime: np.ndarray
    v: np.ndarray | None
    b_prime: np.ndarray | None
    delta: np.ndarray | None
    x_double_prime: np.ndarray
    f_double_prime: np.ndarray
    residuals: dict[str, float]
    mode: str

    @property
    def first_step_skipped(self) -> bool:
        return self.mode == "kernel-only"


@dataclass
class RefineTrace:
    """Iteration history of ``refine``; ``residuals`` holds the norm of f at
    the start and after each iteration."""

    steps: list[StepResult]
    x: np.ndarray
    residuals: list[float]
    stop_reason: str
    error_exponents: list[float] | None = None

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        """The run as JSON data, which holds no timing: equal runs give equal data."""
        data = {
            "schema": 1,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "final_point": [[float(z.real), float(z.imag)] for z in self.x],
            "final_residual": self.residuals[-1],
            "kappas": [s.kappa for s in self.steps],
            "residuals": self.residuals,
        }
        if self.error_exponents is not None:
            data["error_exponents"] = self.error_exponents
        return data


def operator_B(system: PolySystem, x, v, u2: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The kappa x kappa compression U2* . (D2f(x).v) . V2."""
    x, v = _check_kernel_args("operator_B", system, x, v, u2, v2)
    return u2.conj().T @ system._values(x, (2,), v)[0] @ v2


def _check_kernel_args(caller: str, system: PolySystem, x, v, u2: np.ndarray, v2: np.ndarray):
    """(x, v) checked, for a U2 of at least one column; errors name ``caller``."""
    if u2.shape[1] == 0:
        raise ValueError(f"{caller} needs corank at least 1")
    v = _check_direction(v, system.num_vars, v2)
    return system._check_point(x), v


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

    Moves x only along the regular directions, so V2*(x' - x) = 0.  At
    corank 0 it is Newton's step, from the split's SVD of Df.
    """
    x = system._check_point(x)
    if split.kappa >= split.n:
        raise ValueError("first refinement is skipped when the corank equals n")
    if np.min(split.sigma1) <= split.tol:
        raise ValueError("inconsistent split: sigma1 reaches below the tolerance")
    return _projection_step(x, system._values(x, (0,))[0], split)


def _projection_step(x: np.ndarray, fx: np.ndarray, split: SvdSplit) -> np.ndarray:
    """``first_refinement`` for arguments it would accept, unchecked, with
    f(x) given."""
    return x - split.v1 @ ((split.u1.conj().T @ fx) / split.sigma1)


def second_refinement(system: PolySystem, x_prime, v, u2: np.ndarray, v2: np.ndarray):
    """Kernel step: solve B' delta = -U2* Df(x') v and move along V2.

    U2, V2 and v come from the split at the *original* point; only the
    Hessian and Jacobian are re-evaluated at x'.  Returns (delta, x'', B').
    Raises SingularMatrixError when B' is singular to working precision
    (a 1-norm condition number of 1e12 or more), which signals that the
    zero is not deflation-one at this scale.
    """
    x_prime, v = _check_kernel_args("second_refinement", system, x_prime, v, u2, v2)
    return _kernel_step(x_prime, *system._values(x_prime, (1, 2), v), v, u2, v2)


def _kernel_step(x_prime: np.ndarray, jac: np.ndarray, hess: np.ndarray, v: np.ndarray, u2, v2):
    """``second_refinement`` for arguments it would accept, unchecked, with
    Df(x') and D2f(x').v given."""
    u2h = u2.conj().T
    b_prime = u2h @ hess @ v2
    rhs = -(u2h @ (jac @ v))
    delta = _solve_small(b_prime, rhs)
    return delta, x_prime + v2 @ delta, b_prime


def _solve_small(b: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """B'^-1 rhs for the kappa x kappa B' of the kernel step, without an SVD
    (``numla._solve_conditioned``: a division at kappa = 1, else one
    inverse, refused at an exact 1-norm condition number of 1e12).  Raises
    SingularMatrixError when it refuses, and the ValueError of
    ``numla.solve`` for an entry that is not finite."""
    polycore._check_finite(b, "solve: matrix entry")
    polycore._check_finite(rhs, "solve: right-hand side entry")
    try:
        return numla._solve_conditioned(b, rhs)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            "kernel-step operator is singular: the zero does not look "
            "deflation-one at this scale; try another direction or deflation"
        ) from exc


def two_step(
    system: PolySystem,
    x,
    cfg: StepConfig | None = None,
    rng: np.random.Generator | None = None,
    *,
    fx: np.ndarray | None = None,
) -> StepResult:
    """One full iteration: split, projection step, kernel step.

    Corank 0 ends after the projection step, which is then Newton's step;
    corank n skips it.  On a singular kernel operator with a random
    direction the step is retried once with a fresh direction before the
    error surfaces.  ``fx`` is f(x) where the caller holds it (``refine``
    hands on the last ``f_double_prime``); it is evaluated otherwise.
    """
    if not system.is_square():
        raise ValueError("two_step needs a square system")
    cfg = cfg or StepConfig()
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    x = system._check_point(x)

    fx = polycore._check_start_value(system._values(x, (0,))[0] if fx is None else fx)
    jac = polycore._check_finite(system._values(x, (1,))[0], "split_svd: matrix entry")
    split = numla._split(jac, cfg.tol)
    kappa, n = split.kappa, split.n
    if kappa == 0:
        _check_conditioned(split.sigma1)  # Newton's step refuses a near-singular Df
    x_prime = x if kappa == n else _projection_step(x, fx, split)
    res = {"x": _norm(fx)}

    v = b_prime = delta = None
    x_second = x_prime
    if kappa:
        attempts = 1 if cfg.v_override is not None else 2
        jac = jac if kappa == n else None  # Df(x') is Df(x) when x' = x
        for attempt in range(attempts):
            v = _draw_direction(cfg, split, rng)
            if jac is None:
                jac, hess = system._values(x_prime, (1, 2), v)
            else:
                (hess,) = system._values(x_prime, (2,), v)
            try:
                delta, x_second, b_prime = _kernel_step(x_prime, jac, hess, v, split.u2, split.v2)
                break
            except SingularMatrixError:
                if attempt == attempts - 1:
                    raise
    (f_second,) = system._values(x_second, (0,))
    res["x_double_prime"] = _norm(f_second)
    if kappa in (0, n):  # x'' = x' at kappa = 0, x' = x at kappa = n
        res["x_prime"] = res["x_double_prime" if kappa == 0 else "x"]

    return StepResult(
        kappa=kappa,
        split=split,
        x_prime=x_prime,
        v=v,
        b_prime=b_prime,
        delta=delta,
        x_double_prime=x_second,
        f_double_prime=f_second,
        residuals=res,
        mode="newton" if kappa == 0 else "kernel-only" if kappa == n else "two-step",
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
    return w / _norm(w)


def refine(
    system: PolySystem,
    x0,
    cfg: StepConfig | None = None,
    reference=None,
) -> RefineTrace:
    """Iterate ``two_step`` until the residual target, stagnation, a
    residual that is not finite (stop reason "nonfinite": f overflowed at the
    last iterate, which the trace ends at), or the iteration cap.
    ``reference``, when given, only annotates the trace with log10 error
    exponents (initial point first); it never steers the run.
    """
    if not system.is_square():  # also when x0 already meets the residual target
        raise ValueError("two_step needs a square system")
    cfg = cfg or StepConfig()
    rng = np.random.default_rng(cfg.seed)
    x = system._check_point(x0)
    ref = None if reference is None else system._check_point(reference)

    exponents = None
    if ref is not None:
        exponents = [_exponent(x, ref)]

    steps: list[StepResult] = []
    fx = polycore._check_start_value(system._values(x, (0,))[0])
    residuals = [_norm(fx)]
    stop_reason = "max_iters"
    if residuals[0] <= cfg.stop_residual:
        stop_reason = "residual"
    else:
        for _ in range(cfg.max_iters):
            step = two_step(system, x, cfg, rng=rng, fx=fx)
            x_new, fx = step.x_double_prime, step.f_double_prime
            steps.append(step)
            residuals.append(step.residuals["x_double_prime"])
            if ref is not None:
                exponents.append(_exponent(x_new, ref))
            if residuals[-1] <= cfg.stop_residual:
                x = x_new
                stop_reason = "residual"
                break
            if not math.isfinite(residuals[-1]):
                x = x_new
                stop_reason = "nonfinite"
                break
            if _norm(x_new - x) < 1e-15 * (1.0 + _norm(x)):
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
