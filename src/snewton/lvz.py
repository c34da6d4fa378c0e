"""Deflation baseline: multiplier augmentation plus Gauss-Newton.

``deflate_once`` builds the classic randomized augmentation

    g = [ f ; Df . B . lambda ; b^T lambda - 1 ]

with a fresh random matrix B and vector b, new multiplier variables lambda,
and a least-squares estimate of the multipliers at the current point.  The
augmented system is numeric (``AugmentedSystem``): g, its Jacobian and its
directional derivatives are assembled from those of f, which come from the
parent's cached term arrays, so no polynomial is built.  It has the
evaluation interface of a polynomial system, so ``gauss_newton`` applies to
it, and deflation can be iterated on its own output for zeros that need
several rounds.

``deflate_structured`` is the variant with a pinned kernel block: the
multipliers attached to a chosen kernel basis are fixed constants and only
the complementary multipliers stay variables.  It reproduces textbook
augmented systems exactly and is what the benchmark comparisons use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numla import _check_tolerance, least_squares, singular_values
from .polycore import PolySystem, _check_direction, _check_finite, _check_point, _check_start_value

__all__ = [
    "AugmentedSystem",
    "DeflatedSystem",
    "GNTrace",
    "DeflationError",
    "deflate_once",
    "deflate_structured",
    "deflate_to_regular",
    "gauss_newton",
]


class DeflationError(RuntimeError):
    """Deflation cannot proceed (regular input or step budget exhausted)."""


@dataclass
class DeflatedSystem:
    """One augmentation round: the system, its random data, multipliers."""

    system: AugmentedSystem
    b_matrix: np.ndarray
    b_vector: np.ndarray
    lambda_hat: np.ndarray
    num_parent_vars: int
    kappa: int


@dataclass
class GNTrace:
    """Gauss-Newton run record.

    ``converged`` means the residual target was met; ``stationary`` means the
    steps collapsed while the residual stayed large, i.e. the iteration got
    stuck at a stationary point of the squared-residual objective that is
    not a zero.
    """

    points: list[np.ndarray]
    residuals: list[float]
    converged: bool
    stationary: bool

    @property
    def x(self) -> np.ndarray:
        return self.points[-1]

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "iterations": self.iterations,
            "converged": self.converged,
            "stationary": self.stationary,
            "final_residual": self.residuals[-1],
            "final_point": [[float(z.real), float(z.imag)] for z in self.x],
        }


class AugmentedSystem:
    """g(x, lambda) = [f(x) ; Df(x).(pinned + W lambda) ; normal^T lambda - 1]
    in the parent variables x and one multiplier per column of W =
    ``weights``; no pinned part when ``pinned`` is None, no last row when
    ``normal`` is None.  It has the ``len``, ``num_vars``, ``eval``,
    ``jacobian`` and ``directional_derivative`` of a ``PolySystem``, taken
    from those of the parent (which may be augmented too); no polynomial is
    built."""

    def __init__(self, parent, weights, pinned=None, normal=None):
        p = parent.num_vars
        self.parent, self.weights = parent, _column_block(weights, p, "weights")
        self.pinned = np.zeros(p, dtype=complex) if pinned is None else _check_direction(pinned, p)
        self.normal = None if normal is None else _check_direction(normal, self.weights.shape[1])
        self.num_vars = p + self.weights.shape[1]

    def __len__(self):
        return 2 * len(self.parent) + (self.normal is not None)

    def __repr__(self):
        return f"AugmentedSystem({len(self)} rows in {self.num_vars} vars)"

    def _check_point(self, y) -> np.ndarray:
        return _check_point(y, self.num_vars)

    def eval(self, y) -> np.ndarray:
        """``[f(x), Df(x).(pinned + W lambda), normal^T lambda - 1]`` at y = (x, lambda)."""
        y = self._check_point(y)
        x, lam = y[: self.parent.num_vars], y[self.parent.num_vars :]
        values = [self.parent.eval(x), self.parent.jacobian(x) @ (self.pinned + self.weights @ lam)]
        if self.normal is not None:
            values.append([self.normal @ lam - 1])
        return np.concatenate(values)

    def jacobian(self, y) -> np.ndarray:
        """[[Df, 0], [D^2f.(pinned + W lambda), Df.W], [0, normal^T]] at ``y``."""
        return self.directional_derivative(y, ())

    def directional_derivative(self, y, dirs) -> np.ndarray:
        """Jacobian of D^k g(y)[d_1, ..., d_k] for the k directions ``dirs``.

        With d_i = (u_i, mu_i) and a = pinned + W lambda, g is affine in
        lambda, so by the product rule the f rows are D^k f[u_1..u_k]; the
        middle rows are D^(k+1) f[a, u_1..u_k] + sum_i D^k f[W mu_i, u_(-i)]
        along x and D^k f[u_1..u_k].W along lambda; the normal row is there
        for k = 0 only.  Each term is a ``directional_derivative`` of the parent."""
        y = self._check_point(y)
        dirs = [_check_direction(d, self.num_vars) for d in dirs]
        parent, w = self.parent, self.weights
        p, m = parent.num_vars, len(parent)
        x, lam = y[:p], y[p:]
        us = [d[:p] for d in dirs]
        top = parent.directional_derivative(x, us)
        mid = parent.directional_derivative(x, [self.pinned + w @ lam, *us])
        for i, d in enumerate(dirs):
            if d[p:].any():
                mid = mid + parent.directional_derivative(x, [w @ d[p:], *us[:i], *us[i + 1 :]])
        out = np.zeros((len(self), self.num_vars), dtype=complex)
        out[:m, :p] = top
        out[m : 2 * m, :p] = mid
        out[m : 2 * m, p:] = top @ w
        if self.normal is not None and not dirs:
            out[2 * m, p:] = self.normal
        return out


def deflate_once(
    system: PolySystem | AugmentedSystem,
    x,
    tol: float,
    seed=0,
) -> tuple[DeflatedSystem, np.ndarray]:
    """One randomized deflation round at ``x``.

    Draws B (p x (p-kappa+1)) and b with unit complex Gaussian entries,
    forms the augmented system over ``system``, and estimates
    the multipliers by least squares on [Df(x).B ; b^T] lambda = [0 ; 1].
    Raises DeflationError when the Jacobian has full column rank at ``tol``
    (nothing to deflate).
    """
    tol = _check_tolerance(tol)
    x = system._check_point(x)
    p = system.num_vars
    jac_x = system.jacobian(x)
    sigma = singular_values(jac_x)
    rank = int(np.sum(sigma > tol))
    kappa = p - rank
    if kappa == 0:
        raise DeflationError("Jacobian has full column rank at this tolerance")

    rng = np.random.default_rng(seed)
    q = p - kappa + 1
    b_matrix = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    b_vector = rng.standard_normal(q) + 1j * rng.standard_normal(q)

    stacked = np.vstack([jac_x @ b_matrix, b_vector[None, :]])
    rhs = np.zeros(stacked.shape[0], dtype=complex)
    rhs[-1] = 1.0
    lam = least_squares(stacked, rhs)

    deflated = DeflatedSystem(
        system=AugmentedSystem(system, b_matrix, normal=b_vector),
        b_matrix=b_matrix,
        b_vector=b_vector,
        lambda_hat=lam,
        num_parent_vars=p,
        kappa=kappa,
    )
    return deflated, np.concatenate([x, lam])


def deflate_structured(
    system: PolySystem,
    x,
    v1: np.ndarray,
    v2: np.ndarray,
    lambda2,
) -> tuple[AugmentedSystem, np.ndarray]:
    """Augmentation with a pinned kernel block: g = [f ; Df.(V1 l1 + V2 l2)]
    where l2 = ``lambda2`` is constant and l1 are new variables (one per V1
    column; none when V1 is empty).  V1 and V2 have one row per variable; a
    1-D vector is one column.

    Returns the augmented system and the starting point (x, l1_hat) with
    l1_hat the least-squares solution of Df(x).V1 l1 = -Df(x).V2 l2.
    """
    x = system._check_point(x)
    p = system.num_vars
    v1, v2 = (_column_block(v, p, name) for v, name in ((v1, "V1"), (v2, "V2")))
    lambda2 = np.asarray(lambda2, dtype=complex).reshape(-1)
    if lambda2.shape[0] != v2.shape[1]:
        raise ValueError("lambda2 length must match the V2 column count")
    jac_x = system.jacobian(x)
    if v1.shape[1]:
        lam1 = least_squares(jac_x @ v1, -(jac_x @ v2 @ lambda2))
    else:
        lam1 = np.zeros(0, dtype=complex)
    return AugmentedSystem(system, v1, pinned=v2 @ lambda2), np.concatenate([x, lam1])


def _column_block(v, p: int, name: str) -> np.ndarray:
    """``v`` as a matrix of ``p`` rows and finite entries: a 1-D vector of
    length p is one column."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != p:
        raise ValueError(f"{name} has shape {v.shape}, expected {p} rows, one per variable")
    return _check_finite(v, f"{name} entry")


def deflate_to_regular(
    system: PolySystem,
    x,
    tol: float,
    max_steps: int = 5,
    seed=0,
) -> tuple[AugmentedSystem, np.ndarray, int]:
    """Iterate ``deflate_once`` until the augmented Jacobian has full column
    rank at ``tol``; returns (system, augmented point, rounds used)."""
    rng = np.random.default_rng(seed)
    current, y = system, system._check_point(x)
    for step in range(1, max_steps + 1):
        deflated, y = deflate_once(current, y, tol, seed=rng)
        current = deflated.system
        # Full column rank under the same absolute threshold deflate_once
        # uses for its corank count, so the loop and the per-round test
        # can never disagree.
        sigma = singular_values(current.jacobian(y))
        if sigma[-1] > tol:
            return current, y, step
    raise DeflationError(f"still column-rank-deficient after {max_steps} deflation rounds")


def gauss_newton(
    system: PolySystem | AugmentedSystem,
    y0,
    max_iter: int = 100,
    stop: float = 1e-12,
) -> GNTrace:
    """Gauss-Newton on a (possibly overdetermined) system:
    y <- y - lstsq(Dg(y), g(y)).

    Flags ``converged`` when ||g(y)|| <= stop, ``stationary`` when the step
    norm falls below 1e-13 while the residual is still above stop.
    """
    if len(system) < system.num_vars:
        raise ValueError("gauss_newton needs at least as many equations as variables")
    y = system._check_point(y0)
    g = _check_start_value(system.eval(y))
    points = [y]
    residuals = [float(np.linalg.norm(g))]
    converged = residuals[0] <= stop
    stationary = False
    for _ in range(max_iter):
        if converged or stationary:
            break
        step = least_squares(system.jacobian(y), g)
        y = y - step
        g = system.eval(y)
        points.append(y)
        residuals.append(float(np.linalg.norm(g)))
        if residuals[-1] <= stop:
            converged = True
        elif np.linalg.norm(step) < 1e-13:
            stationary = True
    return GNTrace(points=points, residuals=residuals, converged=converged, stationary=stationary)
