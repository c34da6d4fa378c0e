"""Deflation baseline: multiplier augmentation plus Gauss-Newton.

``deflate_once`` builds the classic randomized augmentation

    g = [ f ; Df . B . lambda ; b^T lambda - 1 ]

with a fresh random matrix B and vector b, new multiplier variables lambda,
and a least-squares estimate of the multipliers at the current point.  The
augmented system is numeric (``AugmentedSystem``): g, its Jacobian and its
directional derivatives are assembled from those of f, which come from the
parent's cached term arrays, so no polynomial is built.  It has the
evaluator interface of a polynomial system, so ``gauss_newton`` applies to
it, ``twostep`` runs on a square one, and deflation can be iterated on its
own output for zeros that need several rounds.

``deflate_structured`` is the variant with a pinned kernel block: the
multipliers attached to a chosen kernel basis are fixed constants and only
the complementary multipliers stay variables.  It reproduces textbook
augmented systems exactly, as ``bench.run_robustness`` uses it; the
benchmark's baseline is ``deflate_once``.

Both evaluate Df at the start point once, for the multiplier estimate.
``gauss_newton`` asks for g and Dg at each iterate in one ``_values`` call,
which an augmented system meets with one pass of the parent's f, Df and
D^2f.a.  Each Gauss-Newton step is ``numla.least_squares``: for a Dg of
full column rank and at least 15 columns, one Householder QR of [Dg | g]
and the inverse of R, else ``np.linalg.lstsq``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numla import _check_tolerance, least_squares, singular_values
from .polycore import PolySystem, _check_direction, _check_finite, _check_start_value, _norm

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
    """One augmentation round: the system (its weights and normal are B and b) and kappa."""

    system: AugmentedSystem
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
    ``normal`` is None.  Its Jacobian is [[Df, 0], [D^2f.(pinned + W lambda),
    Df.W], [0, normal^T]].  It is an evaluator as ``PolySystem`` documents
    one: its ``_values`` come from the parent's (the parent may be augmented
    too), and ``eval``, ``jacobian``, ``directional_derivative``,
    ``_check_point`` and ``is_square`` are ``PolySystem``'s; no polynomial is
    built and no value is kept."""

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

    def _values(self, y: np.ndarray, orders: tuple[int, ...], *dirs: np.ndarray) -> list[np.ndarray]:
        """One array per order of ``orders`` at a checked point and
        directions, as ``PolySystem._values`` gives them: g(y) for order 0,
        else the Jacobian of D^k g(y)[d_1, ..., d_k] with k = order - 1.
        Orders 0 and 1 come from one parent pass of f, Df and D^2f.a.

        With d_i = (u_i, mu_i) and a = pinned + W lambda, g is affine in
        lambda, so by the product rule the f rows are D^k f[u_1..u_k]; the
        middle rows are D^(k+1) f[a, u_1..u_k] + sum_i D^k f[W mu_i, u_(-i)]
        along x and D^k f[u_1..u_k].W along lambda; the normal row is there
        for k = 0 only."""
        parent, w = self.parent, self.weights
        p, m = parent.num_vars, len(parent)
        x, lam = y[:p], y[p:]
        a = self.pinned + w @ lam
        if min(orders) <= 1:
            f, jac, hess = parent._values(x, (0, 1, 2), a)
        out = []
        for order in orders:
            if order == 0:
                normal = [] if self.normal is None else [[self.normal @ lam - 1]]
                out.append(np.concatenate([f, jac @ a, *normal]))
                continue
            us = [d[:p] for d in dirs[: order - 1]]
            if order == 1:
                top, mid = jac, hess
            else:
                (top,) = parent._values(x, (order,), *us)
                (mid,) = parent._values(x, (order + 1,), a, *us)
            for i, d in enumerate(dirs[: order - 1]):
                if d[p:].any():
                    mid = mid + parent._values(x, (order,), w @ d[p:], *us[:i], *us[i + 1 :])[0]
            block = np.zeros((len(self), self.num_vars), dtype=complex)
            block[:m, :p] = top
            block[m : 2 * m, :p] = mid
            block[m : 2 * m, p:] = top @ w
            if self.normal is not None and order == 1:
                block[2 * m, p:] = self.normal
            out.append(block)
        return out

    eval, jacobian, _check_point = PolySystem.eval, PolySystem.jacobian, PolySystem._check_point
    directional_derivative, is_square = PolySystem.directional_derivative, PolySystem.is_square


def deflate_once(
    system: PolySystem | AugmentedSystem,
    x,
    tol: float,
    seed=0,
) -> tuple[DeflatedSystem, np.ndarray]:
    """One randomized deflation round at ``x``.

    Draws B (p x (p-kappa+1)) and b with unit complex Gaussian entries,
    forms the augmented system over ``system``, and estimates
    the multipliers by least squares on [Df(x).B ; b^T] lambda = [0 ; 1];
    returns the round and the start (x, lambda).  Raises DeflationError
    when the Jacobian has full column rank at ``tol`` (nothing to deflate).
    """
    tol = _check_tolerance(tol)
    x = system._check_point(x)
    return _deflate(system, x, tol, seed, *_jacobian_spectrum(system, x))


def _jacobian_spectrum(system, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Df(x) from one evaluation pass and its singular values."""
    (jac_x,) = system._values(x, (1,))
    return jac_x, singular_values(jac_x)


def _deflate(
    system: PolySystem | AugmentedSystem, x: np.ndarray, tol: float, seed, jac_x: np.ndarray, sigma: np.ndarray
) -> tuple[DeflatedSystem, np.ndarray]:
    """``deflate_once`` at a checked point ``x`` with a checked ``tol``, from
    the Jacobian ``jac_x`` there and its singular values ``sigma``."""
    p = system.num_vars
    kappa = p - int(np.sum(sigma > tol))
    if kappa == 0:
        raise DeflationError("Jacobian has full column rank at this tolerance")

    rng = np.random.default_rng(seed)
    q = p - kappa + 1
    weights = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))  # B
    normal = rng.standard_normal(q) + 1j * rng.standard_normal(q)  # b

    stacked = np.vstack([jac_x @ weights, normal[None, :]])
    rhs = np.zeros(stacked.shape[0], dtype=complex)
    rhs[-1] = 1.0
    lam = least_squares(stacked, rhs)

    deflated = DeflatedSystem(AugmentedSystem(system, weights, normal=normal), kappa)
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
    (jac_x,) = system._values(x, (1,))
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
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    tol, rng = _check_tolerance(tol), np.random.default_rng(seed)
    current, y = system, system._check_point(x)
    jac, sigma = _jacobian_spectrum(current, y)
    for step in range(1, max_steps + 1):
        deflated, y = _deflate(current, y, tol, rng, jac, sigma)
        current = deflated.system
        # Full column rank under the same absolute threshold the round uses
        # for its corank count, so the loop and the per-round test can never
        # disagree; the next round starts from the same Jacobian.
        jac, sigma = _jacobian_spectrum(current, y)
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
    y <- y - least_squares(Dg(y), g(y)), the minimum-norm least-squares
    step (one QR of [Dg | g] where ``numla.least_squares`` takes that path).

    Flags ``converged`` when ||g(y)|| <= stop, ``stationary`` when the step
    norm falls below 1e-13 while the residual is still above stop; both
    norms are ``np.linalg.norm``'s bits (``polycore._norm``).  g and Dg come
    from one ``_values`` call per iterate.
    """
    if len(system) < system.num_vars:
        raise ValueError("gauss_newton needs at least as many equations as variables")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    if not stop >= 0:
        raise ValueError(f"stop must be at least 0, got {stop}")
    y = system._check_point(y0)
    g, jac = system._values(y, (0, 1))
    points = [y]
    residuals = [_norm(_check_start_value(g))]
    converged = residuals[0] <= stop
    stationary = False
    for _ in range(max_iter):
        if converged or stationary:
            break
        step = least_squares(jac, g)
        y = y - step
        g, jac = system._values(system._check_point(y), (0, 1))
        points.append(y)
        residuals.append(_norm(g))
        if residuals[-1] <= stop:
            converged = True
        elif _norm(step) < 1e-13:
            stationary = True
    return GNTrace(points=points, residuals=residuals, converged=converged, stationary=stationary)
