"""Deflation baseline: multiplier augmentation plus Gauss-Newton.

``deflate_once`` builds the classic randomized augmentation

    g = [ f ; Df . B . lambda ; b^T lambda - 1 ]

with a fresh random matrix B and vector b, new multiplier variables lambda,
and a least-squares estimate of the multipliers at the current point.  The
augmented terms come from the parent's cached Jacobian term arrays by a
matrix product, with no polynomial arithmetic.  The result is a genuine
polynomial system, so the same Jacobian machinery (and ``gauss_newton``)
applies to it, and deflation can be iterated on its own output for zeros
that need several rounds.

``deflate_structured`` is the variant with a pinned kernel block: the
multipliers attached to a chosen kernel basis are fixed constants and only
the complementary multipliers stay variables.  It reproduces textbook
augmented systems exactly and is what the benchmark comparisons use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numla import least_squares, singular_values
from .polycore import PolySystem, system_from_terms

__all__ = [
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

    system: PolySystem
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


def _augment(system: PolySystem, weights: np.ndarray, pinned=None, normal=None) -> PolySystem:
    """The system g = [f ; Df.(pinned + W lambda) ; normal^T lambda - 1] in
    the parent variables followed by one multiplier per column of W =
    ``weights``; no pinned part when ``pinned`` is None, and no last row when
    ``normal`` is None.

    The Jacobian terms are grouped by (polynomial i, monomial beta) into a
    matrix C with C[(i, beta), j] the coefficient of beta in df_i/dx_j.  The
    coefficient of beta * lambda_mu in row i is then (C W)[(i, beta), mu],
    and that of beta alone (C pinned)[(i, beta)].  The products are summed
    in ascending j and rounded as scalar complex arithmetic rounds them
    (numpy's vector loops may fuse multiply and add), so the coefficients
    are those of the same sum of polynomials, bit for bit.
    """
    p, q, m = system.num_vars, weights.shape[1], len(system)
    expo, coef, row, _ = system._jac_terms()
    keys = np.column_stack([row // p, expo])
    # each key row as one opaque value: np.unique sorts these far faster than rows
    packed = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
    keys = keys[first]
    c = np.zeros((len(keys), p), dtype=complex)
    c[inverse, row % p] = coef
    cols = weights if pinned is None else np.column_stack([weights, pinned])
    cw = np.zeros((len(keys), cols.shape[1]), dtype=complex)
    for j in range(p):
        a, w = c[:, j, None], cols[j]
        cw += (a.real * w.real - a.imag * w.imag) + 1j * (a.real * w.imag + a.imag * w.real)
    poly, beta, lam = m + keys[:, 0], keys[:, 1:], np.eye(q, dtype=int)
    f_expo, f_coef, f_row, _ = system._flat()
    blocks = [
        (np.pad(f_expo, ((0, 0), (0, q))), f_coef, f_row),
        (np.hstack([beta.repeat(q, axis=0), np.tile(lam, (len(keys), 1))]),
         cw[:, :q].reshape(-1), poly.repeat(q)),
    ]
    if pinned is not None:
        blocks.append((np.pad(beta, ((0, 0), (0, q))), cw[:, q], poly))
    if normal is not None:
        blocks.append((np.pad(lam, ((0, 1), (p, 0))), np.append(normal, -1), np.full(q + 1, 2 * m)))
    expo, coef, row = (np.concatenate(a) for a in zip(*blocks))
    return system_from_terms(expo, coef, row, 2 * m + (normal is not None))


def deflate_once(
    system: PolySystem,
    x,
    tol: float,
    seed=0,
) -> tuple[DeflatedSystem, np.ndarray]:
    """One randomized deflation round at ``x``.

    Draws B (p x (p-kappa+1)) and b with unit complex Gaussian entries,
    forms the augmented system from the Jacobian term arrays, and estimates
    the multipliers by least squares on [Df(x).B ; b^T] lambda = [0 ; 1].
    Raises DeflationError when the Jacobian has full column rank at ``tol``
    (nothing to deflate).
    """
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
        system=_augment(system, b_matrix, normal=b_vector),
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
) -> tuple[PolySystem, np.ndarray]:
    """Augmentation with a pinned kernel block: g = [f ; Df.(V1 l1 + V2 l2)]
    where l2 = ``lambda2`` is constant and l1 are new variables (one per V1
    column; none when V1 is empty).

    Returns the augmented system and the starting point (x, l1_hat) with
    l1_hat the least-squares solution of Df(x).V1 l1 = -Df(x).V2 l2.
    """
    x = system._check_point(x)
    p = system.num_vars
    v1 = np.asarray(v1, dtype=complex).reshape(p, -1)
    v2 = np.asarray(v2, dtype=complex).reshape(p, -1)
    lambda2 = np.asarray(lambda2, dtype=complex).reshape(-1)
    if lambda2.shape[0] != v2.shape[1]:
        raise ValueError("lambda2 length must match the V2 column count")
    jac_x = system.jacobian(x)
    if v1.shape[1]:
        lam1 = least_squares(jac_x @ v1, -(jac_x @ v2 @ lambda2))
    else:
        lam1 = np.zeros(0, dtype=complex)
    return _augment(system, v1, pinned=v2 @ lambda2), np.concatenate([x, lam1])


def deflate_to_regular(
    system: PolySystem,
    x,
    tol: float,
    max_steps: int = 5,
    seed=0,
) -> tuple[PolySystem, np.ndarray, int]:
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
    system: PolySystem,
    y0,
    max_iter: int = 100,
    stop: float = 1e-12,
) -> GNTrace:
    """Gauss-Newton on a (possibly overdetermined) polynomial system:
    y <- y - lstsq(Dg(y), g(y)).

    Flags ``converged`` when ||g(y)|| <= stop, ``stationary`` when the step
    norm falls below 1e-13 while the residual is still above stop.
    """
    if len(system) < system.num_vars:
        raise ValueError("gauss_newton needs at least as many equations as variables")
    y = system._check_point(y0)
    g = system.eval(y)
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
