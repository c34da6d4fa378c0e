"""Local dual spaces: breadth, depth, multiplicity, deflation-one tests.

The local dual space of a system at a point is spanned by factorial
normalized differential functionals that annihilate the ideal of the system.
Its dimension by order is computed with the standard closedness recursion:
from a basis of the order-(k-1) dual space, first solve a membership system
for the candidate space C^(k) (functionals all of whose down-shifts stay in
the previous dual space), then cut C^(k) with the evaluation condition
Lambda(f) = 0 via a kernel computation.

Everything here works at a numerically approximate point with tolerance
based rank decisions; there is no exact-arithmetic path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import polycore, twostep
from .numla import kernel_basis, singular_values, split_svd
from .polycore import Exponent, Poly, PolySystem, grlex_key

__all__ = [
    "Functional",
    "DualBasis",
    "DualSpaceReport",
    "phi",
    "next_order",
    "multiplicity_structure",
    "deflation_one_necessary",
    "is_deflation_one",
    "monomials_upto",
]


@dataclass(frozen=True)
class Functional:
    """A member of the span of the normalized differential functionals.

    ``terms`` maps multi-indices to complex coefficients, exactly like a
    sparse polynomial; the functional's order is the largest |alpha|.
    """

    num_vars: int
    terms: dict[Exponent, complex]

    @property
    def order(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def apply(self, p: Poly, xi) -> complex:
        return polycore.apply_functional(self, p, xi)

    def is_zero(self) -> bool:
        return not self.terms


def _make_functional(num_vars: int, terms) -> Functional:
    clean = {tuple(a): complex(c) for a, c in terms.items() if c != 0}
    return Functional(num_vars, clean)


def unit_functional(num_vars: int) -> Functional:
    """The order-0 functional (evaluation at the point)."""
    return Functional(num_vars, {(0,) * num_vars: 1.0 + 0j})


def phi(functional: Functional, index: int) -> Functional:
    """Shift operator: sends d^alpha to d^(alpha - e_index), dropping terms
    with alpha_index = 0.  ``index`` is 0-based."""
    if not 0 <= index < functional.num_vars:
        raise ValueError(f"variable index {index} out of range")
    out: dict[Exponent, complex] = {}
    for alpha, c in functional.terms.items():
        if alpha[index] == 0:
            continue
        beta = list(alpha)
        beta[index] -= 1
        out[tuple(beta)] = out.get(tuple(beta), 0.0) + c
    return _make_functional(functional.num_vars, out)


@dataclass
class DualBasis:
    """Spanning functionals of the dual space truncated at ``order``.

    ``candidate_dim`` is the dimension of the intermediate candidate space
    C^(order) the basis was cut from.  ``ambiguous`` is set when a singular
    value of one of the rank decisions fell within a factor 10 of the
    tolerance used.
    """

    order: int
    functionals: list[Functional]
    tol: float
    candidate_dim: int
    ambiguous: bool = False

    @property
    def dim(self) -> int:
        return len(self.functionals)


@dataclass
class DualSpaceReport:
    """Breadth / depth / multiplicity summary with per-order bases."""

    breadth: int
    depth: int
    multiplicity: int
    bases: list[DualBasis]
    stabilized: bool

    @property
    def dims(self) -> list[int]:
        return [b.dim for b in self.bases]

    @property
    def regular(self) -> bool:
        return self.breadth == 0

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "breadth": self.breadth,
            "depth": self.depth,
            "multiplicity": self.multiplicity,
            "dims_by_order": self.dims,
            "stabilized": self.stabilized,
            "ambiguous_orders": [b.order for b in self.bases if b.ambiguous],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def monomials_upto(num_vars: int, order: int) -> list[Exponent]:
    """All multi-indices with |alpha| <= order, in graded-lex order."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in compositions(total - e, parts - 1):
                yield (e,) + rest

    out: list[Exponent] = []
    for deg in range(order + 1):
        out.extend(sorted(compositions(deg, num_vars), key=grlex_key))
    return out


def _rank_tol(sigma: np.ndarray, override: float | None) -> float:
    if override is not None:
        return override
    top = float(sigma[0]) if sigma.size else 0.0
    return 1e-8 * (1.0 + top)


def _near_tol(sigma: np.ndarray, tol: float) -> bool:
    return bool(np.any((sigma > tol / 10) & (sigma < tol * 10)))


def next_order(
    system: PolySystem,
    xi,
    prev: DualBasis,
    rank_tol: float | None = None,
) -> DualBasis:
    """One closedness step: from a basis of the order-(k-1) dual space to a
    basis of the order-k dual space.

    The candidate space is the kernel of the stacked shift-membership
    operators; the dual space is the kernel of the evaluation matrix of the
    candidate basis on the system.
    """
    n = system.num_vars
    xi = system._check_point(xi)
    k = prev.order + 1
    basis_k = monomials_upto(n, k)
    basis_prev = monomials_upto(n, k - 1)
    index_prev = {a: i for i, a in enumerate(basis_prev)}
    nk, nprev = len(basis_k), len(basis_prev)

    # Coefficient matrix of the previous basis, orthonormalized.
    p = np.zeros((nprev, prev.dim), dtype=complex)
    for j, lam in enumerate(prev.functionals):
        for alpha, c in lam.terms.items():
            p[index_prev[alpha], j] = c
    q, _ = np.linalg.qr(p)

    # Membership: (I - QQ*) Phi_i annihilates exactly the functionals whose
    # i-th shift stays in span(prev); stack over i.
    blocks = []
    proj = np.eye(nprev, dtype=complex) - q @ q.conj().T
    for i in range(n):
        shift = np.zeros((nprev, nk), dtype=complex)
        for col, alpha in enumerate(basis_k):
            if alpha[i] > 0:
                beta = list(alpha)
                beta[i] -= 1
                shift[index_prev[tuple(beta)], col] = 1.0
        blocks.append(proj @ shift)
    membership = np.vstack(blocks)

    sig_m = singular_values(membership)
    tol_m = _rank_tol(sig_m, rank_tol)
    candidates = kernel_basis(membership, tol_m)
    ambiguous = _near_tol(sig_m, tol_m)

    # Evaluation of the candidate basis on the system: column j is the
    # vector of values of the j-th candidate functional on f_1..f_m.
    partials = np.zeros((nk, len(system)), dtype=complex)
    for r, alpha in enumerate(basis_k):
        for c_idx, poly in enumerate(system.polys):
            partials[r, c_idx] = polycore.normalized_partial(poly, alpha, xi)
    evaluation = partials.T @ candidates

    if evaluation.any():
        sig_e = singular_values(evaluation)
        tol_e = _rank_tol(sig_e, rank_tol)
        kernel = kernel_basis(evaluation, tol_e)
        ambiguous = ambiguous or _near_tol(sig_e, tol_e)
    else:
        kernel = np.eye(candidates.shape[1], dtype=complex)
        tol_e = tol_m
    coeffs = candidates @ kernel

    functionals = []
    for j in range(coeffs.shape[1]):
        terms = {
            alpha: coeffs[r, j]
            for r, alpha in enumerate(basis_k)
            if abs(coeffs[r, j]) > 1e-14
        }
        functionals.append(_make_functional(n, terms))
    return DualBasis(
        order=k,
        functionals=functionals,
        tol=tol_e,
        candidate_dim=candidates.shape[1],
        ambiguous=ambiguous,
    )


def multiplicity_structure(
    system: PolySystem,
    xi,
    rank_tol: float | None = None,
    max_order: int = 12,
) -> DualSpaceReport:
    """Breadth, depth and multiplicity at ``xi`` by iterating ``next_order``
    until the dimension stabilizes (or ``max_order`` is hit, in which case
    the report is flagged unstabilized)."""
    base = DualBasis(
        order=0,
        functionals=[unit_functional(system.num_vars)],
        tol=0.0,
        candidate_dim=1,
    )
    bases = [base]
    stabilized = False
    for _ in range(max_order):
        nxt = next_order(system, xi, bases[-1], rank_tol)
        bases.append(nxt)
        if nxt.dim == bases[-2].dim:
            stabilized = True
            break
    breadth = bases[1].dim - bases[0].dim if len(bases) > 1 else 0
    if stabilized:
        depth = bases[-2].order
        multiplicity = bases[-2].dim
    else:
        depth = bases[-1].order
        multiplicity = bases[-1].dim
    return DualSpaceReport(
        breadth=breadth,
        depth=depth,
        multiplicity=multiplicity,
        bases=bases,
        stabilized=stabilized,
    )


def deflation_one_necessary(system: PolySystem, xi, rank_tol: float | None = None) -> bool:
    """Order-2 dimension test: dim C^(2) - dim D^(2) must equal n at a
    deflation-one singular zero.  Necessary, not sufficient."""
    base = DualBasis(
        order=0,
        functionals=[unit_functional(system.num_vars)],
        tol=0.0,
        candidate_dim=1,
    )
    d1 = next_order(system, xi, base, rank_tol)
    d2 = next_order(system, xi, d1, rank_tol)
    return d2.candidate_dim - d2.dim == system.num_vars


def is_deflation_one(
    system: PolySystem,
    x,
    tol: float | None = None,
    trials: int = 3,
    seed: int | None = 0,
) -> bool:
    """Randomized sufficient test: sample unit kernel directions and accept
    when any of them makes the kernel-step operator comfortably invertible.

    The threshold compares the smallest singular value of the operator
    B = U2* (D2f(x).v) V2 against the Jacobian rank tolerance times the
    Hessian scale ||D2f(x).v||, both from one contraction per trial, with v
    from ``twostep.random_direction``.  ``tol`` should reflect the actual
    spectral gap of the Jacobian; None means "auto", the gap rule of
    ``split_svd`` (the coarse tolerances used to steer refinement from far
    starts are too blunt here).  Returns False for a regular point.
    """
    x = system._check_point(x)
    split = split_svd(system.jacobian(x), "auto" if tol is None else tol)
    if split.kappa == 0:
        return False
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v = twostep.random_direction(split.v2, rng)
        h = polycore.dir_hessian(system, x, v)
        scale = np.linalg.norm(h, 2)
        if scale == 0:
            continue
        b = split.u2.conj().T @ h @ split.v2
        if singular_values(b)[-1] > split.tol * scale:
            return True
    return False
