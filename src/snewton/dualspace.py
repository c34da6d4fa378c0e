"""Local dual spaces: breadth, depth, multiplicity, deflation-one tests.

The local dual space of a system at a point is spanned by factorial
normalized differential functionals that annihilate the ideal of the system.
Its dimension by order comes from the closedness recursion: from an
orthonormal basis Q of the order-(k-1) dual space, the candidate space C^(k)
holds the functionals all of whose down-shifts S_i (d^alpha -> d^(alpha-e_i))
stay in span(Q), the kernel of M = vstack_i (I - QQ*) S_i; the order-k dual
space is the part of C^(k) that annihilates the system.

M is never formed.  The S_i have disjoint column supports, so
M*M = D - W*W with D = diag(#{i : alpha_i > 0}) and W = vstack_i Q* S_i,
which has n * dim(Q) rows.  Mc = 0 gives Dc = W*Wc, so the kernel lies in
span{1} + range(D^+ W*): the integrals of the previous basis functionals,
as in the integration method of Mourrain (*Isolated points, duality and
residues*, J. Pure Appl. Algebra 117-118, 1997) and Mantzaflaris and
Mourrain (ISSAC 2011).  Each order therefore solves a membership system with
1 + n * dim(Q) columns instead of C(n + k, k), and reads the values of the
candidates on the system off one Taylor shift per polynomial.

Everything here works at a numerically approximate point with tolerance
based rank decisions; there is no exact-arithmetic path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import polycore, twostep
from .numla import _check_tolerance, right_svd, singular_values, split_svd
from .polycore import Exponent, PolySystem, monomials_upto, taylor_coefficients

__all__ = [
    "Functional",
    "DualBasis",
    "DualSpaceReport",
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

    def is_zero(self) -> bool:
        return not self.terms


def unit_functional(num_vars: int) -> Functional:
    """The order-0 functional (evaluation at the point)."""
    return Functional(num_vars, {(0,) * num_vars: 1.0 + 0j})


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

    The candidate space is the kernel of the membership operator M restricted
    to the span Z of the unit functional and the integrals of the previous
    basis (see the module docstring), found by one thin SVD of MZ; the dual
    space is the kernel of the values of the candidates on the system, found
    by a second SVD.  Each spectrum sets its own rank tolerance unless
    ``rank_tol`` is given.
    """
    if rank_tol is not None:
        rank_tol = _check_tolerance(rank_tol)
    n = system.num_vars
    xi = system._check_point(xi)
    k = prev.order + 1
    basis_k = monomials_upto(n, k)
    nprev = math.comb(n + k - 1, n)  # the order-(k-1) monomials lead basis_k
    index = {a: r for r, a in enumerate(basis_k)}

    p = np.zeros((nprev, prev.dim), dtype=complex)
    for j, lam in enumerate(prev.functionals):
        for alpha, c in lam.terms.items():
            p[index[alpha], j] = c
    q, _ = np.linalg.qr(p)
    d = q.shape[1]

    # up[i, r] is the row of basis_k[r] + e_i, so S_i c = c[up[i]].
    up = np.array(
        [[index[a[:i] + (a[i] + 1,) + a[i + 1 :]] for a in basis_k[:nprev]] for i in range(n)]
    )
    # Z: orthonormal basis of span{e_0} + range(D^+ W*), whose columns are
    # e_0 and the integrals D^+ S_i* q_j; the kernel of M lies in it.
    integrals = np.zeros((len(basis_k), 1 + n * d), dtype=complex)
    integrals[0, 0] = 1.0
    for i in range(n):
        integrals[up[i], 1 + i * d : 1 + (i + 1) * d] = q
    support = np.count_nonzero(np.array(basis_k[1:]), axis=1)
    integrals[1:] /= support[:, None]
    z, _ = np.linalg.qr(integrals)

    # MZ block by block: (I - QQ*) S_i Z, with S_i Z a row gather of Z.
    blocks = []
    for i in range(n):
        shifted = z[up[i]]
        blocks.append(shifted - q @ (q.conj().T @ shifted))
    sig_m, v_m = right_svd(np.vstack(blocks))
    tol_m = _rank_tol(sig_m, rank_tol)
    candidates = z @ v_m[:, int(np.sum(sig_m > tol_m)) :]
    ambiguous = _near_tol(sig_m, tol_m)

    # Column j holds the values of the j-th candidate on f_1..f_m.
    evaluation = taylor_coefficients(system, xi, k) @ candidates
    if evaluation.any():
        sig_e, v_e = right_svd(evaluation)
        tol_e = _rank_tol(sig_e, rank_tol)
        coeffs = candidates @ v_e[:, int(np.sum(sig_e > tol_e)) :]
        ambiguous = ambiguous or _near_tol(sig_e, tol_e)
    else:
        coeffs = candidates
        tol_e = tol_m

    functionals = []
    for col in coeffs.T:
        rows = np.flatnonzero(np.abs(col) > 1e-14)
        terms = zip((basis_k[r] for r in rows), col[rows].tolist())
        functionals.append(Functional(n, dict(terms)))
    return DualBasis(
        order=k,
        functionals=functionals,
        tol=tol_e,
        candidate_dim=candidates.shape[1],
        ambiguous=ambiguous,
    )


def _order_zero(num_vars: int) -> DualBasis:
    """The order-0 dual space, spanned by evaluation at the point."""
    return DualBasis(order=0, functionals=[unit_functional(num_vars)], tol=0.0, candidate_dim=1)


def multiplicity_structure(
    system: PolySystem,
    xi,
    rank_tol: float | None = None,
    max_order: int = 12,
) -> DualSpaceReport:
    """Breadth, depth and multiplicity at ``xi`` by iterating ``next_order``
    until the dimension stabilizes (or ``max_order`` is hit, in which case
    the report is flagged unstabilized)."""
    bases = [_order_zero(system.num_vars)]
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
    d1 = next_order(system, xi, _order_zero(system.num_vars), rank_tol)
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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
