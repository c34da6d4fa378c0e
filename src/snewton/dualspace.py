"""Local dual spaces: breadth, depth, multiplicity, deflation-one tests.

The local dual space of a system at a point is spanned by factorial
normalized differential functionals that annihilate the ideal of the system.
Its dimension by order comes from the closedness recursion: from an
orthonormal basis Q of the order-(k-1) dual space, the candidate space C^(k)
holds the functionals all of whose down-shifts S_i (d^alpha -> d^(alpha-e_i))
stay in span(Q), the kernel of M = vstack_i (I - QQ*) S_i; the order-k dual
space is the part of C^(k) that annihilates the system.

M is never formed.  Every c of order <= k is c(0) e_0 plus the restricted
integrals of the S_i c, the integral along x_i taking d^beta to d^(beta+e_i)
if beta has no x_(>i) and dropping it otherwise: d^alpha comes back from its
last variable only (Mourrain, *Isolated points, duality and residues*, J. Pure
Appl. Algebra 117-118, 1997; Mantzaflaris and Mourrain, ISSAC 2011).  Let
W a = sum_i int_i (Q a_i)|_(x_(>i) = 0).  If S_l Q a_j = S_j Q a_l for all
j < l, then S_j W a = Q a_j, as S_j W a - Q a_j sums the restricted integrals
along x_l, l > j, of S_j Q a_l - S_l Q a_j; and a closed c is c(0) e_0 + W a
with a_i = Q* S_i c, which commute as S_l S_j c = S_j S_l c.  So C^(k) is e_0
plus W times the solutions a, on which W is one to one with
|a|^2 = sum_j |S_j W a|^2 <= min(n, k) |W a|^2.  Both sides of a constraint
lie in the order-(k-2) dual space, inside the range of Q's rows of order
<= k - 2; with P an orthonormal basis of that range, on which P* keeps norms,
the constraints are the C(n, 2) min(d, C(n + k - 2, k - 2)) rows of
K = [P* S_l Q a_j - P* S_j Q a_l]_(j<l) in the n d = n dim(Q) unknowns a.
At order 1, K has no rows (no functional has order -1), so every a is a
solution and C^(1) is e_0 and the n first-order functionals q_00 d_i, for
Q = [q_00]; it is built as such, and K is one gather of Q and one product
per order from order 2 on.

The candidates are made orthonormal without a factorization over the
C(n + k, k) monomial rows.  The integrals along distinct x_i land on disjoint
rows, and each keeps or drops a row of Q a_i, so |W a| <= |a| for every a.
For an orthonormal basis V of the solutions, the Gram matrix G of
[e_0, W V] thus has its eigenvalues in [1/min(n, k), 1], and with the
Cholesky factorization G = L L*, [e_0, W V] L^-* is orthonormal to about
eps cond(G).  The mean of G's inverse eigenvalues, |L^-1|_F^2 / dim G, is at
most min(n, k) by the bound and bounds cond(G) / dim G from above; where it
passes 1e3, as it can only when a forced tolerance puts non-commuting a into
K's numerical kernel, a Householder QR of [e_0, W V] is taken instead.  Q is the
previous basis as it is when that is orthonormal to 1e-12, as every basis
returned here is, and its QR otherwise.

``multiplicity_structure`` and ``deflation_one_necessary`` check their input
once: the point and the tolerance at entry, and no basis they made
themselves, which each order takes as Q unchecked.  A basis passed to
``next_order`` is checked, and taken through its QR if not orthonormal;
one with numerically dependent columns is rejected.

Everything here works at a numerically approximate point with tolerance
based rank decisions; there is no exact-arithmetic path.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import polycore, twostep
from .numla import _check_tolerance, right_svd, singular_values, split_svd
from .polycore import Exponent, PolySystem, _check_finite, _grlex, _taylor_shift

__all__ = [
    "Functional",
    "DualBasis",
    "DualSpaceReport",
    "next_order",
    "multiplicity_structure",
    "deflation_one_necessary",
    "is_deflation_one",
]


@dataclass(frozen=True)
class Functional:
    """A member of the span of the normalized differential functionals.

    ``terms`` maps multi-indices to complex coefficients, exactly like a
    sparse polynomial.
    """

    num_vars: int
    terms: dict[Exponent, complex]

    def is_zero(self) -> bool:
        return not self.terms


@dataclass
class DualBasis:
    """The dual space truncated at ``order``: its spanning functionals are the
    columns of the read-only matrix ``coeffs``, over the rows of
    ``monomials_upto(num_vars, order)``, with entries of modulus <= 1e-14 set
    to 0.  The columns of every basis this module returns are orthonormal, up
    to that rounding.

    ``candidate_dim`` is the dimension of the intermediate candidate space
    C^(order) the basis was cut from.  ``ambiguous`` is set when a singular
    value of one of the rank decisions fell within a factor 10 of the
    tolerance used.
    """

    order: int
    num_vars: int
    coeffs: np.ndarray
    tol: float
    candidate_dim: int
    ambiguous: bool = False

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @functools.cached_property
    def functionals(self) -> list[Functional]:
        """The columns as dicts of their nonzero entries, built on first use."""
        expo = _grlex(self.num_vars, self.order)[0]
        terms = ((map(tuple, expo[c != 0].tolist()), c[c != 0].tolist()) for c in self.coeffs.T)
        return [Functional(self.num_vars, dict(zip(*t))) for t in terms]

    def __eq__(self, other):
        key = operator.attrgetter("order", "num_vars", "tol", "candidate_dim", "ambiguous")
        if not isinstance(other, DualBasis):
            return NotImplemented
        return key(self) == key(other) and np.array_equal(self.coeffs, other.coeffs)


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
    *,
    _shift: dict | None = None,
) -> DualBasis:
    """One closedness step: from a basis of the order-(k-1) dual space to a
    basis of the order-k dual space.

    The candidate space is e_0 plus W times the kernel of the commutation
    matrix K (see the module docstring), found by one thin SVD of K and made
    orthonormal through the Cholesky factor of their small Gram matrix; the
    dual space is the kernel of the values of the candidates on the system,
    found by a second SVD.  At order 1, K has no rows, and the candidates are
    e_0 and the first-order functionals q_00 d_i, each in its graded-lex row.
    Each spectrum sets its own rank tolerance unless ``rank_tol`` is given.

    ``_shift`` is the state the orders of one ``multiplicity_structure`` or
    ``deflation_one_necessary`` call share: their Taylor shift (see
    ``_taylor``) and, as ``"basis"``, the basis the call made last.  That
    call checked ``xi`` and ``rank_tol`` at entry, so a ``prev`` that is this
    basis, by identity, is taken as Q unchecked; any other ``prev`` is
    checked and taken as Q as it is when orthonormal to 1e-12, as every basis
    returned here is, and through its QR otherwise.
    """
    n, k = system.num_vars, prev.order + 1
    if _shift is not None and _shift.get("basis") is prev:
        q = prev.coeffs
    else:
        if rank_tol is not None:
            rank_tol = _check_tolerance(rank_tol)
        xi, q = system._check_point(xi), _previous_q(n, prev)

    if k == 1:  # K has no rows: the candidates are e_0 and q_00 d_i, d_i on the row of x_i
        w = np.zeros((n + 1, n + 1), dtype=complex)
        w[_grlex(n, 1)[1][:, 0], np.arange(1, n + 1)] = q[0, 0]
        tol_m, ambiguous = _rank_tol(np.zeros(0), rank_tol), False
    else:
        kernel, tol_m, ambiguous = _commuting(q, n, k, rank_tol)
        # e_0, then W times the kernel (block i on the monomials of last variable x_i, none on e_0's row 0).
        d, (by_last, to, _) = q.shape[1], _blocks(n, k)
        qa, w = q[by_last], np.zeros((math.comb(n + k, n), 1 + kernel.shape[1]), dtype=complex)
        for targets, a in zip(to, kernel.reshape(n, d, kernel.shape[1])):
            w[targets, 1:] = qa[: len(targets)] @ a
    w[0, 0] = 1.0
    # The candidates w x, orthonormal (see the module docstring).
    x = _orthonormalizer(w.conj().T @ w)
    if x is None:  # at most C(n + k, k) columns
        w = np.linalg.qr(w)[0]
        x = np.eye(w.shape[1])

    # Column j holds the values of the j-th candidate on f_1..f_m (Taylor coefficients past deg f are 0).
    shift = _taylor(system, xi, k, _shift)
    evaluation = shift @ w[: shift.shape[1]] @ x
    keep, tol_e = x, tol_m
    if evaluation.any():
        sig_e, v_e = right_svd(evaluation)
        tol_e = _rank_tol(sig_e, rank_tol)
        keep = x @ v_e[:, np.count_nonzero(sig_e > tol_e) :]
        ambiguous = ambiguous or _near_tol(sig_e, tol_e)

    coeffs = w @ keep
    coeffs = np.where(np.abs(coeffs) > 1e-14, coeffs, 0)
    coeffs.flags.writeable = False
    basis = DualBasis(k, n, coeffs, tol=tol_e, candidate_dim=w.shape[1], ambiguous=ambiguous)
    if _shift is not None:
        _shift["basis"] = basis
    return basis


def _previous_q(n: int, prev: DualBasis) -> np.ndarray:
    """Q from a basis that a caller passes in: its coefficients as they are
    when orthonormal to 1e-12, and their QR otherwise; a ValueError unless
    they are a finite matrix of one row per monomial of degree <= its order
    and 1 to that many columns, and, when not orthonormal, of independent
    columns (smallest singular value above 1e-8 times the largest), as a QR
    would complete dependent ones with directions no caller gave."""
    if prev.num_vars != n:
        raise ValueError(f"the previous basis has {prev.num_vars} variables, the system has {n}")
    p, rows = np.asarray(prev.coeffs), math.comb(n + prev.order, n)
    if p.ndim != 2 or p.shape[0] != rows or not 1 <= p.shape[1] <= rows:
        raise ValueError(
            f"the previous basis coefficients have shape {p.shape}, expected ({rows}, dim): "
            f"one row per monomial of degree <= {prev.order} in {n} variables, "
            f"and 1 <= dim <= {rows} columns, as a dual space holds evaluation at the point"
        )
    _check_finite(p, "previous basis coefficient")
    if np.abs(p.conj().T @ p - np.eye(p.shape[1])).max() <= 1e-12:
        return p
    sigma = singular_values(p)
    if sigma[-1] <= 1e-8 * sigma[0]:
        raise ValueError(
            f"the previous basis columns are numerically dependent: singular values "
            f"{sigma[0]:.3e} to {sigma[-1]:.3e}, the smallest at most 1e-8 times the largest"
        )
    return np.linalg.qr(p)[0]


def _commuting(q: np.ndarray, n: int, k: int, rank_tol: float | None) -> tuple:
    """The kernel of K for the orthonormal basis ``q`` of the order-(k-1) dual
    space, by one thin SVD, with its rank tolerance and ambiguous flag."""
    d, (pair, j, l) = q.shape[1], _blocks(n, k)[2]
    # K: per pair j < l, the rows P* S_l Q a_j - P* S_j Q a_l, S_i Q a row gather of Q.
    shifted = q[_grlex(n, k - 1)[1]]  # n blocks of C(n + k - 2, k - 2) rows
    if shifted.shape[1] > d:  # else P is square and leaves out nothing: K goes without it
        shifted = np.linalg.qr(q[: shifted.shape[1]])[0].conj().T @ shifted
    kmat = np.zeros((len(pair), shifted.shape[1], n, d), dtype=complex)
    kmat[pair, :, j], kmat[pair, :, l] = shifted[l], -shifted[j]
    kmat = kmat.reshape(-1, n * d)
    sig_m, v_m = right_svd(kmat) if kmat.size else (np.zeros(0), np.eye(n * d, dtype=complex))
    tol_m = _rank_tol(sig_m, rank_tol)
    return v_m[:, np.count_nonzero(sig_m > tol_m) :], tol_m, _near_tol(sig_m, tol_m)


def _orthonormalizer(gram: np.ndarray) -> np.ndarray | None:
    """x = L^-* for ``gram`` = w* w = L L*, so that w x is orthonormal, or None
    where the mean of the inverse eigenvalues of ``gram``, |x|_F^2 / dim,
    passes 1e3 or the factorization fails (see the module docstring)."""
    try:
        x = np.linalg.inv(np.linalg.cholesky(gram)).conj().T
    except np.linalg.LinAlgError:
        return None
    return x if np.vdot(x, x).real <= 1e3 * len(x) else None


@functools.lru_cache(maxsize=64)
def _blocks(n: int, k: int) -> tuple:
    """Read-only: the rows r_j of order k - 1 sorted by last variable, per x_i the rows of alpha_(r_j)
    + e_i for the r_j with no variable past x_i (a prefix), and the pairs j < l with their ranks."""
    _, up, last = _grlex(n, k)
    by_last = np.argsort(last[: up.shape[1]], kind="stable")
    held = np.searchsorted(last[by_last], np.arange(n), side="right")
    to = tuple(up[i, by_last[:h]] for i, h in enumerate(held))
    pairs = (np.arange(math.comb(n, 2)), *np.triu_indices(n, 1))
    for a in (by_last, *to, *pairs):
        a.flags.writeable = False
    return by_last, to, pairs


def _taylor(system: PolySystem, xi: np.ndarray, k: int, held: dict | None) -> np.ndarray:
    """``taylor_coefficients(system, xi, k)`` at the checked point ``xi``
    without its zero columns past deg f (``polycore._taylor_shift``), so at
    most C(n + deg f, deg f) columns, read from ``held`` when the orders of
    one call pass it along.  T_k is the first C(n + k, k) columns of T_K for
    k <= K, so a shift made one order ahead serves two orders, and none is
    made past deg f.  ``held`` lives only as long as the call that made it."""
    deg, k = system.degree(), min(k, system.degree())
    if held is None:
        return _taylor_shift(system, xi, k)
    if held.get("order", -1) < k:
        held["order"] = min(k + 1, deg)
        held["shift"] = _taylor_shift(system, xi, held["order"])
    return held["shift"][:, : math.comb(system.num_vars + k, k)]


def _order_zero(system: PolySystem, xi, rank_tol: float | None) -> tuple:
    """Check the point and tolerance of a ``multiplicity_structure`` or
    ``deflation_one_necessary`` call once, and start the state its orders
    share (see ``next_order``) with the order-0 dual space as its basis:
    evaluation at the point, decided by the rule of every order on its one
    value f(xi), column 0 of the Taylor shift that order 1 reads.  Returns
    the checked point and tolerance and that state, or raises a ValueError
    if f(xi) is above the rank tolerance, as then the point is not a zero."""
    if rank_tol is not None:
        rank_tol = _check_tolerance(rank_tol)
    xi, held = system._check_point(xi), {}
    value = np.linalg.norm(_taylor(system, xi, 1, held)[:, 0], keepdims=True)
    tol = _rank_tol(value, rank_tol)
    if value[0] > tol:
        raise ValueError(
            f"the point is not a zero: |f(xi)| = {value[0]:.3e} is above the rank tolerance {tol:.3e}"
        )
    unit = np.ones((1, 1), dtype=complex)
    unit.flags.writeable = False
    held["basis"] = DualBasis(0, system.num_vars, unit, tol, candidate_dim=1, ambiguous=_near_tol(value, tol))
    return xi, rank_tol, held


def multiplicity_structure(
    system: PolySystem,
    xi,
    rank_tol: float | None = None,
    max_order: int = 12,
) -> DualSpaceReport:
    """Breadth, depth and multiplicity at ``xi`` by iterating ``next_order``
    until the dimension stabilizes (or ``max_order`` is hit, in which case
    the report is flagged unstabilized).  A ValueError where ``xi`` is not a
    zero (see ``_order_zero``)."""
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    xi, rank_tol, held = _order_zero(system, xi, rank_tol)
    stabilized, bases = False, [held["basis"]]
    for _ in range(max_order):
        bases.append(next_order(system, xi, bases[-1], rank_tol, _shift=held))
        if bases[-1].dim == bases[-2].dim:
            stabilized = True
            break
    last = bases[-2] if stabilized else bases[-1]
    return DualSpaceReport(
        breadth=bases[1].dim - bases[0].dim,
        depth=last.order,
        multiplicity=last.dim,
        bases=bases,
        stabilized=stabilized,
    )


def deflation_one_necessary(system: PolySystem, xi, rank_tol: float | None = None) -> bool:
    """Order-2 dimension test: dim C^(2) - dim D^(2) must equal n at a
    deflation-one singular zero.  Necessary, not sufficient.  A ValueError
    where ``xi`` is not a zero (see ``_order_zero``)."""
    xi, rank_tol, held = _order_zero(system, xi, rank_tol)
    d1 = next_order(system, xi, held["basis"], rank_tol, _shift=held)
    d2 = next_order(system, xi, d1, rank_tol, _shift=held)
    return d2.candidate_dim - d2.dim == system.num_vars


def is_deflation_one(
    system: PolySystem,
    x,
    tol: float | None = None,
    seed: int | None = 0,
) -> bool:
    """Randomized sufficient test: sample three unit kernel directions and
    accept when any makes the kernel-step operator comfortably invertible.

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
    for _ in range(3):
        v = twostep.random_direction(split.v2, rng)
        h = polycore.dir_hessian(system, x, v)
        scale = np.linalg.norm(h, 2)
        if scale == 0:
            continue
        b = split.u2.conj().T @ h @ split.v2
        if singular_values(b)[-1] > split.tol * scale:
            return True
    return False
