"""Oracles shared by the tests: partial derivatives, contractions and the
deflation augmentation, built with polynomial arithmetic; differential
functionals applied through Taylor coefficients; the square randomisation
R.g of an evaluator, numeric and symbolic; the paper's operator A; term
arrays sorted by lexsort; row sums from two bincounts; graded-lex
multi-indices from combinations; the dual-space step that rebuilds its
tables from dicts at every order,
on the commutation matrix of the restricted-integral coefficients, and the
membership steps on restricted integrals and on the D^+ integrals;
the Taylor shift as one loop over the variables; the affine substitution
f(A(X - b)) by polynomial arithmetic."""

import itertools
import math

import numpy as np

from snewton import polycore, twostep
from snewton.dualspace import DualBasis, _near_tol, _rank_tol
from snewton.numla import _check_tolerance, right_svd
from snewton.polycore import (
    Poly,
    PolySystem,
    dir_hessian,
    grlex_key,
    monomials_upto,
    taylor_coefficients,
)


def symbolic_partial(p, j):
    """The partial derivative of ``p`` along x_j, as a polynomial."""
    out = {}
    for alpha, c in p.terms.items():
        if alpha[j]:
            beta = list(alpha)
            beta[j] -= 1
            out[tuple(beta)] = c * alpha[j]
    return Poly(p.num_vars, out)


def symbolic_jacobian(system):
    """Entry [i][j] is df_i/dx_j, as a polynomial."""
    return [[symbolic_partial(p, j) for j in range(system.num_vars)] for p in system]


def symbolic_derivative(system, dirs):
    """D^k f[v_1, ..., v_k] as a system: the symbolic partials contracted
    with each direction in turn."""
    polys = list(system)
    for v in dirs:
        contracted = []
        for p in polys:
            acc = Poly.zero(system.num_vars)
            for j, vj in enumerate(v):
                if vj != 0:
                    acc = acc + symbolic_partial(p, j) * complex(vj)
            contracted.append(acc)
        polys = contracted
    return PolySystem(polys)


def magnitudes(system):
    """The system with every coefficient replaced by its modulus."""
    return PolySystem(Poly(p.num_vars, {a: abs(c) for a, c in p.terms.items()}) for p in system)


def symbolic_augment(system, weights, pinned=None, normal=None):
    """g = [f ; Df.(pinned + W lambda) ; normal^T lambda - 1] built with
    polynomial arithmetic, one multiplier per column of W = ``weights``."""
    p, q = system.num_vars, weights.shape[1]
    total = p + q

    def extend(poly):
        return Poly(total, {alpha + (0,) * q: c for alpha, c in poly.terms.items()})

    lam = [Poly.variable(total, p + mu) for mu in range(q)]
    polys = [extend(f) for f in system]
    for f in system:
        partials = [extend(symbolic_partial(f, j)) for j in range(p)]
        acc = Poly.zero(total)
        if pinned is not None:
            for d, w in zip(partials, pinned):
                acc = acc + d * w
        for mu in range(q):
            combo = Poly.zero(total)
            for d, w in zip(partials, weights[:, mu]):
                combo = combo + d * w
            acc = acc + combo * lam[mu]
        polys.append(acc)
    if normal is not None:
        row = Poly.constant(total, -1.0)
        for l, b in zip(lam, normal):
            row = row + l * b
        polys.append(row)
    return PolySystem(polys)


class AugmentOracle:
    """The symbolic augmentation of a parent oracle, with its magnitude
    twin: the same augmentation of the moduli of every coefficient, weight
    and pinned or normal entry.  Evaluated at the moduli of the point and
    of the directions, the twin bounds every term either evaluation sums,
    so it is the scale rounding errors are measured against."""

    def __init__(self, parent, weights, pinned=None, normal=None):
        if isinstance(parent, PolySystem):
            parent = (parent, magnitudes(parent))
        else:
            parent = (parent.system, parent.magnitude)
        absolute = [None if a is None else np.abs(a) for a in (pinned, normal)]
        self.system = symbolic_augment(parent[0], weights, pinned, normal)
        self.magnitude = magnitudes(symbolic_augment(parent[1], np.abs(weights), *absolute))


class SquareRandomization:
    """R.g for an evaluator g and R with unit complex Gaussian entries from
    ``rng``, one row per variable of g and one column per row: a square
    evaluator that defines only the three names of the interface
    ``PolySystem`` documents and binds the rest, as ``lvz.AugmentedSystem``
    does."""

    def __init__(self, g, rng):
        shape = (g.num_vars, len(g))
        self.g, self.num_vars = g, g.num_vars
        self.r = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def __len__(self):
        return self.r.shape[0]

    def _values(self, x, orders, *dirs):
        return [self.r @ values for values in self.g._values(x, orders, *dirs)]

    eval, jacobian, _check_point = PolySystem.eval, PolySystem.jacobian, PolySystem._check_point
    directional_derivative, is_square = PolySystem.directional_derivative, PolySystem.is_square


def symbolic_randomization(system, r):
    """R.f built with polynomial arithmetic: row i is sum_j R[i, j] f_j."""
    zero = Poly.zero(system.num_vars)
    return PolySystem(sum((f * complex(c) for f, c in zip(system, row)), zero) for row in r)


def assert_matches_oracle(g, oracle, y, dirs_list, rel=1e-12):
    """``g.eval``, ``g.jacobian`` and ``g.directional_derivative`` along each
    direction in ``dirs_list`` equal the oracle's ``eval``, ``jacobian`` and
    ``dir_hessian`` within ``rel`` of the magnitude scale."""
    y = np.asarray(y, dtype=complex)
    sym, mag, ay = oracle.system, oracle.magnitude, np.abs(y)
    pairs = [
        (g.eval(y), sym.eval(y), mag.eval(ay)),
        (g.jacobian(y), sym.jacobian(y), mag.jacobian(ay)),
    ]
    for w in dirs_list:
        pairs.append(
            (g.directional_derivative(y, [w]), dir_hessian(sym, y, w), dir_hessian(mag, ay, np.abs(w)))
        )
    assert len(g) == len(sym) and g.num_vars == sym.num_vars
    for got, want, scale in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= rel * np.linalg.norm(scale), (got, want)


def apply_functional(functional, p, xi):
    """Apply a differential functional (anything with a ``terms`` multi-index
    map, or a plain dict) to ``p`` at the point ``xi``."""
    terms = getattr(functional, "terms", functional)
    nv = getattr(functional, "num_vars", None)
    if nv is not None and nv != p.num_vars:
        raise ValueError("functional and polynomial disagree on num_vars")
    if any(len(alpha) != p.num_vars for alpha in terms):
        raise ValueError("multi-index length does not match the number of variables")
    order = max((sum(alpha) for alpha in terms), default=0)
    coeffs = taylor_coefficients(PolySystem([p]), xi, order)[0]
    index = {alpha: r for r, alpha in enumerate(monomials_upto(p.num_vars, order))}
    total = 0j
    for alpha in sorted(terms, key=grlex_key):
        total += terms[alpha] * coeffs[index[alpha]]
    return total


def looped_taylor_shift(system, xi, order):
    """``taylor_coefficients`` as one loop over the variables, from the last,
    that expands the terms and multiplies their weights at each variable,
    dropping the weights that became zero, with binomials from an int64
    Pascal table as large as the largest exponent (they wrap past 2^63)."""
    xi = system._check_point(xi)
    n = system.num_vars
    expo, w, row, m = system._arrays
    top = max(n + order, int(expo.max(initial=0)))
    pascal = polycore._pascal(top)
    size = int(pascal[n + order, n])
    term = np.arange(len(w))
    deg = np.zeros(len(w), dtype=np.int64)
    index = row * size  # row offset plus the rank of alpha so far
    for j in reversed(range(n)):
        col = expo[:, j]
        if not col.any():
            continue
        beta = col[term].astype(np.int64)
        reps = np.minimum(beta, order - deg) + 1
        a = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        beta = np.repeat(beta, reps)
        powers = xi[j] ** np.arange(int(col.max()) + 1)
        w = np.repeat(w, reps) * pascal[beta, a] * powers[beta - a]
        low = np.repeat(deg, reps)
        deg = low + a
        mj = n - 1 - j
        index = np.repeat(index, reps) + pascal[deg + mj, mj] - pascal[low + mj, mj]
        keep = w != 0
        term, w, deg, index = np.repeat(term, reps)[keep], w[keep], deg[keep], index[keep]
    index += pascal[n + deg - 1, n]
    return polycore._pair_sums(w, polycore._pair_ids(index), m * size).reshape(m, size)


def operator_A(system, x, v, v2):
    """The paper's A(x) = Df(x) + D2f(x)(v, P .) with P = V2 V2*: Df(x) plus
    the Hessian contracted with v, projected on span(V2).  ``v`` and ``v2``
    are checked as ``twostep.operator_B`` checks them."""
    v = twostep._check_direction(v, system.num_vars, v2)
    proj = v2 @ v2.conj().T
    return system.jacobian(x) + dir_hessian(system, x, v) @ proj


def lexsorted_arrays(expo, coef, row, m):
    """Term arrays in canonical order (by row, degree, then exponents from
    the first variable) by one ``np.lexsort``, zero coefficients dropped:
    what ``PolySystem`` stores for any input order."""
    order = np.lexsort((*expo.T[::-1], expo.sum(axis=1), row))
    order = order[coef[order] != 0]
    return expo[order].astype(np.int16), coef[order], row[order].astype(np.int64), m


def segment_sums(vals, row, m):
    """The ``m`` row sums of the complex ``vals`` with row ids ``row``: one
    bincount per part, each adding its row's parts in input order."""
    re = np.bincount(row, weights=vals.real, minlength=m)
    im = np.bincount(row, weights=vals.imag, minlength=m)
    return re + 1j * im


def monomials_by_combinations(num_vars, order):
    """All multi-indices with |alpha| <= order, in graded-lex order: within
    one degree, reversed ``combinations_with_replacement`` order is
    ascending lex order of the exponent counts."""
    out = []
    for deg in range(order + 1):
        block = []
        for combo in itertools.combinations_with_replacement(range(num_vars), deg):
            alpha = [0] * num_vars
            for i in combo:
                alpha[i] += 1
            block.append(tuple(alpha))
        out.extend(reversed(block))
    return out


def _raised(alpha, i):
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]


def commutation_matrix(q, n, k):
    """K of ``dualspace.next_order`` for the orthonormal basis ``q`` of the
    order-(k-1) dual space, by dict lookups: per pair j < l in
    ``itertools.combinations`` order, the rows P* S_l Q in the columns of
    a_j and -P* S_j Q in those of a_l, with P from the QR of Q's rows of
    order <= k - 2 when they are more than d = dim(Q), and S_i Q gathered
    one row at a time."""
    below = monomials_by_combinations(n, k - 1)
    index = {alpha: r for r, alpha in enumerate(below)}
    lower = below[: math.comb(n + k - 2, n)]
    d = q.shape[1]
    shifted = [q[[index[_raised(alpha, i)] for alpha in lower]] for i in range(n)]
    if len(lower) > d:  # else P would be square, and next_order leaves it out
        p = np.linalg.qr(q[: len(lower)])[0]
        shifted = [p.conj().T @ block for block in shifted]
    rows = [np.zeros((0, n * d), dtype=complex)]
    for j, l in itertools.combinations(range(n), 2):
        row = np.zeros((min(d, len(lower)), n * d), dtype=complex)
        row[:, j * d : (j + 1) * d], row[:, l * d : (l + 1) * d] = shifted[l], -shifted[j]
        rows.append(row)
    return np.vstack(rows)


def restricted_integrals(q, coef, n, k):
    """W coef, for the blocks coef_i = coef[i d : (i + 1) d] of d = dim(Q)
    rows: the sum over x_i of the integral along x_i of Q coef_i restricted
    to x_(>i) = 0, by dict lookups, one variable at a time over the rows of
    order <= k - 1 sorted by last variable."""
    basis_k = monomials_by_combinations(n, k)
    below = basis_k[: math.comb(n + k - 1, n)]
    index = {alpha: r for r, alpha in enumerate(basis_k)}
    last = [max((j for j, e in enumerate(alpha) if e), default=-1) for alpha in below]
    ranked = sorted(range(len(below)), key=last.__getitem__)
    blocks = coef.reshape(n, q.shape[1], coef.shape[1])
    out = np.zeros((len(basis_k), coef.shape[1]), dtype=complex)
    for i in range(n):
        held = [r for r in ranked if last[r] <= i]
        out[[index[_raised(below[r], i)] for r in held]] = q[held] @ blocks[i]
    return out


def rebuilt_next_order(system, xi, prev, rank_tol=None):
    """``dualspace.next_order`` with every table rebuilt at every order: the
    commutation matrix K and the restricted integrals of its kernel by dict
    lookups (``commutation_matrix``, ``restricted_integrals``), and a Taylor
    shift of its own.  The previous basis is Q as it is when orthonormal to
    1e-12; the candidates [e_0, W V] x, x = L^-* from the Cholesky factor of
    their Gram matrix, are kept while |x|_F^2 <= 1e3 dim, and made
    orthonormal by a QR otherwise."""
    if rank_tol is not None:
        rank_tol = _check_tolerance(rank_tol)
    n = system.num_vars
    xi = system._check_point(xi)
    k, p = prev.order + 1, prev.coeffs
    q = p if np.abs(p.conj().T @ p - np.eye(p.shape[1])).max(initial=0) <= 1e-12 else np.linalg.qr(p)[0]
    kmat = commutation_matrix(q, n, k)
    if len(kmat):
        sig_m, v_m = right_svd(kmat)
    else:
        sig_m, v_m = np.zeros(0), np.eye(kmat.shape[1], dtype=complex)
    tol_m = _rank_tol(sig_m, rank_tol)
    integrals = restricted_integrals(q, v_m[:, int(np.sum(sig_m > tol_m)) :], n, k)
    w = np.hstack([np.eye(len(integrals), 1, dtype=complex), integrals])
    try:
        x = np.linalg.inv(np.linalg.cholesky(w.conj().T @ w)).conj().T
    except np.linalg.LinAlgError:
        x = None
    if x is None or np.vdot(x, x).real > 1e3 * len(x):
        w = np.linalg.qr(w)[0]
        x = np.eye(w.shape[1])

    evaluation = taylor_coefficients(system, xi, k) @ w @ x
    keep, tol_e, ambiguous = x, tol_m, _near_tol(sig_m, tol_m)
    if evaluation.any():
        sig_e, v_e = right_svd(evaluation)
        tol_e = _rank_tol(sig_e, rank_tol)
        keep = x @ v_e[:, int(np.sum(sig_e > tol_e)) :]
        ambiguous = ambiguous or _near_tol(sig_e, tol_e)
    coeffs = w @ keep
    coeffs = np.where(np.abs(coeffs) > 1e-14, coeffs, 0)
    coeffs.flags.writeable = False
    return DualBasis(k, n, coeffs, tol=tol_e, candidate_dim=w.shape[1], ambiguous=ambiguous)


def membership_next_order(system, xi, prev, rank_tol=None):
    """The closedness step on the membership matrix MZ, with Z the unit
    functional and one orthonormal block per variable of the restricted
    integrals of Q: one variable at a time the copy of Q restricted to
    x_(>i) = 0 (its rows sorted by last variable, padded with zero rows),
    its own QR and its integrals scattered into Z by dict lookups.  The
    construction ``next_order`` used before the commutation matrix."""

    def restricted_blocks(q, basis_k, below, up):
        last = [max((j for j, e in enumerate(a) if e), default=-1) for a in below]
        ranked = sorted(range(len(below)), key=last.__getitem__)
        columns = [np.eye(len(basis_k), 1, dtype=complex)]
        for i in range(len(up)):
            held = [r for r in ranked if last[r] <= i]
            restricted = np.zeros_like(q)
            restricted[: len(held)] = q[held]
            block, _ = np.linalg.qr(restricted)
            integral = np.zeros((len(basis_k), min(len(held), q.shape[1])), dtype=complex)
            for j, r in enumerate(held):
                integral[up[i, r]] = block[j, : integral.shape[1]]
            columns.append(integral)
        return np.hstack(columns)

    return _closedness_step(system, xi, prev, rank_tol, restricted_blocks)


def integral_next_order(system, xi, prev, rank_tol=None):
    """The closedness step on the integrals D^+ S_i* q_j of the whole previous
    basis, D = diag(#{i : alpha_i > 0}), orthonormalized with e_0 by one QR
    over all C(n + k, k) rows, with the same tables, MZ and rank rules as
    ``membership_next_order``: the one oracle beside the dense one whose
    candidates do not come from restricted integrals."""

    def integrals(q, basis_k, below, up):
        n, d = len(up), q.shape[1]
        out = np.zeros((len(basis_k), 1 + n * d), dtype=complex)
        out[0, 0] = 1.0
        for i in range(n):
            out[up[i], 1 + i * d : 1 + (i + 1) * d] = q
        support = np.count_nonzero(np.array(basis_k[1:]), axis=1)
        out[1:] /= support[:, None]
        return np.linalg.qr(out)[0]

    return _closedness_step(system, xi, prev, rank_tol, integrals)


def _closedness_step(system, xi, prev, rank_tol, candidate_basis):
    """One order from tables rebuilt by dict lookups, with the orthonormal
    Z = candidate_basis(Q, order-k multi-indices, order-(k-1) ones, up)."""
    if rank_tol is not None:
        rank_tol = _check_tolerance(rank_tol)
    n = system.num_vars
    xi = system._check_point(xi)
    k = prev.order + 1
    basis_k = monomials_by_combinations(n, k)
    below = basis_k[: math.comb(n + k - 1, n)]  # the order-(k-1) monomials lead basis_k
    index = {a: r for r, a in enumerate(basis_k)}

    q, _ = np.linalg.qr(prev.coeffs)

    # up[i, r] is the row of basis_k[r] + e_i, so S_i c = c[up[i]].
    up = np.array([[index[_raised(a, i)] for a in below] for i in range(n)])
    z = candidate_basis(q, basis_k, below, up)

    blocks = []
    for i in range(n):
        shifted = z[up[i]]
        blocks.append(shifted - q @ (q.conj().T @ shifted))
    sig_m, v_m = right_svd(np.vstack(blocks))
    tol_m = _rank_tol(sig_m, rank_tol)
    candidates = z @ v_m[:, int(np.sum(sig_m > tol_m)) :]
    return _annihilating_part(system, xi, k, candidates, tol_m, _near_tol(sig_m, tol_m), rank_tol)


def _annihilating_part(system, xi, k, candidates, tol_m, ambiguous, rank_tol):
    """The order-k basis cut from the orthonormal ``candidates`` by the
    kernel of their values on the system, from a Taylor shift of its own."""
    evaluation = taylor_coefficients(system, xi, k) @ candidates
    if evaluation.any():
        sig_e, v_e = right_svd(evaluation)
        tol_e = _rank_tol(sig_e, rank_tol)
        coeffs = candidates @ v_e[:, int(np.sum(sig_e > tol_e)) :]
        ambiguous = ambiguous or _near_tol(sig_e, tol_e)
    else:
        coeffs = candidates
        tol_e = tol_m

    coeffs = np.where(np.abs(coeffs) > 1e-14, coeffs, 0)
    coeffs.flags.writeable = False
    return DualBasis(
        order=k,
        num_vars=system.num_vars,
        coeffs=coeffs,
        tol=tol_e,
        candidate_dim=candidates.shape[1],
        ambiguous=ambiguous,
    )


def symbolic_compose_affine(system, a, b):
    """``compose_affine`` with polynomial arithmetic: each row adds, in
    graded-lex order, its terms c * l_1^e_1 * ... * l_n^e_n, with the powers
    of each linear form l_i = a_i . X - (a b)_i built by repeated products."""
    n = system.num_vars
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex).reshape(-1)
    shift = a @ b
    linear = []
    for i in range(n):
        terms = {}
        for j in range(n):
            if a[i, j] != 0:
                terms[tuple(int(j == k) for k in range(n))] = a[i, j]
        if shift[i] != 0:
            terms[(0,) * n] = 0.0 - shift[i]
        linear.append(Poly(n, terms))
    powers = [[Poly.constant(n, 1.0), linear[i]] for i in range(n)]

    def power(i, k):
        while len(powers[i]) <= k:
            powers[i].append(powers[i][-1] * linear[i])
        return powers[i][k]

    out = []
    for p in system.polys:
        q = Poly.zero(n)
        for alpha in sorted(p.terms, key=grlex_key):
            term = Poly.constant(n, p.terms[alpha])
            for i, e in enumerate(alpha):
                if e:
                    term = term * power(i, e)
            q = q + term
        out.append(q)
    return PolySystem(out)
