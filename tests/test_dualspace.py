"""Dual-space recursion, multiplicity structure, deflation-one tests."""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snewton import dualspace, polycore
from snewton.bench import catalog, get_entry, random_variant
from snewton.dualspace import (
    DualBasis,
    Functional,
    _near_tol,
    _rank_tol,
    deflation_one_necessary,
    is_deflation_one,
    multiplicity_structure,
    next_order,
)
from snewton.numla import kernel_basis, right_svd, singular_values, split_svd
from snewton.polycore import Exponent, _grlex, monomials_upto, parse_system, taylor_coefficients
from snewton.twostep import operator_B

from oracles import (
    apply_functional,
    commutation_matrix,
    integral_next_order,
    membership_next_order,
    monomials_by_combinations,
    rebuilt_next_order,
    restricted_integrals,
)


def _make_functional(num_vars, terms):
    clean = {tuple(a): complex(c) for a, c in terms.items() if c != 0}
    return Functional(num_vars, clean)


def phi(functional, index):
    """Oracle shift operator: sends d^alpha to d^(alpha - e_index), dropping
    terms with alpha_index = 0.  ``index`` is 0-based."""
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


def base_basis(n):
    return DualBasis(order=0, num_vars=n, coeffs=np.ones((1, 1), dtype=complex), tol=0.0, candidate_dim=1)


def dense_next_order(system, xi, prev, rank_tol=None):
    """Oracle: the closedness step on the dense membership matrix
    M = vstack_i (I - QQ*) S_i with all C(n + k, k) monomial columns, and
    the evaluation matrix from one ``normalized_partial`` per (monomial,
    polynomial) pair; the rank rules are those of ``next_order``."""
    n = system.num_vars
    xi = system._check_point(xi)
    k = prev.order + 1
    basis_k = monomials_upto(n, k)
    basis_prev = monomials_upto(n, k - 1)
    index_prev = {a: i for i, a in enumerate(basis_prev)}
    nk, nprev = len(basis_k), len(basis_prev)

    q, _ = np.linalg.qr(prev.coeffs)

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
    return DualBasis(
        order=k,
        num_vars=n,
        coeffs=np.where(np.abs(coeffs) > 1e-14, coeffs, 0),
        tol=tol_e,
        candidate_dim=candidates.shape[1],
        ambiguous=ambiguous,
    )


def span_projector(basis):
    """Orthogonal projector onto the span of the basis coefficient vectors."""
    q, _ = np.linalg.qr(basis.coeffs)
    return q @ q.conj().T


def assert_step_matches_dense_oracle(system, xi, prev, rank_tol=None):
    fast = next_order(system, xi, prev, rank_tol)
    dense = dense_next_order(system, xi, prev, rank_tol)
    got = (fast.dim, fast.candidate_dim, fast.ambiguous)
    assert got == (dense.dim, dense.candidate_dim, dense.ambiguous), fast.order
    assert fast.tol == pytest.approx(dense.tol, rel=1e-9), fast.order
    gap = np.abs(span_projector(fast) - span_projector(dense)).max()
    assert gap <= 1e-8, (fast.order, gap)
    return fast


def assert_recursion_matches_dense_oracle(system, xi, rank_tol=None, max_order=12):
    prev = base_basis(system.num_vars)
    for _ in range(max_order):
        nxt = assert_step_matches_dense_oracle(system, xi, prev, rank_tol)
        if nxt.dim == prev.dim:
            return
        prev = nxt


# -- shift operator -------------------------------------------------------------


def test_phi_shifts_down():
    lam = Functional(2, {(2, 0): 1.0})
    assert phi(lam, 0).terms == {(1, 0): 1.0}
    assert phi(lam, 1).is_zero()


def test_phi_drops_zero_exponents():
    lam = Functional(2, {(1, 0): 1.0})
    assert phi(lam, 1).is_zero()
    assert phi(lam, 0).terms == {(0, 0): 1.0}


def test_phi_commutes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        terms = {
            tuple(int(a) for a in rng.integers(0, 4, size=3)): complex(rng.standard_normal())
            for _ in range(5)
        }
        lam = Functional(3, terms)
        i, j = rng.integers(0, 3, size=2)
        assert phi(phi(lam, i), j).terms == pytest.approx(phi(phi(lam, j), i).terms)


def test_phi_index_range():
    with pytest.raises(ValueError):
        phi(Functional(2, {(0, 0): 1.0}), 2)


def test_monomials_upto_counts_and_order():
    basis = monomials_upto(3, 2)
    assert len(basis) == 10
    assert basis[0] == (0, 0, 0)
    degrees = [sum(a) for a in basis]
    assert degrees == sorted(degrees)


# -- one recursion step ----------------------------------------------------------


def test_next_order_running_example_first_order():
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3))
    assert d1.dim == 3
    assert d1.candidate_dim == 4
    assert not d1.ambiguous


def test_next_order_x2_xy_candidate_space():
    system = parse_system("x^2\nx*y", ["x", "y"])
    d1 = next_order(system, [0, 0], base_basis(2))
    assert d1.dim == 3  # 1, d1, d2 all annihilate at the origin
    d2 = next_order(system, [0, 0], d1)
    # all six order <= 2 monomial functionals satisfy the shift condition,
    # and the evaluation matrix [0 0 0 e1 e2 0] cuts exactly two of them
    assert d2.candidate_dim == 6
    assert d2.dim == 4


def test_next_order_regular_zero_stays_one_dimensional():
    system = parse_system("x\ny", ["x", "y"])
    d1 = next_order(system, [0, 0], base_basis(2))
    assert d1.dim == 1
    d2 = next_order(system, [0, 0], d1)
    assert d2.dim == 1


def test_dual_space_span_contains_unit_functional():
    entry = get_entry("running-example")
    report = multiplicity_structure(entry.system, entry.zero)
    basis = report.bases[-1]
    unit = np.zeros(basis.coeffs.shape[0], dtype=complex)
    unit[monomials_upto(3, basis.order).index((0, 0, 0))] = 1.0
    q, _ = np.linalg.qr(basis.coeffs)
    residual = unit - q @ (q.conj().T @ unit)
    assert np.linalg.norm(residual) < 1e-10


def test_rank_ambiguity_is_flagged():
    # with the tolerance forced next to a genuine singular value the rank
    # decision is ambiguous and the basis says so
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3), rank_tol=1.0)
    assert d1.ambiguous
    clean = next_order(entry.system, entry.zero, base_basis(3))
    assert not clean.ambiguous


def test_next_order_matches_dense_oracle_on_catalog():
    for entry in catalog():
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        assert_recursion_matches_dense_oracle(entry.system, entry.zero, rank_tol)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_next_order_matches_dense_oracle_on_random_variants(n, k):
    for seed in (0, 1, 2):
        system, zero = random_variant(n, k, seed=seed)
        assert_recursion_matches_dense_oracle(system, zero)


def test_next_order_matches_dense_oracle_at_non_isolated_zero():
    system = parse_system("x^2\nx*y", ["x", "y"])
    assert_recursion_matches_dense_oracle(system, [0, 0], max_order=6)


def test_next_order_matches_dense_oracle_with_forced_tolerance():
    entry = get_entry("running-example")
    d1 = assert_step_matches_dense_oracle(entry.system, entry.zero, base_basis(3), rank_tol=1.0)
    assert d1.ambiguous


# -- the oracle that rebuilds its tables at every order ------------------------------


def assert_same_basis(got, want):
    """Same order, variable count, tol, candidate_dim and ambiguous flag,
    and read-only coefficient matrices of the same shape and bytes."""
    fields = ("order", "num_vars", "tol", "candidate_dim", "ambiguous")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert got.coeffs.shape == want.coeffs.shape and not got.coeffs.flags.writeable, got.order
    assert got.coeffs.tobytes() == want.coeffs.tobytes(), got.order


def assert_matches_rebuilt_oracle(monkeypatch, system, xi, rank_tol=None, max_order=12):
    """``multiplicity_structure`` and ``deflation_one_necessary`` give what
    they give with ``rebuilt_next_order`` as their step, basis by basis."""
    report = multiplicity_structure(system, xi, rank_tol, max_order)
    necessary = deflation_one_necessary(system, xi, rank_tol)
    def rebuilt(system, xi, prev, rank_tol, _shift):
        return rebuilt_next_order(system, xi, prev, rank_tol)

    with monkeypatch.context() as patch:
        patch.setattr(dualspace, "next_order", rebuilt)
        want = multiplicity_structure(system, xi, rank_tol, max_order)
        assert necessary == deflation_one_necessary(system, xi, rank_tol)
    assert report == want
    for got, basis in zip(report.bases, want.bases):
        assert_same_basis(got, basis)


def test_next_order_matches_rebuilt_oracle_on_catalog(monkeypatch):
    for entry in catalog():
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        assert_matches_rebuilt_oracle(monkeypatch, entry.system, entry.zero, rank_tol)


@pytest.mark.parametrize("n", range(3, 13))
def test_next_order_matches_rebuilt_oracle_on_random_variants(monkeypatch, n):
    for k in (1, 2, 3):
        for seed in (0, 1, 2):
            system, zero = random_variant(n, k, seed=seed)
            assert_matches_rebuilt_oracle(monkeypatch, system, zero)


def test_next_order_matches_rebuilt_oracle_at_non_isolated_zero(monkeypatch):
    system = parse_system("x^2\nx*y", ["x", "y"])
    assert_matches_rebuilt_oracle(monkeypatch, system, [0, 0], max_order=6)


def test_next_order_matches_rebuilt_oracle_with_forced_tolerance(monkeypatch):
    # Cyclic9 is left out: with every rank decision forced it takes minutes
    for entry in catalog():
        if entry.name != "Cyclic9":
            assert_matches_rebuilt_oracle(monkeypatch, entry.system, entry.zero, 1.0, max_order=4)


# -- restricted integrals --------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), density=st.floats(0, 1))
def test_a_functional_is_its_value_at_zero_plus_its_restricted_integrals(n, k, seed, density):
    """c = c(0) e_0 + sum_i int_i (S_i c)|_(x_(>i) = 0) term by term, where the
    restricted integral int_i takes d^beta with no x_(>i) to d^(beta + e_i):
    each term of c comes back once, from the last variable of its index.  So
    a c whose every S_i c lies in span(Q) lies in span(e_0, int_i Q)."""
    rng = np.random.default_rng(seed)
    keys = monomials_upto(n, k)
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    c = _make_functional(n, dict(zip(keys, values * (rng.random(len(keys)) < density))))
    total = {a: v for a, v in c.terms.items() if not any(a)}
    for i in range(n):
        for beta, value in phi(c, i).terms.items():
            if not any(beta[i + 1 :]):
                alpha = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                assert alpha not in total
                total[alpha] = value
    assert total == c.terms


def _case(name):
    """A catalog zero by name, or ``random_variant(n, k, seed)`` for (n, k, seed)."""
    if isinstance(name, tuple):
        n, k, seed = name
        return (*random_variant(n, k, seed=seed), None)
    entry = get_entry(name)
    return entry.system, entry.zero, 1e-6 if name == "Cyclic9" else None


@functools.cache
def dense_bases(name):
    """The bases of orders 0, 1, ... of the dense oracle, up to order 3 or
    the order where the dimension stays."""
    system, zero, rank_tol = _case(name)
    bases = [base_basis(system.num_vars)]
    while len(bases) < 4 and (len(bases) < 2 or bases[-1].dim != bases[-2].dim):
        bases.append(dense_next_order(system, zero, bases[-1], rank_tol))
    return system.num_vars, tuple(bases)


LEMMA_CASES = [e.name for e in catalog()] + [(n, k, s) for n in range(3, 9) for k in (1, 2, 3) for s in (0, 1)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(LEMMA_CASES), order=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_kernel_of_the_commutation_matrix_gives_closed_functionals(case, order, seed):
    """For a in the kernel of K, built on a basis Q of the dense oracle's
    order-(k-1) dual space, c(a) = W a has S_j c(a) = Q a_j for every x_j
    (so c(a) is closed), and |a| <= sqrt(min(n, k)) |c(a)|: a -> c(a) is one
    to one on the kernel, with a bounded inverse."""
    n, bases = dense_bases(case)
    k = min(order, len(bases))
    q, _ = np.linalg.qr(bases[k - 1].coeffs)
    d = q.shape[1]
    kmat = commutation_matrix(q, n, k)
    assert kmat.shape == (math.comb(n, 2) * min(d, math.comb(n + k - 2, n)), n * d)
    if len(kmat):
        sig, v = right_svd(kmat)
        kernel = v[:, int(np.sum(sig > _rank_tol(sig, None))) :]
    else:  # at order 1, or in one variable, nothing constrains a
        kernel = np.eye(n * d)
    rng = np.random.default_rng(seed)
    a = kernel @ (rng.standard_normal(kernel.shape[1]) + 1j * rng.standard_normal(kernel.shape[1]))
    a /= np.linalg.norm(a)
    c = restricted_integrals(q, a[:, None], n, k)[:, 0]
    keys = monomials_upto(n, k)
    index = {alpha: r for r, alpha in enumerate(keys)}
    below = keys[: math.comb(n + k - 1, k - 1)]
    for j in range(n):
        shift = c[[index[alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]] for alpha in below]]
        assert np.abs(shift - q @ a[j * d : (j + 1) * d]).max() <= 1e-10, (case, k, j)
    assert 1 <= math.sqrt(min(n, k)) * np.linalg.norm(c) * (1 + 1e-12), (case, k)


def candidate_basis(monkeypatch, system, xi, prev, rank_tol=None):
    """The candidates of ``next_order(system, xi, prev, rank_tol)``, read off
    its last SVD: with the identity as the Taylor shift, the evaluation matrix
    is the candidate basis itself."""
    seen = []

    def spectra(matrix):
        seen.append(np.array(matrix))
        return right_svd(matrix)

    def identity(system, xi, k, held):
        return np.eye(math.comb(system.num_vars + k, k), dtype=complex)

    with monkeypatch.context() as patch:
        patch.setattr(dualspace, "right_svd", spectra)
        patch.setattr(dualspace, "_taylor", identity)
        next_order(system, xi, prev, rank_tol)
    return seen[-1]


@pytest.mark.parametrize("name", ["running-example", "x2-z3xy-y2", "KSS", "variant 6 2", "variant 5 3"])
def test_candidate_basis_is_orthonormal_with_disjoint_blocks_that_hold_the_dual_space(monkeypatch, name):
    """The candidates are e_0 and an orthonormal basis inside the range of
    W = [W_0 .. W_(n-1)], W_i the restricted integrals along x_i of Q, whose
    block i lives on the monomials of last variable x_i; together they hold
    the order-k dual space of the dense oracle."""
    system, zero, _ = _case(tuple(map(int, name.split()[1:])) + (0,) if name.startswith("variant") else name)
    n, prev = system.num_vars, base_basis(system.num_vars)
    for k in range(1, 5):
        z = candidate_basis(monkeypatch, system, zero, prev)
        nxt = next_order(system, zero, prev)
        keys = monomials_upto(n, k)
        assert z.shape == (len(keys), nxt.candidate_dim), k
        assert np.array_equal(z[:, 0], np.eye(len(keys))[0]), k
        assert np.abs(z.conj().T @ z - np.eye(z.shape[1])).max() <= 1e-13, k
        q, _ = np.linalg.qr(prev.coeffs)
        d = q.shape[1]
        w = restricted_integrals(q, np.eye(n * d, dtype=complex), n, k)
        last = np.array([max((i for i, e in enumerate(a) if e), default=-1) for a in keys])
        for i in range(n):
            assert set(last[np.flatnonzero(w[:, i * d : (i + 1) * d].any(axis=1))]) <= {i}, (k, i)
        u, sig, _ = np.linalg.svd(w, full_matrices=False)
        wq = u[:, sig > 1e-12 * sig[0]]
        assert np.abs(z[:, 1:] - wq @ (wq.conj().T @ z[:, 1:])).max() <= 1e-10, k
        # the order-k dual space of the dense oracle lies in range(Z)
        dense = dense_next_order(system, zero, prev)
        assert np.abs(dense.coeffs - z @ (z.conj().T @ dense.coeffs)).max() <= 1e-9, k
        if nxt.dim == prev.dim:
            break
        prev = nxt


def assert_candidates_span_what_a_qr_of_them_spans(monkeypatch, system, xi, prev, rank_tol):
    """The candidates of ``next_order`` from ``prev``, made orthonormal
    through their Gram matrix, are orthonormal to 1e-13 and span what a
    Householder QR of [e_0, W V] spans, V the kernel of K on the oracle's
    tables: the projector gap |(I - ZZ*) Q|_2 of the two bases is at most
    1e-12.  No QR sees their C(n + k, k) rows."""
    n, k, q = system.num_vars, prev.order + 1, prev.coeffs
    z = candidate_basis(monkeypatch, system, xi, prev, rank_tol)
    shapes, real = [], np.linalg.qr
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw))
        next_order(system, xi, prev, rank_tol)
    assert math.comb(n + k, k) not in [shape[0] for shape in shapes], k
    assert np.abs(z.conj().T @ z - np.eye(z.shape[1])).max() <= 1e-13, k
    kmat = commutation_matrix(q, n, k)
    sig, v = right_svd(kmat) if len(kmat) else (np.zeros(0), np.eye(kmat.shape[1]))
    kernel = v[:, int(np.sum(sig > _rank_tol(sig, rank_tol))) :]
    w = np.hstack([np.eye(math.comb(n + k, k), 1), restricted_integrals(q, kernel, n, k)])
    householder = np.linalg.qr(w)[0]
    assert z.shape == householder.shape, k
    assert np.linalg.norm(householder - z @ (z.conj().T @ householder), 2) <= 1e-12, k


def assert_gram_route_over_the_orders(monkeypatch, system, xi, rank_tol=None, max_order=4):
    prev = base_basis(system.num_vars)
    for _ in range(max_order):
        assert_candidates_span_what_a_qr_of_them_spans(monkeypatch, system, xi, prev, rank_tol)
        nxt = next_order(system, xi, prev, rank_tol)
        if nxt.dim == prev.dim:
            return
        prev = nxt


def test_gram_route_candidates_are_orthonormal_on_the_catalog(monkeypatch):
    for system, xi, rank_tol in (_case(e.name) for e in catalog()):
        assert_gram_route_over_the_orders(monkeypatch, system, xi, rank_tol)


@pytest.mark.parametrize("n", range(3, 13))
def test_gram_route_candidates_are_orthonormal_on_random_variants(monkeypatch, n):
    for kappa in (1, 2, 3):
        system, zero = random_variant(n, kappa, seed=n)
        assert_gram_route_over_the_orders(monkeypatch, system, zero)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(LEMMA_CASES), order=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_gram_route_candidates_are_orthonormal_from_any_orthonormal_previous_basis(case, order, seed):
    """From the dense oracle's order-(k-1) basis, mixed by a random unitary
    matrix (so taken as Q as it is), the candidates are orthonormal and span
    what a QR of them spans."""
    system, zero, rank_tol = _case(case)
    _, bases = dense_bases(case)
    prev = bases[min(order, len(bases)) - 1]
    rng = np.random.default_rng(seed)
    mix = np.linalg.qr(rng.standard_normal((prev.dim,) * 2) + 1j * rng.standard_normal((prev.dim,) * 2))[0]
    mixed = dataclasses.replace(prev, coeffs=np.linalg.qr(prev.coeffs)[0] @ mix)
    with pytest.MonkeyPatch.context() as patch:
        assert_candidates_span_what_a_qr_of_them_spans(patch, system, zero, mixed, rank_tol)


@pytest.mark.parametrize("name", ["x2-z3xy-y2", "truncated-sin", "cbms1", "mth191"])
def test_a_singular_gram_matrix_takes_the_householder_route(count_calls, name):
    """With every rank decision forced to 1, K's numerical kernel holds
    non-commuting a, and on these entries the Gram matrix of the candidates
    is singular at some order: there the tall QR runs, and every basis stays
    finite.  (Which entries those are depends on the rounding of singular
    values equal to 1, the forced tolerance.)"""
    entry = get_entry(name)
    n = entry.system.num_vars
    qrs = count_calls(np.linalg, "qr")
    report = multiplicity_structure(entry.system, entry.zero, 1.0, max_order=4)
    tall = [b.order for b in report.bases[1:] if (math.comb(n + b.order, n), b.candidate_dim) in
            [np.shape(a[0]) for a in qrs]]
    assert tall, name
    assert all(np.isfinite(b.coeffs).all() for b in report.bases), name


def test_the_gram_route_declines_a_singular_or_ill_conditioned_gram_matrix():
    rng = np.random.default_rng(0)
    w = np.linalg.qr(rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5)))[0]
    assert np.array_equal(dualspace._orthonormalizer(np.eye(4)), np.eye(4))
    x = dualspace._orthonormalizer((0.6 * w).conj().T @ (0.6 * w))
    assert np.abs((0.6 * w @ x).conj().T @ (0.6 * w @ x) - np.eye(5)).max() <= 1e-14
    for scale in (0.0, 1e-5):  # a singular Gram matrix, and one of condition 1e10
        v = w * np.r_[1, 1, 1, 1, scale]
        assert dualspace._orthonormalizer(v.conj().T @ v) is None, scale


def test_a_basis_from_a_chain_and_from_a_standalone_call_have_the_same_bits(count_calls):
    """``next_order`` from ``report.bases[k - 1]`` gives ``report.bases[k]``
    bit for bit, taking that basis as Q without a QR of it, at each case's
    own tolerance and at forced ones (a float or an int; at 1, x2-z3xy-y2
    takes the Householder route), and ``deflation_one_necessary`` decides as
    two such calls from the order-0 basis do."""
    qrs = count_calls(np.linalg, "qr")
    for forced in (None, 1e-6, 1.0, 1):
        # at 1, random_variant(12, 3) has 559 functionals at order 4 and takes 10 s
        variants = ((6, 2), (8, 3)) if forced == 1 else ((6, 2), (8, 3), (12, 3))
        cases = [_case(e.name) for e in catalog()] + [_case((n, k, 1)) for n, k in variants]
        householder = set()
        for system, xi, rank_tol in cases:
            n, rank_tol = system.num_vars, rank_tol if forced is None else forced
            report = multiplicity_structure(system, xi, rank_tol, max_order=4 if forced == 1 else 12)
            for prev, basis in zip(report.bases, report.bases[1:]):
                qrs.clear()
                assert_same_basis(next_order(system, xi, prev, rank_tol), basis)
                shapes = [np.shape(a[0]) for a in qrs]
                assert prev.coeffs.shape not in shapes, (forced, prev.order)
                if (math.comb(n + basis.order, n), basis.candidate_dim) in shapes:
                    householder.add(system)
            d2 = next_order(system, xi, next_order(system, xi, report.bases[0], rank_tol), rank_tol)
            assert deflation_one_necessary(system, xi, rank_tol) == (d2.candidate_dim - d2.dim == n), forced
        assert (get_entry("x2-z3xy-y2").system in householder) == (forced == 1), forced


def test_a_call_checks_its_input_once_and_builds_k_from_order_two(count_calls):
    """One ``multiplicity_structure`` or ``deflation_one_necessary`` call
    checks xi once at entry and not again in a Taylor shift, checks no basis
    it made itself, running the orthonormality product of ``_previous_q`` on
    none, and builds K (``_commuting``) at orders >= 2 only; a public
    ``next_order`` call checks the basis it is given."""
    points = count_calls(polycore.PolySystem, "_check_point")
    checked, commuting = count_calls(dualspace, "_previous_q"), count_calls(dualspace, "_commuting")
    cases = [_case(e.name) for e in catalog() if e.name != "x2-xy"] + [_case((8, 3, 1)), _case((12, 2, 1))]
    for system, xi, rank_tol in cases:
        for calls in (points, checked, commuting):
            calls.clear()
        report = multiplicity_structure(system, xi, rank_tol)
        assert len(points) == 1 and checked == []
        assert [args[2] for args in commuting] == [b.order for b in report.bases[2:]]
        for calls in (points, commuting):
            calls.clear()
        deflation_one_necessary(system, xi, rank_tol)
        assert len(points) == 1 and checked == []
        assert [args[2] for args in commuting] == [2]
        commuting.clear()
        next_order(system, xi, report.bases[0], rank_tol)
        assert [args[1] for args in checked] == [report.bases[0]] and commuting == []


def test_closedness_is_decided_on_the_commutation_matrix(count_calls):
    """Per order k, with d = dim(Q): K, the first matrix given to ``right_svd``,
    has C(n, 2) min(d, C(n + k - 2, k - 2)) rows and n d columns (there is
    none at order 1 or in one variable); no QR or SVD sees the
    n C(n + k - 1, k - 1) rows MZ had; and none sees the C(n + k, k) rows,
    a row per monomial, of the candidates, which are made orthonormal
    through their Gram matrix (K itself can have more rows: 60 at KSS order
    3, against C(5 + 3, 3) = 56 monomials)."""
    qrs, svds = count_calls(np.linalg, "qr"), count_calls(np.linalg, "svd")
    spectra = count_calls(dualspace, "right_svd")
    cases = [_case(e.name) for e in catalog()] + [_case((n, k, 0)) for n, k in ((6, 2), (8, 3), (10, 3))]
    for system, xi, rank_tol in cases:
        n, prev = system.num_vars, base_basis(system.num_vars)
        for k in range(1, 13):
            for calls in (qrs, svds, spectra):
                calls.clear()
            nxt = next_order(system, xi, prev, rank_tol)
            d, kmat = prev.dim, spectra[0][0] if k > 1 and n > 1 else None
            if kmat is not None:
                assert kmat.shape == (math.comb(n, 2) * min(d, math.comb(n + k - 2, k - 2)), n * d), k
            else:
                assert all(args[0].shape[1] == nxt.candidate_dim for args in spectra), k
            rows = [np.shape(args[0])[-2] for args in qrs + svds]
            # MZ had n rows at order 1, as many as the evaluation of a square system, and 6 at
            # n = k = 2, as many as the candidates
            if k > 1 and n > 2:
                assert n * math.comb(n + k - 1, k - 1) not in rows, k
            monomials = math.comb(n + k, k)
            tall = [np.shape(args[0]) for args in qrs + svds if np.shape(args[0])[-2] >= monomials]
            assert [shape for shape in tall if shape != np.shape(kmat)] == [], k
            if nxt.dim == prev.dim:
                break
            prev = nxt


def assert_recursion_matches(oracle, system, xi, rank_tol=None, max_order=12):
    """Each order of ``next_order`` and of ``oracle``, from the same previous
    basis, agree in dim, candidate_dim and ambiguous flag, in tol to a
    relative 1e-9 and in span to a projector gap of 1e-8."""
    prev = base_basis(system.num_vars)
    for _ in range(max_order):
        got, want = next_order(system, xi, prev, rank_tol), oracle(system, xi, prev, rank_tol)
        assert (got.dim, got.candidate_dim, got.ambiguous) == (want.dim, want.candidate_dim, want.ambiguous)
        assert got.tol == pytest.approx(want.tol, rel=1e-9), got.order
        gap = np.abs(span_projector(got) - span_projector(want)).max()
        assert gap <= 1e-8, (got.order, gap)
        if got.dim == prev.dim:
            return
        prev = got


# -- the membership matrix MZ that the commutation matrix replaced -------------------


def test_commutation_matches_the_membership_oracle_on_catalog():
    for entry in catalog():
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        assert_recursion_matches(membership_next_order, entry.system, entry.zero, rank_tol)


@pytest.mark.parametrize("n", range(3, 13))
def test_commutation_matches_the_membership_oracle_on_random_variants(n):
    for k in (1, 2, 3):
        for seed in (0, 1, 2):
            assert_recursion_matches(membership_next_order, *random_variant(n, k, seed=seed))


def test_commutation_matches_the_membership_oracle_at_order_one_with_forced_tolerance():
    # past order 1, a forced tolerance makes each order depend on the basis it is fed
    for entry in catalog():
        assert_recursion_matches(membership_next_order, entry.system, entry.zero, 1.0, max_order=1)


# -- the D^+ integrals that the restricted integrals replaced ----------------------


def test_restricted_integrals_match_the_integral_oracle_on_catalog():
    for entry in catalog():
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        assert_recursion_matches(integral_next_order, entry.system, entry.zero, rank_tol)


@pytest.mark.parametrize("n", range(3, 13))
def test_restricted_integrals_match_the_integral_oracle_on_random_variants(n):
    for k in (1, 2, 3):
        for seed in (0, 1, 2):
            assert_recursion_matches(integral_next_order, *random_variant(n, k, seed=seed))


def test_grlex_tables_match_combinations():
    for n in range(6):
        for k in range(5):
            expo, up, last = _grlex(n, k)
            keys = list(map(tuple, expo.tolist()))
            assert keys == monomials_by_combinations(n, k) == monomials_upto(n, k)
            assert not (expo.flags.writeable or up.flags.writeable or last.flags.writeable)
            index = {a: r for r, a in enumerate(keys)}
            below = keys[: math.comb(n + k - 1, n)] if k else ()
            want = [[index[a[:i] + (a[i] + 1,) + a[i + 1 :]] for a in below] for i in range(n)]
            assert up.shape == (n, len(below)) and up.tolist() == want
            assert last.shape == (len(keys),)
            assert last.tolist() == [max((i for i, e in enumerate(a) if e > 0), default=-1) for a in keys]


def test_taylor_shift_of_a_lower_order_is_a_prefix_bit_for_bit():
    # T_k is the first C(n + k, k) columns of T_K for k <= K, and T_deg
    # followed by zero columns (+0) for k >= deg f
    cases = [(e.system, e.zero) for e in catalog() if e.name != "Cyclic9"]
    cases += [random_variant(n, k, seed=2) for n, k in ((6, 2), (8, 3))]
    for system, xi in cases:
        n, deg = system.num_vars, system.degree()
        full = taylor_coefficients(system, xi, deg)
        for k in range(deg + 3):
            shift = taylor_coefficients(system, xi, k)
            if k <= deg:
                want = full[:, : math.comb(n + k, k)]
            else:
                want = np.hstack([full, np.zeros((len(full), shift.shape[1] - full.shape[1]), dtype=complex)])
            assert shift.tobytes() == np.ascontiguousarray(want).tobytes(), k


def test_taylor_shift_past_the_degree_makes_no_zero_columns(monkeypatch):
    # for k > deg f the dual space reads T_deg, not T_k: no array it makes is
    # wider than C(n + deg f, deg f)
    made, real = [], dualspace._taylor_shift

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(dualspace, "_taylor_shift", recording)
    cases = [(e.system, e.zero) for e in catalog() if e.name != "Cyclic9"]
    cases += [random_variant(n, k, seed=2) for n, k in ((6, 2), (8, 3))]
    for system, xi in cases:
        deg = system.degree()
        width = math.comb(system.num_vars + deg, deg)
        for held in (None, {}):
            for k in range(deg + 1, deg + 4):
                made.clear()
                shift = dualspace._taylor(system, xi, k, held)
                assert max(a.shape[1] for a in (shift, *made)) <= width, k
                assert shift.tobytes() == taylor_coefficients(system, xi, k)[:, :width].tobytes(), k


def test_one_call_makes_at_most_one_taylor_shift_per_order_below_the_degree(count_calls):
    passes = count_calls(dualspace, "_taylor_shift")
    cases = [(e.system, e.zero, 1e-6 if e.name == "Cyclic9" else None) for e in catalog()]
    cases += [(*random_variant(n, k, seed=0), None) for n, k in ((8, 2), (6, 3))]
    for system, xi, rank_tol in cases:
        passes.clear()
        report = multiplicity_structure(system, xi, rank_tol)
        first = len(passes)
        assert 1 <= first <= min(report.depth + 1, system.degree())
        # nothing made for (system, xi) outlives the call: a second call shifts again
        assert multiplicity_structure(system, xi, rank_tol) == report
        assert len(passes) == 2 * first
        passes.clear()
        deflation_one_necessary(system, xi, rank_tol)
        assert len(passes) == 1
    system, zero = random_variant(8, 3, seed=0)
    passes.clear()
    polycore._grlex_memo.cache_clear()
    dualspace._blocks.cache_clear()
    assert multiplicity_structure(system, zero).depth == 3  # orders 1-4 from one shift
    assert len(passes) == 1
    # a cold call makes the graded-lex tables of its orders alone: C(9, 1) +
    # ... + C(12, 4) rows, and C(9, 1) + C(10, 2) for the necessary test
    assert {k: len(t[0]) for k, t in polycore._grlex_memo(8).items()} == {1: 9, 2: 45, 3: 165, 4: 495}
    polycore._grlex_memo.cache_clear()
    dualspace._blocks.cache_clear()
    deflation_one_necessary(system, zero)
    assert {k: len(t[0]) for k, t in polycore._grlex_memo(8).items()} == {1: 9, 2: 45}


def test_next_order_rejects_a_basis_of_another_variable_count(count_calls):
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3))
    system, zero = random_variant(4, 1, seed=0)
    qrs = count_calls(np.linalg, "qr")
    for prev in (base_basis(3), d1):
        with pytest.raises(ValueError, match="the previous basis has 3 variables, the system has 4"):
            next_order(system, zero, prev)
    assert qrs == []


def malformed_basis(case):
    """A basis of the running example and the error it gives: at order 1,
    coefficients that are not a finite (monomials, functionals) matrix of
    C(3 + 1, 1) = 4 rows and at most 4 columns; at order 0, one of 2 rows, or
    of no column, which leaves out evaluation at the point."""
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3))
    above = np.vstack([d1.coeffs, np.ones((6, d1.dim))])  # terms of degree 2 in an order-1 basis
    nan = d1.coeffs.copy()
    nan[2, 1] = np.nan
    prev, coeffs, message = {
        "one axis": (d1, d1.coeffs[:, 0], r"shape \(4,\), expected \(4, dim\)"),
        "a term above the order": (d1, above, r"\(10, 3\), expected \(4, dim\): one row per monomial"),
        "a row short": (d1, d1.coeffs[:3], r"shape \(3, 3\), expected \(4, dim\)"),
        "order 0": (base_basis(3), np.ones((2, 1)), r"shape \(2, 1\), expected \(1, dim\)"),
        "not finite": (d1, nan, r"previous basis coefficient \(3, 2\) is not finite: \(nan"),
        "no column": (base_basis(3), np.zeros((1, 0), dtype=complex), r"shape \(1, 0\), expected \(1, dim\)"),
        "more columns than rows": (d1, np.eye(4, 5), r"shape \(4, 5\), .* and 1 <= dim <= 4 columns"),
    }[case]
    return dataclasses.replace(prev, coeffs=coeffs), message


@pytest.mark.parametrize("case", ["one axis", "a term above the order", "a row short", "order 0", "not finite",
                                  "no column", "more columns than rows"])
def test_next_order_rejects_a_malformed_basis_before_any_qr(count_calls, case):
    prev, message = malformed_basis(case)
    entry = get_entry("running-example")
    qrs = count_calls(np.linalg, "qr")
    with pytest.raises(ValueError, match=message):
        next_order(entry.system, entry.zero, prev)
    assert qrs == []


def test_next_order_rejects_a_basis_of_dependent_columns_before_any_qr(count_calls):
    # the order-1 basis of the running example with its first column repeated:
    # a QR would complete it with a direction that is no functional, and the
    # order-2 dimension would read 7 where it is 4
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3))
    assert next_order(entry.system, entry.zero, d1).dim == 4
    qrs = count_calls(np.linalg, "qr")
    repeated = np.hstack([d1.coeffs, d1.coeffs[:, :1]])
    zero = np.hstack([d1.coeffs[:, :2], np.zeros((4, 1))])
    for coeffs in (repeated, zero):
        with pytest.raises(ValueError, match="the previous basis columns are numerically dependent"):
            next_order(entry.system, entry.zero, dataclasses.replace(d1, coeffs=coeffs))
    assert qrs == []
    scaled = dataclasses.replace(d1, coeffs=2 * d1.coeffs)  # independent, not orthonormal: through its QR
    assert next_order(entry.system, entry.zero, scaled).dim == 4 and len(qrs) >= 1


@pytest.mark.parametrize("max_order", [0, -1])
def test_multiplicity_structure_needs_at_least_order_one(max_order):
    entry = get_entry("running-example")
    with pytest.raises(ValueError, match=f"max_order must be at least 1, got {max_order}"):
        multiplicity_structure(entry.system, entry.zero, max_order=max_order)


def test_next_order_takes_no_partials_and_two_svds_per_order(count_calls):
    partials = count_calls(polycore, "normalized_partial")
    made = {kind: count_calls(np.linalg, kind) for kind in ("qr", "svd", "cholesky", "inv")}
    svds = made["svd"]
    system, zero = random_variant(6, 2, seed=0)
    prev = base_basis(6)
    # the shapes each order factors: K (none at order 1, where it has no rows;
    # at order 3 P's QR first, and K tall, so by its R), the Gram matrix of the
    # candidates and its Cholesky factor, and the candidates' values on the 6
    # polynomials
    want = {
        1: {"svd": [(6, 7)], "cholesky": [(7, 7)], "inv": [(7, 7)]},
        2: {"svd": [(15, 18), (6, 10)], "cholesky": [(10, 10)], "inv": [(10, 10)]},
        3: {"qr": [(7, 4), (60, 24)], "svd": [(24, 24), (6, 10)], "cholesky": [(10, 10)], "inv": [(10, 10)]},
    }
    for order, shapes in want.items():
        for calls in made.values():
            calls.clear()
        prev = next_order(system, zero, prev)
        assert {kind: [np.shape(a[0]) for a in calls] for kind, calls in made.items() if calls} == shapes, order
    assert partials == []
    dense_next_order(system, zero, base_basis(6))
    assert partials and len(svds) > 2  # the counters do count


def test_multiplicity_structure_memory_stays_small():
    system, zero = random_variant(10, 3, seed=1)
    tracemalloc.start()
    try:
        report = multiplicity_structure(system, zero)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.breadth, report.depth, report.multiplicity) == (3, 3, 8)
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def test_analysis_builds_no_functional(count_calls, capsys):
    """The multiplicity structure, the necessary test and the CLI ``analyze``
    and ``check`` read the coefficient matrices alone: no ``Functional`` is
    made."""
    from snewton.cli import main

    built = count_calls(Functional, "__init__")
    system, zero = random_variant(8, 2, seed=1)
    report = multiplicity_structure(system, zero)
    assert report.multiplicity == 4
    assert deflation_one_necessary(system, zero)
    for command in ("analyze", "check"):
        assert main([command, "--catalog", "running-example"]) == 0
    assert "verdict: deflation-one" in capsys.readouterr().out
    assert built == []
    assert len(report.bases[1].functionals) == 3 and len(built) == 3  # the counter does count


def test_one_last_bit_makes_two_reports_unequal():
    entry = get_entry("running-example")
    report = multiplicity_structure(entry.system, entry.zero)
    assert report == multiplicity_structure(entry.system, entry.zero)
    bases = list(report.bases)
    coeffs = bases[2].coeffs.copy()
    r, j = np.argwhere(coeffs)[-1]
    coeffs[r, j] = complex(np.nextafter(coeffs[r, j].real, np.inf), coeffs[r, j].imag)
    bases[2] = dataclasses.replace(bases[2], coeffs=coeffs)
    changed = dataclasses.replace(report, bases=bases)
    assert changed != report and bases[2] != report.bases[2]
    assert dataclasses.replace(report, bases=list(report.bases)) == report


def test_functionals_are_the_nonzero_entries_of_the_columns():
    entry = get_entry("x2-z3xy-y2")
    for basis in multiplicity_structure(entry.system, entry.zero).bases:
        keys = monomials_upto(3, basis.order)
        want = [{keys[r]: c for r, c in enumerate(col.tolist()) if c != 0} for col in basis.coeffs.T]
        assert [lam.terms for lam in basis.functionals] == want
        assert all(lam.num_vars == 3 for lam in basis.functionals)
        assert basis.functionals is basis.functionals  # built once


def test_dual_basis_functionals_annihilate_the_system():
    entry = get_entry("running-example")
    d1 = next_order(entry.system, entry.zero, base_basis(3))
    d2 = next_order(entry.system, entry.zero, d1)
    for lam in d2.functionals:
        values = [apply_functional(lam, p, entry.zero) for p in entry.system]
        assert np.linalg.norm(values) < 1e-8


# -- full multiplicity structure ---------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("running-example", (2, 2, 4)),
        ("x2-z3xy-y2", (3, 5, 12)),
        ("truncated-sin", (3, 4, 11)),
        ("robustness-pair", (1, 1, 2)),
    ],
)
def test_multiplicity_structure_catalog_values(name, expected):
    entry = get_entry(name)
    report = multiplicity_structure(entry.system, entry.zero)
    assert (report.breadth, report.depth, report.multiplicity) == expected
    assert report.stabilized


def test_dims_monotone_and_candidate_bounds():
    entry = get_entry("x2-z3xy-y2")
    report = multiplicity_structure(entry.system, entry.zero)
    dims = report.dims
    assert all(a <= b for a, b in zip(dims, dims[1:]))
    for basis in report.bases[1:]:
        assert basis.dim <= basis.candidate_dim
        # rank of the evaluation matrix never exceeds the equation count
        assert basis.candidate_dim - basis.dim <= entry.system.num_vars


def test_breadth_matches_jacobian_corank():
    for name in ("running-example", "x2-z3xy-y2", "truncated-sin", "robustness-pair"):
        entry = get_entry(name)
        report = multiplicity_structure(entry.system, entry.zero)
        jac = entry.system.jacobian(entry.zero)
        sigma_top = np.linalg.norm(jac, 2)
        split = split_svd(jac, 1e-8 * (1 + sigma_top))
        assert report.breadth == split.kappa


def test_regular_zero_report():
    system = parse_system("x\ny", ["x", "y"])
    report = multiplicity_structure(system, [0, 0])
    assert report.regular
    assert (report.breadth, report.depth, report.multiplicity) == (0, 0, 1)


def test_a_point_that_is_not_a_zero_is_rejected():
    """f = (1, 0) at (1, 0): e_0 is no dual functional, by the rule of every
    order, so there is no dual space to report."""
    system = parse_system("x^2\ny", ["x", "y"])
    message = r"not a zero: \|f\(xi\)\| = 1.000e\+00 is above the rank tolerance 2.000e-08"
    with pytest.raises(ValueError, match=message):
        multiplicity_structure(system, [1, 0])
    with pytest.raises(ValueError, match=message):
        deflation_one_necessary(system, [1, 0])
    # a tolerance above |f(xi)| admits e_0, and the order-0 basis records it
    report = multiplicity_structure(system, [1, 0], rank_tol=2.0)
    assert (report.bases[0].tol, report.bases[0].ambiguous) == (2.0, True)


def test_the_order_zero_basis_takes_its_tolerance_from_f_at_the_zero():
    for entry in catalog():
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        basis = multiplicity_structure(entry.system, entry.zero, rank_tol, max_order=1).bases[0]
        value = np.linalg.norm(entry.system.eval(entry.zero))
        assert value <= 2.5e-13, entry.name
        assert basis.tol == (rank_tol or 1e-8 * (1 + value)) and not basis.ambiguous, entry.name


def test_non_isolated_zero_never_stabilizes():
    system = parse_system("x^2\nx*y", ["x", "y"])
    report = multiplicity_structure(system, [0, 0], max_order=6)
    assert not report.stabilized
    assert report.dims == [1, 3, 4, 5, 6, 7, 8]


def brute_force_dual_dimension(system, xi, order):
    """Independent oracle: a functional of order <= k annihilates the ideal
    iff it kills every monomial multiple x^beta * f_i with |beta| <= k, so
    the dimension is the kernel dimension of that one big evaluation matrix
    (no closedness recursion involved)."""
    from snewton.polycore import Poly, normalized_partial

    n = system.num_vars
    alphas = monomials_upto(n, order)
    rows = []
    for beta in monomials_upto(n, order):
        shift = Poly(n, {tuple(beta): 1.0})
        for poly in system.polys:
            prod = shift * poly
            rows.append([normalized_partial(prod, a, xi) for a in alphas])
    matrix = np.array(rows, dtype=complex)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(sigma > 1e-8 * (1 + sigma[0])))
    return len(alphas) - rank


@pytest.mark.parametrize("name", ["running-example", "x2-z3xy-y2", "truncated-sin"])
def test_dims_match_brute_force_macaulay_oracle(name):
    entry = get_entry(name)
    report = multiplicity_structure(entry.system, entry.zero)
    for basis in report.bases:
        oracle = brute_force_dual_dimension(entry.system, entry.zero, basis.order)
        assert basis.dim == oracle, (name, basis.order)


def test_necessary_condition_matches_explicit_matrix_rank():
    # assemble the order-2 test matrix directly: columns are f(zero), the
    # Jacobian, and all pairwise Hessian contractions over a kernel basis;
    # its rank equals dim C2 - dim D2
    from snewton.polycore import dir_hessian

    for name in ("running-example", "x2-z3xy-y2", "robustness-pair"):
        entry = get_entry(name)
        system, zero = entry.system, entry.zero
        jac = system.jacobian(zero)
        split = split_svd(jac, 1e-8 * (1 + np.linalg.norm(jac, 2)))
        cols = [system.eval(zero)[:, None], jac]
        kernel = split.v2
        for i in range(kernel.shape[1]):
            contracted = dir_hessian(system, zero, kernel[:, i])
            for j in range(i, kernel.shape[1]):
                cols.append((contracted @ kernel[:, j])[:, None])
        matrix = np.hstack(cols)
        sigma = np.linalg.svd(matrix, compute_uv=False)
        rank = int(np.sum(sigma > 1e-8 * (1 + sigma[0])))
        assert (rank == system.num_vars) == deflation_one_necessary(system, zero), name


def test_report_serializes_to_json():
    entry = get_entry("running-example")
    report = multiplicity_structure(entry.system, entry.zero)
    payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert payload["breadth"] == 2
    assert payload["multiplicity"] == 4
    assert payload["dims_by_order"] == [1, 3, 4, 4]
    assert payload["stabilized"] is True


# -- deflation-one classification ----------------------------------------------------


def test_necessary_condition_cases():
    # holds at the deflation-one running example
    entry = get_entry("running-example")
    assert deflation_one_necessary(entry.system, entry.zero)
    # also holds at a zero that is NOT deflation-one: the test is only necessary
    entry = get_entry("x2-z3xy-y2")
    assert deflation_one_necessary(entry.system, entry.zero)
    # regular zero: dim C2 - dim D2 = 3 - 1 = n
    system = parse_system("x\ny", ["x", "y"])
    assert deflation_one_necessary(system, [0, 0])


@pytest.mark.parametrize(
    "name, expected",
    [
        ("running-example", True),
        ("x2-xy", True),
        ("truncated-sin", True),
        ("x2-z3xy-y2", False),
    ],
)
def test_is_deflation_one(name, expected):
    entry = get_entry(name)
    assert is_deflation_one(entry.system, entry.zero, entry.tol, seed=0) is expected


def test_is_deflation_one_regular_point():
    system = parse_system("x - 1\ny - 2", ["x", "y"])
    assert is_deflation_one(system, [1, 2], 0.1) is False


def test_is_deflation_one_whole_catalog_with_gap_tolerance():
    # with the tolerance derived from the actual spectral gap at the zero,
    # every catalogued system classifies correctly; the coarse per-entry
    # refinement tolerances are too blunt for the invertibility threshold
    from snewton.bench import catalog

    for entry in catalog():
        expected = entry.name != "x2-z3xy-y2"
        got = is_deflation_one(entry.system, entry.zero, seed=0)
        assert got is expected, entry.name


def test_is_deflation_one_contracts_the_hessian_once_per_trial(contraction_calls):
    calls = contraction_calls
    entry = get_entry("x2-z3xy-y2")  # every trial fails, so all three run
    assert is_deflation_one(entry.system, entry.zero, entry.tol, seed=0) is False
    assert len(calls) == 3
    calls.clear()
    entry = get_entry("running-example")  # the first trial already accepts
    assert is_deflation_one(entry.system, entry.zero, entry.tol, seed=0) is True
    assert len(calls) == 1
    calls.clear()
    linear = parse_system("x - y\n2*x - 2*y", ["x", "y"])  # corank 1, D^2f.v = 0: no trial can accept
    assert is_deflation_one(linear, [1, 1], 0.1, seed=0) is False
    assert len(calls) == 3


def test_non_finite_point_is_rejected_before_any_svd():
    entry = get_entry("running-example")
    with pytest.raises(ValueError, match="coordinate 1 is not finite"):
        multiplicity_structure(entry.system, [np.nan, 1, 1])
    with pytest.raises(ValueError, match="not finite"):
        is_deflation_one(entry.system, [1, np.inf, 1])


@pytest.mark.parametrize("rank_tol", [np.nan, 0.0, -1.0])
def test_rank_tolerances_that_are_not_positive_are_rejected(rank_tol):
    entry = get_entry("running-example")
    entries = [
        lambda: next_order(entry.system, entry.zero, base_basis(3), rank_tol),
        lambda: multiplicity_structure(entry.system, entry.zero, rank_tol=rank_tol),
        lambda: deflation_one_necessary(entry.system, entry.zero, rank_tol),
        lambda: is_deflation_one(entry.system, entry.zero, tol=rank_tol),
    ]
    for call in entries:
        with pytest.raises(ValueError, match="tolerance must be positive"):
            call()


def test_operator_linearity_in_direction():
    entry = get_entry("running-example")
    split = split_svd(entry.system.jacobian(entry.zero), entry.tol)
    v = split.v2 @ np.array([0.6, 0.8])
    v = v / np.linalg.norm(v)
    b1 = operator_B(entry.system, entry.zero, v, split.u2, split.v2)
    c = 0.25 - 0.7j
    # scale invariance at the operator level: B(c v) = c B(v) exactly
    h = entry.system  # direct contraction through dir_hessian
    from snewton.polycore import dir_hessian

    b2 = split.u2.conj().T @ dir_hessian(h, entry.zero, c * v) @ split.v2
    assert np.allclose(b2, c * b1, rtol=0, atol=1e-14)
