"""SVD splits, solves, kernels: the pinned linear-algebra contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snewton.numla import (
    SingularMatrixError,
    auto_tolerance,
    cond,
    kernel_basis,
    least_squares,
    right_svd,
    singular_values,
    solve,
    split_svd,
)
from snewton.numla import _QR_MIN_COLUMNS
from snewton import polycore
from snewton.polycore import parse_system

RUNNING = parse_system(
    "x^2 - x + y + z - 2\ny^2 + x - y + z - 2\nz^2 + x + y - z - 2",
    ["x", "y", "z"],
)


def random_matrix_with_condition(rng, n, condition):
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.geomspace(1.0, 1.0 / condition, n)
    return (u * s) @ v.conj().T


# -- split_svd -----------------------------------------------------------------


def test_split_all_ones_matrix():
    split = split_svd(np.ones((3, 3)), 0.1)
    assert split.kappa == 2
    assert np.allclose(split.sigma1, [3.0])
    assert split.u1.shape == (3, 1)
    assert split.v2.shape == (3, 2)


def test_split_identity_full_rank():
    split = split_svd(np.eye(3), 0.1)
    assert split.kappa == 0
    assert split.sigma2.size == 0


def test_split_running_example_near_zero():
    jac = RUNNING.jacobian([1.001, 0.999, 1.001])
    split = split_svd(jac, 0.1)
    assert split.kappa == 2
    assert abs(split.sigma1[0] - 3.0007) < 5e-4


def test_split_zero_matrix_has_full_corank():
    split = split_svd(np.zeros((4, 4)), 0.5)
    assert split.kappa == 4
    assert split.sigma1.size == 0
    assert np.allclose(split.u2 @ split.u2.conj().T, np.eye(4))


def test_split_rejects_nonsquare_and_bad_tol():
    with pytest.raises(ValueError):
        split_svd(np.ones((2, 3)), 0.1)
    with pytest.raises(ValueError):
        split_svd(np.eye(2), 0.0)


def test_split_invariants_random_matrices():
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        condition = 10.0 ** rng.uniform(0, 8)
        m = random_matrix_with_condition(rng, n, condition)
        tol = 10.0 ** rng.uniform(-9, 0)
        split = split_svd(m, tol)
        s = split.sigma
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(split.sigma1 > tol)
        assert np.all(split.sigma2 <= tol)
        reconstructed = (split.u * split.sigma) @ split.v.conj().T
        assert np.linalg.norm(reconstructed - m) <= 1e-10 * (1 + s[0])
        full = np.hstack([split.u, split.v])
        gram_u = split.u.conj().T @ split.u
        gram_v = split.v.conj().T @ split.v
        assert np.linalg.norm(gram_u - np.eye(n)) <= 1e-10
        assert np.linalg.norm(gram_v - np.eye(n)) <= 1e-10


def test_weyl_perturbation_bound():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e *= 10.0 ** rng.uniform(-6, 0) / np.linalg.norm(e, 2)
        gap = np.abs(singular_values(m + e) - singular_values(m))
        assert np.all(gap <= np.linalg.norm(e, 2) * (1 + 1e-12))


# -- solve / least squares -----------------------------------------------------


def test_solve_identity():
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve(np.eye(3), b), b)


def test_solve_residual_on_random_systems():
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = random_matrix_with_condition(rng, 5, 1e6)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = solve(m, b)
        assert np.linalg.norm(m @ y - b) <= 1e-10 * np.linalg.norm(b) * cond(m) ** 0.5


def test_solve_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.ones((3, 3)), np.ones(3))
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((2, 2)), np.ones(2))


@pytest.mark.parametrize("sigma_min, solved", [(1.1e-12, True), (0.9e-12, False), (0.0, False)])
def test_solve_refuses_a_spectrum_below_1e_minus_12(sigma_min, solved):
    # singular values 1 and sigma_min, on either side of the 1e-12 relative
    # threshold, then exactly singular
    q = np.array([[0.6, 0.8j], [0.8j, 0.6]])  # unitary
    m = q @ np.diag([1.0, sigma_min])
    y_true = np.array([1.0 - 1j, 2.0])
    b = m @ y_true
    if solved:
        assert np.linalg.norm(solve(m, b) - y_true) <= 1e-3
    else:
        with pytest.raises(SingularMatrixError, match="singular to working precision"):
            solve(m, b)


def test_least_squares_square_reduces_to_solve():
    rng = np.random.default_rng(21)
    m = random_matrix_with_condition(rng, 4, 10)
    b = rng.standard_normal(4)
    assert np.allclose(least_squares(m, b), solve(m, b))


def test_least_squares_consistent_overdetermined():
    rng = np.random.default_rng(25)
    m = rng.standard_normal((8, 3))
    y = rng.standard_normal(3)
    assert np.allclose(least_squares(m, m @ y), y)


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(27)
    m = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    expected = np.linalg.solve(m.conj().T @ m, m.conj().T @ b)
    assert np.linalg.norm(least_squares(m, b) - expected) <= 1e-9


def _lstsq(m, b):
    return np.linalg.lstsq(m, b, rcond=None)[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cols=st.integers(2, 2 * _QR_MIN_COLUMNS + 16), extra=st.integers(1, 45),
       log_cond=st.floats(0, 8), log_scale=st.floats(-5, 5), seed=st.integers(0, 2**32 - 1))
def test_least_squares_agrees_with_lstsq_on_tall_matrices(cols, extra, log_cond, log_scale, seed):
    # A = U diag(s) V* of rows > cols with a 2-norm condition of 10**log_cond,
    # a Gaussian rhs; from _QR_MIN_COLUMNS columns the QR path runs, below it
    # lstsq itself
    rng = np.random.default_rng(seed)
    rows = cols + extra
    u = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols)))[0]
    a = 10.0**log_scale * (u * np.geomspace(1, 10.0**-log_cond, cols)) @ v.conj().T
    b = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    y, oracle = least_squares(a, b), _lstsq(a, b)
    if cols < _QR_MIN_COLUMNS:
        assert y.tobytes() == oracle.tobytes()
        return
    # each solve is accurate to about cond * eps, so compare what A makes of
    # their difference, and the difference itself against the condition
    gap = np.linalg.norm(y - oracle)
    assert np.linalg.norm(a @ (y - oracle)) <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(oracle)
    assert gap <= 1e-12 * np.linalg.cond(a) * np.linalg.norm(oracle)


def _rank_deficient_tall(rng, rows, cols):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    zero_column, repeated_column = m.copy(), m.copy()
    zero_column[:, 3] = 0
    repeated_column[:, -1] = repeated_column[:, 0]
    low_rank = m[:, : cols - 2] @ m[: cols - 2, :]  # rank cols - 2
    return [zero_column, repeated_column, low_rank, np.zeros((rows, cols))]


def test_least_squares_is_lstsq_off_the_qr_path():
    # rank-deficient tall matrices of _QR_MIN_COLUMNS columns and more (R's
    # 1-norm condition reaches 1e12), wide matrices, square ones and tall
    # ones of fewer columns all take lstsq's result, bit for bit
    rng = np.random.default_rng(31)
    c = _QR_MIN_COLUMNS
    cases = [*_rank_deficient_tall(rng, 2 * c + 1, c), *_rank_deficient_tall(rng, 2 * c + 1, 2 * c)]
    for rows, cols in [(c, c + 5), (3, 2 * c), (c, c), (2 * c, 2 * c), (2 * c, c - 1), (40, 3)]:
        cases.append(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    for m in cases:
        b = rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
        assert least_squares(m, b).tobytes() == _lstsq(m, b).tobytes(), m.shape


# -- kernels and norms ----------------------------------------------------------


def test_kernel_of_zero_matrix_is_identity():
    k = kernel_basis(np.zeros((3, 3)), 0.1)
    assert np.allclose(k, np.eye(3))


def test_kernel_of_all_ones():
    k = kernel_basis(np.ones((3, 3)), 0.1)
    assert k.shape == (3, 2)
    assert np.linalg.norm(k.conj().T @ np.ones(3)) < 1e-10
    assert np.allclose(k.conj().T @ k, np.eye(2))


def test_kernel_of_constructed_rank():
    rng = np.random.default_rng(33)
    for _ in range(5):
        n, r = 6, int(rng.integers(1, 5))
        a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        m = a @ b
        k = kernel_basis(m, 1e-8 * (1 + np.linalg.norm(m, 2)))
        assert k.shape == (n, n - r)
        assert np.linalg.norm(m @ k) < 1e-6


def test_kernel_of_wide_matrix_counts_missing_values_as_zero():
    m = np.array([[1.0, 0.0, 0.0]])
    k = kernel_basis(m, 0.5)
    assert k.shape == (3, 2)
    assert np.linalg.norm(m @ k) < 1e-12


def test_smallest_singular_value_and_cond():
    assert singular_values(np.eye(3))[-1] == pytest.approx(1.0)
    assert cond(np.eye(3)) == pytest.approx(1.0)
    d = np.diag([3.0, 1e-3])
    assert singular_values(d)[-1] == pytest.approx(1e-3)
    assert cond(d) == pytest.approx(3000.0)
    assert cond(np.zeros((2, 2))) == np.inf


def test_spectrum_consistent_with_split():
    rng = np.random.default_rng(39)
    m = rng.standard_normal((4, 4))
    split = split_svd(m, 0.5)
    assert np.allclose(np.sort(singular_values(m)), np.sort(split.sigma))
    assert singular_values(m)[-1] == pytest.approx(split.sigma[-1])


# -- input checks ----------------------------------------------------------------

INF, NAN = np.inf, np.nan
NON_FINITE = [
    (split_svd, ([[INF, 1], [0, 1]], 0.1), r"split_svd: matrix entry \(1, 1\) is not finite: \(inf"),
    (split_svd, ([[1, 0], [0, NAN]], "auto"), r"split_svd: matrix entry \(2, 2\) is not finite: \(nan"),
    (kernel_basis, ([[INF, 0]], 0.1), r"kernel_basis: matrix entry \(1, 1\) is not finite"),
    (solve, ([[1, NAN], [0, 1]], [1, 1]), r"solve: matrix entry \(1, 2\) is not finite"),
    (least_squares, ([[1], [1j * INF]], [1, 1]), r"least_squares: matrix entry \(2, 1\) is not"),
    (right_svd, ([[1, 2, NAN]],), r"right_svd: matrix entry \(1, 3\) is not finite"),
    (singular_values, ([[NAN]],), r"singular_values: matrix entry \(1, 1\) is not finite"),
    (cond, ([[1, 0], [-INF, 1]],), r"cond: matrix entry \(2, 1\) is not finite"),
    (auto_tolerance, ([[NAN]],), r"^auto_tolerance: matrix entry \(1, 1\) is not finite"),
]
SQUARE, MATRIX = "needs a non-empty square matrix, got shape", "needs a non-empty matrix, got shape"
MISSHAPEN = [
    (split_svd, (np.zeros((0, 0)), "auto"), rf"^split_svd {SQUARE} \(0, 0\)$"),
    (split_svd, (np.ones(3), 0.1), rf"^split_svd {SQUARE} \(3,\)$"),
    (solve, (np.zeros((0, 0)), []), rf"^solve {SQUARE} \(0, 0\)$"),
    (solve, (np.ones((2, 3)), [1, 1]), rf"^solve {SQUARE} \(2, 3\)$"),
    (least_squares, (np.zeros((2, 0)), [1, 1]), rf"^least_squares {MATRIX} \(2, 0\)$"),
    (kernel_basis, (np.ones(3), 0.1), rf"^kernel_basis {MATRIX} \(3,\)$"),
    (right_svd, (np.zeros((0, 2)),), rf"^right_svd {MATRIX} \(0, 2\)$"),
    (singular_values, (np.zeros((3, 0)),), rf"^singular_values {MATRIX} \(3, 0\)$"),
    (cond, (np.zeros((0, 0)),), rf"^cond {MATRIX} \(0, 0\)$"),
]


def _case_ids(cases):
    return [f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(cases)]


@pytest.mark.parametrize("fn, args, message", NON_FINITE, ids=_case_ids(NON_FINITE))
def test_non_finite_matrices_name_the_function_and_the_first_bad_entry(fn, args, message):
    # unchecked, these returned NaN spectra (kappa = 2 for the inf matrix),
    # a NaN kernel basis, or failed with "SVD did not converge"
    with pytest.raises(ValueError, match=message):
        fn(*args)


@pytest.mark.parametrize(
    "fn, rhs, message",
    [
        (solve, [NAN, 1], r"^solve: right-hand side entry 1 is not finite: \(nan"),
        (least_squares, [INF, 1], r"^least_squares: right-hand side entry 1 is not finite: \(inf"),
        (least_squares, [1, 1j * NAN], r"^least_squares: right-hand side entry 2 is not finite"),
    ],
    ids=["solve-nan", "least_squares-inf", "least_squares-imaginary-nan"],
)
def test_non_finite_right_hand_sides_name_the_function_and_the_first_bad_entry(fn, rhs, message):
    # unchecked, both returned [nan+nanj, nan+nanj] without an error
    with pytest.raises(ValueError, match=message):
        fn(np.eye(2), rhs)


@pytest.mark.parametrize("fn, args, message", MISSHAPEN, ids=_case_ids(MISSHAPEN))
def test_empty_and_misshapen_matrices_are_refused_by_name(fn, args, message):
    # unchecked, the empty split and solve raised IndexError
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_finite_entries_whose_squares_overflow_pass_the_check():
    # the sum of |m_ij|^2 overflows to inf, yet every entry is finite; the
    # one finiteness test of points, directions and start values is the same
    assert np.array_equal(singular_values([[1e200, 0], [0, -1e200j]]), [1e200, 1e200])
    big = np.array([1e200, -1e200j])
    assert np.array_equal(polycore._check_point(big, 2), big)
    assert np.array_equal(polycore._check_direction(big, 2), big)
    assert polycore._check_start_value(big) is big


def test_kernel_of_a_matrix_without_rows_is_the_whole_space():
    assert np.array_equal(kernel_basis(np.zeros((0, 3)), 0.1), np.eye(3))
