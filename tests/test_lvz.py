"""Deflation baseline: augmentation rounds and Gauss-Newton behavior."""

import json

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from snewton import lvz, polycore
from snewton.bench import catalog, get_entry, random_variant, variant_rank_tolerance
from snewton.lvz import (
    AugmentedSystem,
    DeflationError,
    deflate_once,
    deflate_structured,
    deflate_to_regular,
    gauss_newton,
)
from snewton.numla import singular_values, split_svd
from snewton.polycore import Poly, PolySystem, dir_hessian, parse_system
from snewton.twostep import operator_B

from oracles import (
    AugmentOracle,
    assert_matches_oracle,
    magnitudes,
    operator_A,
    symbolic_augment,
    symbolic_derivative,
)

XI = np.ones(3, dtype=complex)

# The pinned kernel data of the worked fourfold-zero example: V1 spans the
# row space, the V2 columns span the kernel of the all-ones Jacobian.
V1_EX = np.array([[1.0], [1.0], [1.0]])
V2_EX = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@pytest.fixture(scope="module")
def running():
    return get_entry("running-example").system


# -- the numeric augmentation against the symbolic one ---------------------------------


def _directions(rng, n, count=2):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]


def assert_matches_at_and_near(g, oracle, y, rng):
    """g agrees with the oracle at ``y`` and at two seeded points near it."""
    n = g.num_vars
    for scale in (0.0, 1e-3, 1e-1):
        point = y + scale * _directions(rng, n, 1)[0]
        assert_matches_oracle(g, oracle, point, _directions(rng, n))


def assert_same_values(got, want, points, rows=slice(None)):
    """Rows ``rows`` of ``got`` have the values and Jacobians of ``want``
    (to 1e-14 relative) at each point."""
    for y in points:
        for a, b in [(got.eval(y)[rows], want.eval(y)), (got.jacobian(y)[rows], want.jacobian(y))]:
            assert a.shape == b.shape and np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b), (a, b)


def _assert_deflate_once_matches_oracle(system, x, tol):
    deflated, y = deflate_once(system, x, tol, seed=1)
    oracle = AugmentOracle(system, deflated.system.weights, normal=deflated.system.normal)
    assert_matches_at_and_near(deflated.system, oracle, y, np.random.default_rng(2))
    return deflated


def test_deflate_once_matches_symbolic_augmentation_on_catalog():
    for entry in catalog():
        _assert_deflate_once_matches_oracle(entry.system, entry.zero, entry.tol)


@pytest.mark.parametrize("n, kappa", [(5, 1), (10, 2), (20, 3)])
def test_deflate_once_matches_symbolic_augmentation_on_variants(n, kappa):
    system, zero = random_variant(n, kappa, seed=4)
    tol = variant_rank_tolerance(system, zero, kappa)
    deflated = _assert_deflate_once_matches_oracle(system, zero, tol)
    assert deflated.kappa == kappa


def test_deflate_structured_matches_symbolic_augmentation(running):
    rng = np.random.default_rng(8)
    cases = [(running, XI, V1_EX, V2_EX, np.array([1.0, 1.0]))]
    for name in ("running-example", "truncated-sin", "mth191", "x2-z3xy-y2"):
        entry = get_entry(name)
        split = split_svd(entry.system.jacobian(entry.zero), entry.tol)
        lam2 = rng.standard_normal(split.kappa) + 1j * rng.standard_normal(split.kappa)
        cases.append((entry.system, entry.zero, split.v1, split.v2, lam2))
    for system, x, v1, v2, lam2 in cases:
        g, y = deflate_structured(system, x, v1, v2, lam2)
        oracle = AugmentOracle(system, v1, pinned=v2 @ lam2)
        assert_matches_at_and_near(g, oracle, y, rng)


def test_both_rounds_of_deflate_to_regular_match_symbolic_augmentation():
    entry = get_entry("x2-z3xy-y2")
    rng = np.random.default_rng(1)
    check = np.random.default_rng(3)
    current, oracle, y = entry.system, entry.system, entry.zero
    for _ in range(2):
        deflated, y = deflate_once(current, y, 0.1, seed=rng)
        oracle = AugmentOracle(oracle, deflated.system.weights, normal=deflated.system.normal)
        current = deflated.system
        assert_matches_at_and_near(current, oracle, y, check)
    final, y_final, steps = deflate_to_regular(entry.system, entry.zero, 0.1, seed=1)
    assert steps == 2
    assert np.array_equal(y_final, y)
    for point in [y] + [y + 1e-2 * d for d in _directions(check, len(y))]:
        assert np.array_equal(final.eval(point), current.eval(point))
        assert np.array_equal(final.jacobian(point), current.jacobian(point))


def test_deflation_does_no_polynomial_arithmetic(count_calls):
    system = parse_system(
        "x^2 - x + y + z - 2\ny^2 + x - y + z - 2\nz^2 + x + y - z - 2", ["x", "y", "z"]
    )
    entry = get_entry("x2-z3xy-y2")
    sums = count_calls(Poly, "__add__")
    products = count_calls(Poly, "__mul__")
    built = count_calls(Poly, "__init__")
    from_terms = count_calls(polycore, "system_from_terms")
    deflated, y = deflate_once(system, XI, 0.1, seed=3)
    gauss_newton(deflated.system, y, max_iter=3)
    deflate_structured(system, XI, V1_EX, V2_EX, [1.0, 1.0])
    final, y, _ = deflate_to_regular(entry.system, entry.zero, 0.1, seed=1)
    gauss_newton(final, y, max_iter=3)
    assert sums == [] and products == [] and built == [] and from_terms == []
    symbolic_augment(system, deflated.system.weights, normal=deflated.system.normal)
    polycore.system_from_terms(*system._arrays)
    assert sums and products and built and from_terms  # the counters do count


_COMPLEX = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


@st.composite
def _small_systems(draw):
    """Square and non-square systems in 1-3 variables, degree <= 3 per variable."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    rows = st.dictionaries(exponents, _COMPLEX, max_size=5)
    return PolySystem(Poly(n, draw(rows)) for _ in range(m))


def _vector(draw, n):
    return np.array(draw(st.lists(_COMPLEX, min_size=n, max_size=n)), dtype=complex)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), system=_small_systems(), k=st.integers(0, 3))
def test_directional_derivative_matches_repeated_symbolic_partials(data, system, k):
    """``directional_derivative`` with k = 0..3 directions, of a polynomial
    system, of its augmentation (weights, pinned part and normal row drawn
    too) and of an augmentation of that, equals the Jacobian of the
    symbolic contraction."""
    n = system.num_vars
    q = data.draw(st.integers(1, 2))
    weights = np.column_stack([_vector(data.draw, n) for _ in range(q)])
    pinned, normal = _vector(data.draw, n), _vector(data.draw, q)
    once = AugmentedSystem(system, weights, pinned, normal)
    oracle = AugmentOracle(system, weights, pinned, normal)
    weights2 = _vector(data.draw, once.num_vars)[:, None]
    twice = AugmentedSystem(once, weights2, normal=[1.0])
    oracle2 = AugmentOracle(oracle, weights2, normal=np.ones(1))
    for g, sym, mag in [
        (system, system, magnitudes(system)),
        (once, oracle.system, oracle.magnitude),
        (twice, oracle2.system, oracle2.magnitude),
    ]:
        y = _vector(data.draw, g.num_vars)
        dirs = [_vector(data.draw, g.num_vars) for _ in range(k)]
        got = g.directional_derivative(y, dirs)
        want = symbolic_derivative(sym, dirs).jacobian(y)
        scale = symbolic_derivative(mag, [np.abs(d) for d in dirs]).jacobian(np.abs(y))
        assert got.shape == (len(g), g.num_vars)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(scale)


def test_directional_derivative_of_one_direction_is_dir_hessian(evaluation_passes):
    system, zero = random_variant(6, 2, seed=3)
    v = np.arange(6) + 1j
    got = system.directional_derivative(zero, [v])
    # one pass, over the cached second-derivative terms
    assert [index is system._index((2,)) for index in evaluation_passes] == [True]
    assert np.array_equal(got, dir_hessian(system, zero, v))
    assert np.array_equal(system.directional_derivative(zero, []), system.jacobian(zero))


def test_higher_directional_derivatives_reuse_their_cached_terms(evaluation_passes):
    system, zero = random_variant(6, 2, seed=3)
    v, w = np.arange(6) + 1j, np.ones(6)
    first = system.directional_derivative(zero, [v, w])
    evaluation_passes.clear()
    again = system.directional_derivative(zero, [v, w])
    # one pass over the cached third-derivative terms, no new index
    assert [index is system._index((3,)) for index in evaluation_passes] == [True]
    assert again.tobytes() == first.tobytes()


def test_augmented_directional_derivative_checks_its_direction_once(running, monkeypatch):
    deflated, y = deflate_once(running, XI, 0.1, seed=3)
    checked = []
    real = polycore._check_direction

    def counting(v, num_vars):
        checked.append(num_vars)
        return real(v, num_vars)

    for module in (polycore, lvz):
        monkeypatch.setattr(module, "_check_direction", counting)
    d = np.arange(len(y)) + 1j  # nonzero along x and along the multipliers
    got = deflated.system.directional_derivative(y, [d])
    assert checked == [len(y)]
    monkeypatch.undo()
    oracle = AugmentOracle(running, deflated.system.weights, normal=deflated.system.normal)
    assert_matches_oracle(deflated.system, oracle, y, [d])
    assert np.array_equal(got, deflated.system.directional_derivative(y, [d]))


def test_directional_derivative_rejects_wrong_lengths(running):
    deflated, y = deflate_once(running, XI, 0.1, seed=3)
    with pytest.raises(ValueError, match="direction length"):
        running.directional_derivative(XI, [np.ones(2)])
    with pytest.raises(ValueError, match="direction length"):
        deflated.system.directional_derivative(y, [np.ones(3)])
    with pytest.raises(ValueError, match="point has 3 coordinates, expected 5"):
        deflated.system.eval(XI)


# -- single random deflation round -------------------------------------------------


def test_deflate_once_shapes_and_multipliers(running):
    deflated, y0 = deflate_once(running, XI, 0.1, seed=3)
    g = deflated.system
    n = running.num_vars
    q = n - deflated.kappa + 1
    assert deflated.kappa == 2
    assert len(g) == 2 * n + 1
    assert g.num_vars == n + q
    assert y0.shape == (n + q,)
    # multiplier rows and the normalization row vanish at the start (zero, lambda)
    values = g.eval(y0)
    assert np.linalg.norm(values[n:]) < 1e-10


def test_deflate_once_jacobian_block_structure(running):
    deflated, y0 = deflate_once(running, XI, 0.1, seed=3)
    g = deflated.system
    n = running.num_vars
    b_mat, b_vec, lam = g.weights, g.normal, y0[n:]
    q = b_mat.shape[1]
    jac = g.jacobian(y0)
    jf = running.jacobian(XI)
    # assembled independently: [[Df, 0], [D2f.(B lam), Df.B], [0, b^T]]
    assert np.linalg.norm(jac[:n, :n] - jf) < 1e-12
    assert np.linalg.norm(jac[:n, n:]) < 1e-12
    assert np.linalg.norm(jac[n : 2 * n, :n] - dir_hessian(running, XI, b_mat @ lam)) < 1e-10
    assert np.linalg.norm(jac[n : 2 * n, n:] - jf @ b_mat) < 1e-10
    assert np.linalg.norm(jac[2 * n, :n]) < 1e-12
    assert np.linalg.norm(jac[2 * n, n:] - b_vec) < 1e-12


def test_deflate_once_rejects_regular_points():
    system = parse_system("x - 1\ny - 2", ["x", "y"])
    with pytest.raises(DeflationError):
        deflate_once(system, [1, 2], 0.1, seed=0)


# -- pinned-kernel deflation ----------------------------------------------------------


def test_structured_deflation_reproduces_worked_example(running):
    g, y0 = deflate_structured(running, XI, V1_EX, V2_EX, [1.0, 1.0])
    assert len(g) == 6
    assert g.num_vars == 4
    lam = parse_system(
        "2*x*L + 4*x + L - 4\n2*y*L - 2*y + L + 2\n2*z*L - 2*z + L + 2",
        ["x", "y", "z", "L"],
    )
    points = [np.concatenate([XI, [0.0]]), *_directions(np.random.default_rng(5), 4)]
    assert_same_values(g, lam, points, rows=slice(3, None))

    jac = g.jacobian(np.concatenate([XI, [0.0]]))
    expected = np.array(
        [
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            [4, 0, 0, 3],
            [0, -2, 0, 3],
            [0, 0, -2, 3],
        ],
        dtype=complex,
    )
    assert np.linalg.norm(jac - expected) < 1e-12
    assert np.linalg.matrix_rank(expected) == 4  # full column rank: one round deflates


def test_structured_deflation_initial_multiplier():
    entry = get_entry("robustness-pair")
    v1 = np.array([[1.0], [0.0]])
    v2 = np.array([[0.0], [1.0]])
    g, y0 = deflate_structured(entry.system, [0.3, 0.3], v1, v2, [1.0])
    assert len(g) == 4 and g.num_vars == 3
    assert abs(y0[2] - 0.7059) < 1e-4  # least-squares multiplier at the start


def test_structured_deflation_with_fully_pinned_kernel():
    # corank n leaves no free multipliers: augmenting x^2 with its pinned
    # derivative row gives the classic [x^2, 2x] system in x alone
    system = parse_system("x^2", ["x"])
    v1 = np.zeros((1, 0))
    v2 = np.array([[1.0]])
    g, y0 = deflate_structured(system, [0.5], v1, v2, [1.0])
    want = parse_system("x^2\n2*x", ["x"])
    assert_same_values(g, want, [[0.5], *_directions(np.random.default_rng(6), 1)])
    assert np.allclose(y0, [0.5])


def test_structured_deflation_takes_a_vector_as_one_column(running):
    g, y0 = deflate_structured(running, XI, V1_EX[:, 0], V2_EX, [1.0, 1.0])
    want, y_want = deflate_structured(running, XI, V1_EX, V2_EX, [1.0, 1.0])
    assert g.num_vars == 4 and np.array_equal(y0, y_want)
    assert_same_values(g, want, [y0, *_directions(np.random.default_rng(7), 4)])
    g, _ = deflate_structured(running, XI, V1_EX, V2_EX[:, 0], [1.0])
    assert np.array_equal(g.pinned, V2_EX[:, 0])


@pytest.mark.parametrize(
    "v1, v2, message",
    [
        # a flat V1 of length 2p was once read as a p x 2 block
        (np.ones(6), V2_EX, r"V1 has shape \(6, 1\), expected 3 rows"),
        (np.ones((2, 1)), V2_EX, r"V1 has shape \(2, 1\), expected 3 rows"),
        (V1_EX, np.ones((4, 2)), r"V2 has shape \(4, 2\), expected 3 rows"),
        (V1_EX, np.ones((3, 2, 1)), r"V2 has shape \(3, 2, 1\), expected 3 rows"),
        (V1_EX, V2_EX[:, :1], "lambda2 length must match the V2 column count"),  # two entries, one column
    ],
)
def test_structured_deflation_rejects_blocks_of_the_wrong_shape(running, v1, v2, message):
    with pytest.raises(ValueError, match=message):
        deflate_structured(running, XI, v1, v2, [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_structured_deflation_rejects_non_finite_blocks(running, bad):
    v1, v2 = V1_EX.astype(complex), V2_EX.astype(complex)
    v1[2, 0] = bad
    with pytest.raises(ValueError, match=r"V1 entry \(3, 1\) is not finite"):
        deflate_structured(running, XI, v1, V2_EX, [1.0, 1.0])
    v2[1, 1] = bad
    with pytest.raises(ValueError, match=r"V2 entry \(2, 2\) is not finite"):
        deflate_structured(running, XI, V1_EX, v2, [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_augmented_system_rejects_non_finite_weights_and_directions(running, bad):
    weights = np.ones((3, 2), dtype=complex)
    weights[1, 0] = bad
    with pytest.raises(ValueError, match=r"weights entry \(2, 1\) is not finite"):
        AugmentedSystem(running, weights)
    with pytest.raises(ValueError, match="direction entry 3 is not finite"):
        AugmentedSystem(running, np.ones((3, 2)), pinned=[1.0, 0.0, bad])
    with pytest.raises(ValueError, match="direction entry 2 is not finite"):
        AugmentedSystem(running, np.ones((3, 2)), normal=[1.0, bad])
    deflated, y = deflate_once(running, XI, 0.1, seed=3)
    with pytest.raises(ValueError, match="direction entry 1 is not finite"):
        deflated.system.directional_derivative(y, [np.full(len(y), bad)])


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
def test_deflation_rejects_tolerances_that_are_not_positive(running, tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        deflate_once(running, XI, tol)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        deflate_to_regular(running, XI, tol)


def test_full_rank_equivalence_with_kernel_operator():
    # one deflation round is regular exactly when the full operator (and its
    # compression to the kernel block) is invertible, sampled over several
    # random kernel multipliers
    def invertible(matrix):
        sigma = singular_values(matrix)
        return bool(sigma[-1] > 1e-8 * (1 + sigma[0]))

    rng = np.random.default_rng(12)
    cases = [
        ("running-example", True),
        ("truncated-sin", True),
        ("robustness-pair", True),
        ("mth191", True),
        ("x2-z3xy-y2", False),
    ]
    for name, expect in cases:
        entry = get_entry(name)
        system, zero = entry.system, entry.zero
        split = split_svd(system.jacobian(zero), entry.tol)
        for _ in range(3):
            lam2 = rng.standard_normal(split.kappa) + 1j * rng.standard_normal(split.kappa)
            g, _ = deflate_structured(system, zero, split.v1, split.v2, lam2)
            jac = g.jacobian(np.concatenate([zero, np.zeros(split.n - split.kappa)]))
            sigma = singular_values(jac)
            full_rank = bool(sigma[-1] > 1e-8 * (1 + sigma[0]))
            v = split.v2 @ lam2
            v = v / np.linalg.norm(v)
            a_invertible = invertible(operator_A(system, zero, v, split.v2))
            b_invertible = invertible(operator_B(system, zero, v, split.u2, split.v2))
            assert full_rank == a_invertible == b_invertible == expect, name


# -- iterated deflation -----------------------------------------------------------------


def test_deflation_counts(running):
    _, _, steps = deflate_to_regular(running, XI, 0.1, seed=1)
    assert steps == 1

    entry = get_entry("x2-z3xy-y2")
    g, y, steps = deflate_to_regular(entry.system, entry.zero, 0.1, seed=1)
    assert steps == 2

    entry = get_entry("robustness-pair")
    g, y, steps = deflate_to_regular(entry.system, entry.zero, 0.1, seed=1)
    assert steps == 1
    assert len(g) == 5  # 2n+1 polynomials after one round on a 2-var system
    assert g.num_vars == 4


def test_deflate_to_regular_evaluates_each_jacobian_once(evaluation_passes):
    """Each point's Jacobian serves both the full-rank test of the round that
    reached it and the next round.  On x2-z3xy-y2 that is 6 passes, where
    evaluating it again in the next round made 7: one for Df at the zero,
    one for the first augmented Jacobian (f, Df and D^2f.a together), and
    four for the second, which needs f, Df and D^2f.a, D^2f.u, D^3f[a, u]
    and D^2f.(W mu) of the parent."""
    entry = get_entry("x2-z3xy-y2")
    final, y, steps = deflate_to_regular(entry.system, entry.zero, 0.1, seed=1)
    assert steps == 2 and len(evaluation_passes) == 6


def test_deflate_to_regular_step_budget():
    entry = get_entry("x2-z3xy-y2")
    with pytest.raises(DeflationError):
        deflate_to_regular(entry.system, entry.zero, 0.1, max_steps=1, seed=1)


def test_deflate_to_regular_rejects_a_budget_of_no_round(running):
    with pytest.raises(ValueError, match="max_steps must be at least 1, got 0"):
        deflate_to_regular(running, XI, 0.1, max_steps=0)


# -- Gauss-Newton -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"max_iter": -1}, "max_iter must be at least 0, got -1"),
        ({"stop": np.nan}, "stop must be at least 0, got nan"),
        ({"stop": -1e-12}, "stop must be at least 0, got -1e-12"),
    ],
)
def test_gauss_newton_rejects_a_negative_budget_or_target(bad, message):
    system = parse_system("x^2\n2*x", ["x"])
    with pytest.raises(ValueError, match=message):
        gauss_newton(system, [0.5], **bad)


def test_gauss_newton_takes_no_iteration_and_a_target_of_zero():
    system = parse_system("x^2\n2*x", ["x"])
    assert gauss_newton(system, [0.5], max_iter=0).iterations == 0
    trace = gauss_newton(system, [0.5], max_iter=2, stop=0.0)
    assert trace.iterations == 2 and not trace.converged


def test_gauss_newton_consistent_linear_system_one_step():
    system = parse_system("x + y - 3\nx - y - 1\n2*x - 4", ["x", "y"])
    trace = gauss_newton(system, [10.0, -10.0], max_iter=5)
    assert trace.converged
    assert trace.iterations == 1
    assert np.allclose(trace.x, [2.0, 1.0])


def test_gauss_newton_refines_deflated_system(running):
    deflated, y0 = deflate_once(running, np.array([1.01, 0.99, 1.01]), 0.1, seed=3)
    trace = gauss_newton(deflated.system, y0, max_iter=50)
    assert trace.converged
    assert trace.residuals[-1] <= 1e-10
    assert np.linalg.norm(trace.x[:3] - XI) < 1e-9


def test_gauss_newton_evaluates_once_per_iterate(running, evaluation_passes):
    deflated, y0 = deflate_once(running, np.array([1.01, 0.99, 1.01]), 0.1, seed=3)
    trace = gauss_newton(deflated.system, y0, max_iter=50)
    assert trace.converged and trace.iterations >= 2
    # Df at the start for the multipliers, then at every iterate, the start
    # and the last one too, g and Dg from one pass of f, Df and D^2f.a
    want = [running._index((1,))] + [running._index((0, 1, 2))] * (trace.iterations + 1)
    assert len(evaluation_passes) == len(want)
    assert all(index is wanted for index, wanted in zip(evaluation_passes, want))


def test_gauss_newton_takes_the_qr_step_on_a_variant(monkeypatch):
    # the deflated random_variant(10, 2) has 21 x 19 Jacobians, past
    # numla._QR_MIN_COLUMNS, and full column rank near the zero, so no
    # Gauss-Newton step falls back to lstsq
    system, zero = random_variant(10, 2, seed=4)
    rng = np.random.default_rng(5)
    x0 = zero + 1e-3 * (rng.standard_normal(10) + 1j * rng.standard_normal(10)) / np.sqrt(20)
    deflated, y0 = deflate_once(system, x0, variant_rank_tolerance(system, zero, 2), seed=6)
    calls, real = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or real(*a, **k))
    trace = gauss_newton(deflated.system, y0)
    assert trace.converged and trace.iterations >= 2
    assert np.linalg.norm(trace.x[:10] - zero) < 1e-10
    assert calls == []


def test_gauss_newton_walks_to_stationary_point():
    entry = get_entry("robustness-pair")
    v1 = np.array([[1.0], [0.0]])
    v2 = np.array([[0.0], [1.0]])
    g, y0 = deflate_structured(entry.system, [0.3, 0.3], v1, v2, [1.0])
    trace = gauss_newton(g, y0, max_iter=100)
    assert trace.stationary
    assert not trace.converged
    assert trace.residuals[-1] > 0.1  # stuck far from any zero
    limit = np.array([0.5, np.sqrt(6) / 4, np.sqrt(6) / 2])
    assert np.linalg.norm(trace.x - limit) < 1e-10


def test_gauss_newton_on_univariate_augmented_square():
    # augmenting x^2 with its derivative leaves the origin as the only zero,
    # and the least-squares objective |x|^4 + 4|x|^2 has no other stationary
    # point (the step at 2i, for one, is 1.2i); from a complex start the
    # iteration finds the zero without stalling
    g = parse_system("x^2\n2*x", ["x"])
    trace = gauss_newton(g, [1.9j], max_iter=100)
    assert trace.converged
    assert not trace.stationary
    assert abs(trace.x[0]) <= 1e-12


def test_gauss_newton_rejects_underdetermined():
    system = parse_system("x + y", ["x", "y"])
    with pytest.raises(ValueError):
        gauss_newton(system, [0.0, 0.0])


def test_gauss_newton_rejects_non_finite_start():
    system = parse_system("x^2\n2*x", ["x"])
    with pytest.raises(ValueError, match="coordinate 1 is not finite"):
        gauss_newton(system, [complex(np.nan, 1.0)])


def test_gauss_newton_trace_json(running):
    # the one trace payload of refine: a Gauss-Newton step chooses no corank
    deflated, y0 = deflate_once(running, np.array([1.01, 0.99, 1.01]), 0.1, seed=3)
    trace = gauss_newton(deflated.system, y0, max_iter=50)
    payload = json.loads(json.dumps(trace.to_json()))
    assert payload["schema"] == 1
    assert payload["stop_reason"] == "residual"
    assert payload["iterations"] == trace.iterations >= 2
    assert payload["kappas"] == [None] * trace.iterations
    assert payload["residuals"] == trace.residuals
    keys = {"schema", "iterations", "stop_reason", "final_point", "final_residual", "kappas", "residuals"}
    assert set(payload) == keys
