"""Polynomial representation, parsing, and exact calculus."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snewton.polycore import (
    MAX_EXPONENT,
    Poly,
    PolyParseError,
    PolySystem,
    compose_affine,
    dir_hessian,
    grlex_key,
    load_system_json,
    monomials_upto,
    normalized_partial,
    parse_poly,
    parse_system,
    system_from_terms,
    taylor_coefficients,
)
from snewton.polycore import _grlex, _grlex_memo, _in_order, _norm, _pair_ids, _pair_sums

from oracles import (
    AugmentOracle,
    apply_functional,
    lexsorted_arrays,
    looped_taylor_shift,
    magnitudes,
    segment_sums,
    symbolic_compose_affine,
    symbolic_derivative,
    symbolic_jacobian,
)

RUNNING = (
    "x^2 - x + y + z - 2\n"
    "y^2 + x - y + z - 2\n"
    "z^2 + x + y - z - 2"
)
XYZ = ["x", "y", "z"]


def random_poly(rng, num_vars, degree=3, terms=6, scale=10.0):
    out = {}
    for _ in range(terms):
        alpha = tuple(int(a) for a in rng.integers(0, degree + 1, size=num_vars))
        if sum(alpha) > degree + 1:
            alpha = tuple(a // 2 for a in alpha)
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        out[alpha] = out.get(alpha, 0) + c
    return Poly(num_vars, out)


def naive_eval(p, x):
    """Independent oracle: plain per-term python accumulation."""
    total = 0j
    for alpha, c in p.terms.items():
        term = c
        for e, xi in zip(alpha, x):
            term *= xi**e
        total += term
    return total


def fd_jacobian(system, x, h=1e-6):
    """Central finite differences, the independent derivative oracle."""
    x = np.asarray(x, dtype=complex)
    n = system.num_vars
    cols = []
    for j in range(n):
        step = np.zeros(n, dtype=complex)
        step[j] = h
        cols.append((system.eval(x + step) - system.eval(x - step)) / (2 * h))
    return np.stack(cols, axis=1)


def symbolic_dir_hessian(system, x, v):
    """Oracle for ``dir_hessian``: contract the symbolic gradient with ``v``
    as polynomials, then take the Jacobian of the contracted system."""
    return symbolic_derivative(system, [v]).jacobian(x)


def assert_dir_hessian_matches_oracle(system, x, v):
    """Numeric and symbolic contractions agree to 1e-13 relative to the
    magnitude scale: the same contraction with every coefficient, coordinate
    and direction entry replaced by its modulus, which no rounding error of
    either evaluation can exceed by more than a few ulps per term."""
    expected = symbolic_dir_hessian(system, x, v)
    scale = np.linalg.norm(symbolic_dir_hessian(magnitudes(system), np.abs(x), np.abs(v)))
    assert np.linalg.norm(dir_hessian(system, x, v) - expected) <= 1e-13 * scale


# -- construction and canonical form ----------------------------------------


def test_zero_coefficients_are_dropped():
    p = Poly(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert p.terms == {(0, 1): 2.0}
    assert Poly(2, {(1, 1): 0.0}).is_zero()


def test_multi_index_validation():
    with pytest.raises(ValueError):
        Poly(2, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        Poly(2, {(-1, 0): 1.0})


def test_exponents_beyond_the_term_arrays_are_rejected():
    # exponents are stored as int16 in the term arrays
    assert Poly(1, {(MAX_EXPONENT,): 2.0}).eval([1.0]) == 2.0
    with pytest.raises(ValueError, match="exceeds 32767"):
        Poly(2, {(0, MAX_EXPONENT + 1): 1.0})


def test_jacobian_coefficient_overflow_is_rejected():
    system = PolySystem([Poly(1, {(3,): 1e308})])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        system.jacobian([1.0])


def test_hessian_coefficient_overflow_is_rejected():
    # 5e307 * 3 is finite, 5e307 * 3 * 2 is not
    system = PolySystem([Poly(1, {(3,): 5e307})])
    assert np.isfinite(system.jacobian([1.0])).all()
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        dir_hessian(system, [1.0], [1.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        system.directional_derivative([1.0], [[1.0], [1.0]])


def test_non_finite_coefficients_are_rejected():
    for bad in (np.nan, np.inf, complex(1, np.inf)):
        with pytest.raises(ValueError, match="not finite"):
            Poly(2, {(1, 0): bad})


def test_system_requires_matching_num_vars():
    with pytest.raises(ValueError):
        PolySystem([Poly.variable(2, 0), Poly.variable(3, 0)])


def test_poly_is_immutable():
    p = Poly.variable(2, 0)
    with pytest.raises(AttributeError):
        p.num_vars = 3


# -- parsing ------------------------------------------------------------------


def test_parse_running_example_first_line():
    p = parse_poly("x1^2 - x1 + x2 + x3 - 2", ["x1", "x2", "x3"])
    assert len(p.terms) == 5
    assert p.terms[(2, 0, 0)] == 1.0
    assert p.terms[(0, 0, 0)] == -2.0


def test_parse_zero_polynomial():
    assert parse_poly("0", XYZ).is_zero()


def test_parse_complex_coefficients():
    p = parse_poly("(1+2i)*x + 3i - 0.5", ["x"])
    assert p.terms[(1,)] == 1 + 2j
    assert p.terms[(0,)] == -0.5 + 3j


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse_system("x + y\nx + w", XYZ)
    assert err.value.line == 2
    assert err.value.col == 5
    assert "unknown variable 'w'" in str(err.value)

    with pytest.raises(PolyParseError) as err:
        parse_poly("x ^ 1.5", ["x"])
    assert "exponent" in str(err.value)

    with pytest.raises(PolyParseError):
        parse_poly("x + + y", XYZ)
    with pytest.raises(PolyParseError):
        parse_poly("x @ y", XYZ)


def test_parse_rejects_non_finite_coefficients():
    # 1e999 overflows to inf, and inf * (1+0j) would store nan+nanj
    with pytest.raises(PolyParseError, match="not finite") as err:
        parse_system("1e999*x^2\ny", ["x", "y"])
    assert (err.value.line, err.value.col) == (1, 1)
    # finite factors whose product overflows, in a later term
    with pytest.raises(PolyParseError, match="not finite") as err:
        parse_system("x\ny - 1e200*1e200*x", ["x", "y"])
    assert (err.value.line, err.value.col) == (2, 3)
    with pytest.raises(PolyParseError, match="not finite"):
        parse_poly("(1e308+1e308)*x", ["x"])


def test_parse_rejects_exponents_beyond_the_term_arrays():
    with pytest.raises(PolyParseError, match="exponent exceeds 32767") as err:
        parse_system("x - 1\ny^2 + x^40000 - 1", ["x", "y"])
    assert (err.value.line, err.value.col) == (2, 5)
    # in-range powers whose product is out of range
    with pytest.raises(PolyParseError, match="exponent exceeds 32767") as err:
        parse_system("x^20000*x^20000", ["x"])
    assert (err.value.line, err.value.col) == (1, 1)


def test_imaginary_unit_is_reserved():
    with pytest.raises(ValueError):
        parse_poly("i + j", ["i", "j"])


def test_analytic_function_input_is_rejected():
    # only polynomial text is accepted; transcendental expressions must be
    # truncated to polynomials by the caller before parsing
    with pytest.raises(PolyParseError, match="unknown variable 'sin'"):
        parse_poly("x^3 + z*sin", XYZ)
    with pytest.raises(PolyParseError):
        parse_poly("x^3 + z*sin(y)", XYZ)


def test_roundtrip_running_example():
    system = parse_system(RUNNING, XYZ)
    again = parse_system(system.to_string(XYZ), XYZ)
    assert again == system


def test_roundtrip_random_polys():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        p = random_poly(rng, n, degree=4, terms=8)
        names = [f"x{i+1}" for i in range(n)]
        assert parse_poly(p.to_string(names), names) == p
    assert parse_poly(Poly.zero(3).to_string(), [f"x{i+1}" for i in range(3)]).is_zero()


def test_system_to_string_prints_the_rows_from_the_term_arrays(count_calls):
    """``PolySystem.to_string`` is the rows' ``Poly.to_string`` joined by line
    breaks, made from the term arrays without building a ``Poly``."""
    from snewton.bench import catalog, random_variant

    rng = np.random.default_rng(7)
    systems = [entry.system for entry in catalog()]
    systems += [random_variant(n, k, seed=n)[0] for n, k in ((3, 1), (8, 2), (20, 3))]
    systems += [PolySystem([random_poly(rng, 3, terms=8), Poly.zero(3), Poly.constant(3, -1j)])]
    built = count_calls(Poly, "__init__")
    for system in systems:
        names = [f"v_{i}" for i in range(system.num_vars)]
        copy = system_from_terms(*system._arrays)
        built.clear()
        text, named = copy.to_string(), copy.to_string(names)
        assert not built and copy._polys is None
        assert text == "\n".join(p.to_string() for p in system.polys)
        assert named == "\n".join(p.to_string(names) for p in system.polys)


def test_load_system_json(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text('{"vars": ["x", "y"], "polys": ["x^2 - y", "y - 1"]}')
    system, names = load_system_json(path)
    assert names == ["x", "y"]
    assert np.allclose(system.eval([1, 1]), 0)

    bad = tmp_path / "bad.json"
    bad.write_text('{"polys": ["x"]}')
    with pytest.raises(ValueError):
        load_system_json(bad)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vars": "xy", "polys": ["x", "y"]}, "each a list of strings"),
        ({"vars": ["x", "y"], "polys": "x"}, "each a list of strings"),
        ({"vars": ["x", "y"], "polys": ["x^2", 3]}, "each a list of strings"),
        ({"vars": ["x", 1], "polys": ["x"]}, "each a list of strings"),
        (["x", "y"], "each a list of strings"),
        ({"vars": ["x", "x"], "polys": ["x"]}, "variable name 'x' is given twice"),
        ({"vars": ["x", "y"], "polys": ["x", "y +\nx"]}, "line 2, column 4: line break"),
        ({"vars": ["x"], "polys": ["x", ""]}, "line 2, column 1: empty polynomial"),
        ({"vars": ["x"], "polys": []}, "at least one polynomial"),
    ],
)
def test_load_system_json_rejects_malformed_files(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message):
        load_system_json(path)


def test_repeated_variable_names_are_rejected():
    with pytest.raises(ValueError, match="variable name 'y' is given twice"):
        parse_poly("x + y", ["x", "y", "z", "y"])
    with pytest.raises(ValueError, match="variable name 'x' is given twice"):
        parse_system("x\nx^2", ["x", "x"])


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028"])
def test_parse_poly_rejects_line_breaks(brk):
    with pytest.raises(PolyParseError, match="line 3, column 4: line break") as err:
        parse_poly(f"x +{brk} y", ["x", "y"], lineno=3)
    assert (err.value.line, err.value.col) == (3, 4)


# -- evaluation ---------------------------------------------------------------


def test_eval_running_example_at_zero():
    system = parse_system(RUNNING, XYZ)
    assert np.linalg.norm(system.eval([1, 1, 1])) == 0.0


def test_eval_zero_polynomial():
    assert Poly.zero(2).eval([3.0, 4 + 2j]) == 0


def test_eval_matches_naive_oracle():
    system = parse_system(RUNNING, XYZ)
    x = np.array([1.001, 0.999, 1.001])
    expected = np.array([naive_eval(p, x) for p in system])
    assert np.linalg.norm(system.eval(x) - expected) < 1e-14

    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_poly(rng, 3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs(p.eval(x) - naive_eval(p, x)) <= 1e-12 * (1 + abs(naive_eval(p, x)))


def test_eval_is_insertion_order_independent():
    # canonical term order fixes the summation order, so two builds of the
    # same polynomial evaluate bit-identically
    rng = np.random.default_rng(19)
    p = random_poly(rng, 3, degree=4, terms=10)
    reversed_terms = dict(reversed(list(p.terms.items())))
    q = Poly(3, reversed_terms)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert p.eval(x) == q.eval(x)


def test_eval_dimension_mismatch():
    system = parse_system(RUNNING, XYZ)
    with pytest.raises(ValueError):
        system.eval([1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_points_are_rejected(bad):
    system = parse_system(RUNNING, XYZ)
    x = np.array([1.0, bad, 1.0])
    for entry in (system.eval, system.jacobian, lambda p: dir_hessian(system, p, [1, 0, 0])):
        with pytest.raises(ValueError, match="coordinate 2 is not finite"):
            entry(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_directions_are_rejected(bad):
    system = parse_system(RUNNING, XYZ)
    x, v = np.ones(3), np.array([1.0, 0.0, bad])
    entries = [
        lambda: dir_hessian(system, x, v),
        lambda: system.directional_derivative(x, [v]),
        lambda: system.directional_derivative(x, [x, v]),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="direction entry 3 is not finite"):
            entry()


def test_norm_has_the_bits_of_the_numpy_norm():
    # refine's and gauss_newton's residuals and stop tests and the direction
    # draw read it: a last bit that differed could move a stop at the
    # rounding floor
    rng = np.random.default_rng(0)
    for size in (1, 3, 20, 200):
        for scale in (1e-150, 1.0, 1e150):
            x = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
            assert _norm(x) == np.linalg.norm(x)
            assert (x / _norm(x)).tobytes() == (x / np.linalg.norm(x)).tobytes()


# -- derivatives --------------------------------------------------------------


def test_jacobian_running_example_all_ones():
    system = parse_system(RUNNING, XYZ)
    assert np.allclose(system.jacobian([1, 1, 1]), np.ones((3, 3)))


def test_jacobian_of_linear_system_is_identity():
    system = parse_system("x\ny", ["x", "y"])
    assert np.allclose(system.jacobian([3.2, -1.5]), np.eye(2))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        system = PolySystem([random_poly(rng, n, degree=4, terms=7) for _ in range(n)])
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        exact = system.jacobian(x)
        approx = fd_jacobian(system, x)
        assert np.linalg.norm(exact - approx) <= 1e-7 * (1 + np.linalg.norm(exact))


def test_jacobian_linearity():
    rng = np.random.default_rng(13)
    p = random_poly(rng, 3)
    q = random_poly(rng, 3)
    x = rng.standard_normal(3)
    combined = PolySystem([p + q])
    separate = PolySystem([p]).jacobian(x) + PolySystem([q]).jacobian(x)
    assert np.allclose(combined.jacobian(x), separate)


def test_dir_hessian_hand_value():
    system = parse_system("x^2\nx*y", ["x", "y"])
    h = dir_hessian(system, [0, 0], [1, 0])
    assert np.allclose(h, [[2, 0], [0, 1]])


def test_dir_hessian_zero_for_linear_systems():
    system = parse_system("x + 2*y - 1\ny", ["x", "y"])
    assert np.allclose(dir_hessian(system, [0.3, 0.4], [1, 0]), 0)


def test_dir_hessian_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(5):
        system = PolySystem([random_poly(rng, 3) for _ in range(3)])
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        left = dir_hessian(system, x, v) @ w
        right = dir_hessian(system, x, w) @ v
        assert np.linalg.norm(left - right) <= 1e-12 * (1 + np.linalg.norm(left))


_COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_COMPLEX = st.builds(complex, _COORD, _COORD)
# Zero coordinates and zero direction entries are drawn on purpose: they
# exercise the masked terms and the skipped directions of dir_hessian.
_MAYBE_ZERO = st.one_of(st.just(0j), _COMPLEX)
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _vectors(n):
    return st.lists(_MAYBE_ZERO, min_size=n, max_size=n).map(
        lambda xs: np.array(xs, dtype=complex)
    )


@st.composite
def _random_systems(draw):
    """Square and non-square systems in 1-4 variables, degree <= 4 per variable."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 4)] * n)
    terms = st.dictionaries(exponents, _COMPLEX, max_size=6)
    return PolySystem(Poly(n, draw(terms)) for _ in range(m))


@_PROPERTY
@given(data=st.data(), system=_random_systems())
def test_dir_hessian_matches_symbolic_oracle(data, system):
    x = data.draw(_vectors(system.num_vars))
    v = data.draw(_vectors(system.num_vars))
    assert_dir_hessian_matches_oracle(system, x, v)


@functools.lru_cache(maxsize=None)
def _deflated_systems():
    """Non-square polynomial systems: the symbolic augmentation of one
    randomized deflation round at catalog zeros (``deflate_once`` itself
    builds no polynomials)."""
    from snewton.bench import get_entry
    from snewton.lvz import deflate_once

    out = []
    for name in ("running-example", "truncated-sin", "mth191"):
        entry = get_entry(name)
        deflated, y = deflate_once(entry.system, entry.zero, entry.tol, seed=1)
        oracle = AugmentOracle(entry.system, deflated.system.weights, normal=deflated.system.normal)
        out.append((oracle.system, y))
    return tuple(out)


@_PROPERTY
@given(data=st.data(), index=st.integers(0, 2))
def test_dir_hessian_matches_symbolic_oracle_on_deflated_systems(data, index):
    system, y = _deflated_systems()[index]
    assert not system.is_square()
    x = y + data.draw(_vectors(system.num_vars)) / 100
    v = data.draw(_vectors(system.num_vars))
    assert_dir_hessian_matches_oracle(system, x, v)


def dense_terms(system, order):
    """The ``_terms(order)`` with dense exponents, as ``_arrays`` holds them:
    (exponents, coefficients, row ids, row count)."""
    (term, var, exp), coef, pairs, m, _ = system._terms(order)
    row = pairs[::2] >> 1
    expo = np.zeros((len(coef), system.num_vars), dtype=np.int16)
    expo[term, var] = exp
    return expo, coef, row, m


def assert_jacobian_terms_equal_symbolic(system):
    """The Jacobian terms, densified and put in row order, are exactly those
    compiled from the symbolic partials, row i*n + j holding df_i/dx_j: same
    terms, same graded-lex order within each row, same coefficients, same
    dtypes."""
    partials = PolySystem(d for row in symbolic_jacobian(system) for d in row)
    expo, coef, row, m = dense_terms(system, 1)
    order = np.argsort(row, kind="stable")
    got, want = (expo[order], coef[order], row[order], m), partials._arrays
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@_PROPERTY
@given(system=_random_systems())
def test_jacobian_terms_equal_symbolic_partials(system):
    assert_jacobian_terms_equal_symbolic(system)


def test_jacobian_terms_equal_symbolic_partials_on_catalog_and_deflated_systems():
    from snewton.bench import catalog, random_variant

    systems = [e.system for e in catalog()]
    systems.append(random_variant(8, 3, seed=2)[0])
    systems += [system for system, _ in _deflated_systems()]
    for system in systems:
        assert_jacobian_terms_equal_symbolic(system)


def test_dir_hessian_builds_no_polynomials(monkeypatch):
    system = parse_system(RUNNING, XYZ)
    built = []
    for cls in (Poly, PolySystem):
        real_init = cls.__init__

        def counting_init(self, *args, _real=real_init, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    system.jacobian([1.1, 0.9, 1.0])  # the first call builds the term arrays
    dir_hessian(system, [1.1, 0.9, 1.0], [0.5, -0.5j, 0.0])
    assert built == []
    symbolic_dir_hessian(system, [1.1, 0.9, 1.0], [0.5, -0.5j, 0.0])
    assert "Poly" in built and "PolySystem" in built  # the counter does count


def test_derivatives_keep_no_dense_exponents():
    """After eval, jacobian, dir_hessian and a k = 2 directional derivative,
    the system caches no 2-D array: the exponents are kept once, in the term
    arrays, and every derived term set as factor lists."""
    from snewton.bench import random_variant

    system, zero = random_variant(12, 2, seed=3)
    v = np.ones(12)
    system.eval(zero)
    system.jacobian(zero)
    dir_hessian(system, zero, v)
    system.directional_derivative(zero, [v, v])

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    assert system._cache
    assert not [a for a in arrays(tuple(system._cache.values())) if a.ndim > 1]


# -- the dense evaluator as the oracle of the factor index ----------------------


def dense_monomials(expo, x):
    """Oracle: each term's monomial from a loop over all exponent columns,
    multiplying by x_j^e in ascending j (by 1 where e = 0).  Each product is
    a new array with the running product first: numpy rounds an in-place
    product the same way, except for a one-element array, which it rounds
    without fused multiply-add."""
    out = np.ones(expo.shape[0], dtype=complex)
    for j in range(expo.shape[1]):
        col = expo[:, j]
        top = int(col.max(initial=0))
        if top == 0:
            continue
        powers = x[j] ** np.arange(top + 1)
        out = np.multiply(out, powers[col])
    return out


def dense_values(terms, x):
    expo, coef, row, m = terms
    return segment_sums(np.multiply(coef, dense_monomials(expo, x)), row, m)


def partial_terms(expo, coef, row, k):
    """Oracle: the terms of d/dx_k of the dense terms (expo, coef) with row
    ids ``row``: those with a positive exponent of x_k, that exponent
    decremented and multiplied into the coefficient, in the same order."""
    e = expo[:, k]
    mask = e > 0
    d = expo[mask]
    d[:, k] -= 1
    return d, coef[mask] * e[mask], row[mask]


def dense_dir_hessian(system, x, v):
    """Oracle: the dense Jacobian terms differentiated along each x_k with
    v_k != 0 on every call, weighted by v_k, concatenated in ascending k."""
    expo, coef, row, m = dense_terms(system, 1)
    parts = [(expo[:0], coef[:0], row[:0])]
    for k in np.flatnonzero(v):
        d, c, r = partial_terms(expo, coef, row, k)
        parts.append((d, c * v[k], r))
    expo, coef, row = (np.concatenate(a) for a in zip(*parts))
    return dense_values((expo, coef, row, m), x).reshape(len(system), system.num_vars)


def dense_poly_eval(p, x):
    """Oracle: the terms' values in graded-lex order, added one by one."""
    order = sorted(p.terms, key=grlex_key)
    expo = np.array(order, dtype=np.int16).reshape(len(order), p.num_vars)
    coef = np.array([p.terms[a] for a in order], dtype=complex)
    total = 0j
    for value in np.multiply(coef, dense_monomials(expo, x)):
        total += value
    return total


def assert_evaluators_match_dense(system, x, v):
    """eval, jacobian, dir_hessian and Poly.eval equal the dense loop bit
    for bit."""
    x, v = np.asarray(x, dtype=complex), np.asarray(v, dtype=complex)
    pairs = [
        (system.eval(x), dense_values(system._arrays, x)),
        (system.jacobian(x), dense_values(dense_terms(system, 1), x).reshape(len(system), -1)),
        (dir_hessian(system, x, v), dense_dir_hessian(system, x, v)),
    ]
    pairs += [(np.complex128(p.eval(x)), np.complex128(dense_poly_eval(p, x))) for p in system]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes(), (got, want)


@st.composite
def _sparse_systems(draw):
    """Square and non-square systems in 1-9 variables whose terms have up to
    n factors, with zero and constant rows."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.sampled_from([0, 0, 0, 1, 1, 2, 3])] * n)
    rows = st.one_of(
        st.dictionaries(exponents, _COMPLEX, max_size=8),
        st.builds(lambda c: {(0,) * n: c}, _COMPLEX),  # a constant row
    )
    return PolySystem(Poly(n, draw(rows)) for _ in range(m))


@_PROPERTY
@given(data=st.data(), system=_sparse_systems())
def test_evaluators_match_the_dense_loop(data, system):
    n = system.num_vars
    assert_evaluators_match_dense(system, data.draw(_vectors(n)), data.draw(_vectors(n)))


@_PROPERTY
@given(data=st.data(), index=st.integers(0, 2))
def test_evaluators_match_the_dense_loop_on_deflated_systems(data, index):
    system, y = _deflated_systems()[index]
    x = y + data.draw(_vectors(system.num_vars)) / 100
    assert_evaluators_match_dense(system, x, data.draw(_vectors(system.num_vars)))


def test_evaluators_match_the_dense_loop_on_catalog_and_variants():
    from snewton.bench import catalog, random_variant

    cases = [(e.system, e.zero) for e in catalog()]  # Cyclic9 has terms of 9 factors
    cases += [random_variant(n, k, seed=n + k) for n, k in ((10, 1), (20, 3), (30, 2))]
    # a monomial, a zero and a constant row
    rows = [parse_poly("x*y*z", XYZ), Poly.zero(3), Poly.constant(3, 2j)]
    cases.append((PolySystem(rows), np.array([0.5 - 1j, 0j, 3.0])))
    rng = np.random.default_rng(41)
    for system, zero in cases:
        n = system.num_vars
        x = zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_evaluators_match_dense(system, x, v)
        v[::2] = 0
        assert_evaluators_match_dense(system, zero, v)


def test_a_row_evaluates_alone_as_in_its_system():
    """A row's f, Df and D^2f.v have the same bits in a system of any size:
    past 16 384 terms numpy reuses a temporary operand of a product, which
    must not swap the operands (the fused complex product is not
    symmetric)."""
    from snewton.bench import random_variant

    system, zero = random_variant(100, 2, seed=0)
    expo, coef, row, m = system._arrays
    assert len(coef) > 16384
    rng = np.random.default_rng(47)
    x = zero + 1e-3 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    f, jac, h = system.eval(x), system.jacobian(x), dir_hessian(system, x, v)
    for i in range(m):
        mine = row == i
        alone = system_from_terms(expo[mine], coef[mine], np.zeros(mine.sum(), dtype=int), 1)
        assert alone.eval(x).tobytes() == f[i : i + 1].tobytes(), i
        assert alone.jacobian(x).tobytes() == jac[i : i + 1].tobytes(), i
        assert dir_hessian(alone, x, v).tobytes() == h[i : i + 1].tobytes(), i


def test_public_values_are_fresh_and_writable():
    system = parse_system(RUNNING, XYZ)
    x, v = np.array([1.1, 0.9, 1.0], dtype=complex), np.array([1, 0, 1j])

    def public():
        return system.eval(x), system.jacobian(x), dir_hessian(system, x, v)

    want = [values.copy() for values in public()]
    for values in public():
        assert values.flags.writeable
        values[...] = 0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(public(), want))


def test_a_pass_over_several_orders_has_the_bits_of_one_pass_per_order(evaluation_passes):
    """``_values`` over the orders (0, 1), (1, 2) or (0, 1, 2) makes one
    pass, over its own index, and gives each order the bits of a pass of
    its own on a copy of the system: the catalog, variants n = 6-30 and a
    term set past 16 384 terms, with directions with and without zero
    entries."""
    from snewton.bench import catalog, random_variant

    cases = [(e.system, e.zero) for e in catalog()]
    cases += [random_variant(n, k, seed=n + k) for n in (6, 10, 15, 20, 30) for k in (1, 3)]
    cases.append(random_variant(100, 2, seed=0))
    assert len(cases[-1][0]._terms(1)[1]) > 16384
    rng = np.random.default_rng(67)
    for system, zero in cases:
        n = system.num_vars
        own = system_from_terms(*system._arrays)
        for zeros in (False, True):
            x = zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if zeros:
                v[::2] = 0
            alone = [own._values(x, (order,), v)[0] for order in (0, 1, 2)]
            for orders in ((0, 1), (1, 2), (0, 1, 2)):
                evaluation_passes.clear()
                got = system._values(x, orders, v)
                assert [index is system._index(orders) for index in evaluation_passes] == [True]
                for order, values in zip(orders, got):
                    assert values.shape == alone[order].shape
                    assert values.tobytes() == alone[order].tobytes()


def test_poly_eval_has_the_bits_of_its_row_in_a_system():
    """``Poly.eval`` sums in graded-lex order, as a system's row does, also
    for polynomials long enough that a pairwise sum would round otherwise."""
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = random_poly(rng, 4, degree=4, terms=20)
        assert len(p.terms) >= 9
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.complex128(p.eval(x)).tobytes() == PolySystem([p]).eval(x)[:1].tobytes()


def test_taylor_coefficients_sum_as_two_bincounts(monkeypatch):
    """The Taylor coefficients have the bits of the same terms summed by
    two bincounts over the coefficient ids, one per part."""
    from snewton import polycore
    from snewton.bench import catalog, random_variant

    cases = [(e.system, e.zero, 3) for e in catalog()]
    cases += [(*random_variant(n, 2, seed=n), 2) for n in (10, 20, 30)]
    rng = np.random.default_rng(59)
    for system, zero, order in cases:
        n = system.num_vars
        xi = zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = taylor_coefficients(system, xi, order)
        with monkeypatch.context() as patch:
            patch.setattr(polycore, "_pair_sums", lambda vals, pairs, m: segment_sums(vals, pairs[::2] >> 1, m))
            want = taylor_coefficients(system, xi, order)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_PARTS = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([1e300, -1e300, 9.9e299, 0.0, -0.0, 5e-324, 1.0]),
)


@_PROPERTY
@given(data=st.data(), m=st.integers(1, 6), count=st.integers(0, 24))
def test_pair_sums_equal_two_bincounts(data, m, count):
    """One bincount over the pair ids sums as the two over the row ids do,
    bit for bit: rows without terms, signed zeros and parts near 1e300
    (sums stay finite)."""
    row = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=count, max_size=count)))
    parts = data.draw(st.lists(_PARTS, min_size=2 * count, max_size=2 * count))
    vals = np.array(parts, dtype=float).view(complex)
    got = _pair_sums(vals, _pair_ids(row.astype(np.int64)), m)
    want = segment_sums(vals, row.astype(np.int64), m)
    assert got.shape == (m,) and got.tobytes() == want.tobytes()


def test_system_from_terms_seeds_the_compiled_term_arrays():
    """The term arrays, built without a ``Poly``, equal those compiled from
    the polynomials, whatever the input order, and zero coefficients are
    dropped."""
    from snewton.bench import catalog, get_entry

    rng = np.random.default_rng(43)
    entry = get_entry("x2-z3xy-y2")
    eye = np.eye(3)
    structured = AugmentOracle(entry.system, eye[:, :1], pinned=eye[:, 1:] @ [0.5, -1j]).system
    sources = [e.system for e in catalog()] + [s for s, _ in _deflated_systems()] + [structured]
    systems = []
    for source in sources:
        expo, coef, row, m = source._arrays
        order = rng.permutation(len(coef))
        unused = np.zeros((1, expo.shape[1]), dtype=expo.dtype)
        unused[0, 0] = 99  # a term with a zero coefficient, to be dropped
        expo = np.vstack([expo[order], unused]).astype(np.int64)
        coef, row = np.append(coef[order], 0), np.append(row[order], m - 1)
        systems.append((system_from_terms(expo, coef, row, m), source))
    for system, source in systems:
        assert system._polys is None
        got, want = system._arrays, PolySystem(system.polys)._arrays
        assert got[3] == want[3]
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert system == source


def assert_arrays_identical(got, want):
    assert got[3] == want[3]
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_terms_in_canonical_order_skip_the_sort(count_calls):
    """Input already in canonical order is stored without ``np.lexsort``,
    input out of order is sorted, and both give the arrays of the lexsort
    oracle: the catalog, reversed and in order; parsed rows whose terms are
    out of order; variants n = 10-200, which ``compose_affine`` emits in
    order."""
    from snewton.bench import catalog, random_variant

    sources = [e.system for e in catalog()]
    sorts = count_calls(np, "lexsort")
    for source in sources:
        expo, coef, row, m = source._arrays
        assert_arrays_identical(system_from_terms(expo, coef, row, m)._arrays, source._arrays)
        assert len(sorts) == 0
        order = np.arange(len(coef))[::-1]
        backwards = expo[order].astype(np.int64), coef[order], row[order], m
        got = system_from_terms(*backwards)._arrays
        assert len(sorts) == 1
        assert_arrays_identical(got, lexsorted_arrays(*backwards))
        sorts.clear()
    parsed = parse_system("y^2 + x*y + 3 - x\n2i - x^3*y + x + y*x^2", ["x", "y"])
    assert len(sorts) == 1
    terms = [(i, a, c) for i, p in enumerate(parsed.polys) for a, c in p.terms.items()]
    raw = [np.array(part) for part in zip(*terms)]
    assert_arrays_identical(parsed._arrays, lexsorted_arrays(raw[1], raw[2], raw[0], 2))
    sorts.clear()
    for n in (10, 20, 50, 100, 200):
        system, _ = random_variant(n, 2, seed=n)
        assert len(sorts) == 0
        assert_arrays_identical(system._arrays, lexsorted_arrays(*system._arrays))
        sorts.clear()


@_PROPERTY
@given(data=st.data(), n=st.integers(1, 4), count=st.integers(0, 12))
def test_in_order_agrees_with_lexsort(data, n, count):
    """``_in_order`` is true exactly when the lexsort of the keys is the
    identity, for distinct (row, exponent) keys in any order, in order or
    near it."""
    keys = st.tuples(st.integers(0, 2), st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple))
    terms = data.draw(st.lists(keys, min_size=count, max_size=count, unique=True))
    if data.draw(st.booleans()):
        terms.sort(key=lambda t: (t[0], sum(t[1]), t[1]))
        if len(terms) > 1 and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(terms) - 2))
            terms[i], terms[i + 1] = terms[i + 1], terms[i]
    row = np.array([r for r, _ in terms], dtype=np.int64)
    expo = np.array([a for _, a in terms], dtype=np.int16).reshape(-1, n)
    degree = expo.sum(axis=1)
    want = np.array_equal(np.lexsort((*expo.T[::-1], degree, row)), np.arange(len(terms)))
    assert _in_order(expo, degree, row) == want


@pytest.mark.parametrize(
    "expo, coef, row, message",
    [
        ([[1, -1]], [1.0], [0], r"negative exponent in multi-index \(1, -1\)"),
        ([[0, MAX_EXPONENT + 1]], [1.0], [0], r"multi-index \(0, 32768\) exceeds 32767"),
        ([[2, 0]], [np.nan], [0], r"coefficient of \(2, 0\) is not finite"),
        ([[2, 0]], [complex(1, np.inf)], [0], r"coefficient of \(2, 0\) is not finite"),
        ([[2, 0]], [1.0], [2], r"term 0 has row 2, expected 0..1"),
        ([[2, 0]], [1.0], [-1], r"term 0 has row -1, expected 0..1"),
        (np.zeros((1, 0), dtype=int), [1.0], [0], "at least one variable"),
        ([2, 0], [1.0], [0], r"shapes \(2,\), \(1,\) and \(1,\), expected \(terms, variables\)"),
        ([[2, 0]], [1.0, 2.0], [0], r"shapes \(1, 2\), \(2,\) and \(1,\)"),
        ([[2, 0]], [1.0], [0, 1], r"shapes \(1, 2\), \(1,\) and \(2,\)"),
        ([[2, 0]], [[1.0]], [0], r"shapes \(1, 2\), \(1, 1\) and \(1,\)"),
    ],
)
def test_system_from_terms_rejects_bad_arrays(expo, coef, row, message):
    with pytest.raises(ValueError, match=message):
        system_from_terms(np.array(expo), np.array(coef), np.array(row), 2)


def test_system_from_terms_rejects_what_poly_rejects():
    """Each bad term raises the message ``Poly`` raises for it."""
    for alpha, c in [((1, -1), 1.0), ((0, MAX_EXPONENT + 1), 1.0), ((2, 0), np.inf)]:
        with pytest.raises(ValueError) as direct:
            Poly(2, {alpha: c})
        with pytest.raises(ValueError) as from_terms:
            system_from_terms(np.array([alpha]), np.array([c]), np.array([0]), 1)
        assert str(from_terms.value) == str(direct.value)


def test_system_from_terms_equals_the_checked_construction():
    """The polynomial view of a system built from term arrays equals the
    polynomials it was compiled from: same keys and value types."""
    from snewton.bench import catalog, random_variant

    sources = [e.system for e in catalog()] + [random_variant(12, 3, seed=5)[0]]
    for source in sources:
        system = system_from_terms(*source._arrays)
        rebuilt = PolySystem(Poly(p.num_vars, p.terms) for p in system)
        assert system == rebuilt == source
        for p in system:
            assert all(type(e) is int for alpha in p.terms for e in alpha)
            assert all(type(c) is complex and c != 0 for c in p.terms.values())


def test_system_from_terms_rejects_a_repeated_term():
    with pytest.raises(ValueError, match=r"^row 0 has two terms with exponent \(1,\)$"):
        system_from_terms(np.array([[1], [1]]), np.array([1, 2]), np.array([0, 0]), 1)
    # out of canonical order, the first repeat in that order is named
    expo = np.array([[0, 2], [1, 0], [0, 2], [1, 0], [1, 0]])
    with pytest.raises(ValueError, match=r"^row 0 has two terms with exponent \(1, 0\)$"):
        system_from_terms(expo, np.ones(5), np.array([1, 1, 1, 0, 0]), 2)
    # one exponent in two rows is no repeat, and a term with coefficient 0 is dropped first
    system = system_from_terms(expo[:4], np.array([1, 1, 0, 2]), np.array([1, 0, 1, 1]), 2)
    assert system == parse_system("x\ny^2 + 2*x", ["x", "y"])


def test_system_from_terms_needs_a_row():
    for m in (0, -1):
        with pytest.raises(ValueError, match="a system needs at least one polynomial"):
            system_from_terms(np.zeros((0, 2), dtype=int), np.zeros(0), np.zeros(0, dtype=int), m)


def test_constructions_of_one_system_are_equal_and_hash_equal():
    """Parsed, built from term arrays and composed with the identity map, the
    same system compares and hashes equal, also when a coefficient differs
    only in the sign of a zero imaginary part."""
    parsed = parse_system("x^2 - 2*x*y + 3\ny - 0.5", ["x", "y"])
    expo, coef, row, m = parsed._arrays
    negated_zero = coef.copy()
    negated_zero.imag = -0.0
    assert negated_zero.tobytes() != coef.tobytes()
    systems = [
        parsed,
        system_from_terms(expo, coef, row, m),
        system_from_terms(expo[::-1], negated_zero[::-1], row[::-1], m),
        compose_affine(parsed, np.eye(2), [0.0, 0.0]),
        PolySystem(Poly(2, p.terms) for p in parsed),
    ]
    for system in systems:
        assert system == parsed and hash(system) == hash(parsed)
    assert parsed != parse_system("x^2 - 2*x*y + 3\ny - 0.25", ["x", "y"])
    assert parsed != parse_system("x^2 - 2*x*y + 3\ny - 0.5\n0", ["x", "y"])


def test_analysis_builds_no_poly(count_calls):
    """A variant is built, refined, deflated, solved by Gauss-Newton and
    analysed from its term arrays alone: no ``Poly`` is made."""
    from snewton.bench import random_variant, variant_rank_tolerance
    from snewton.dualspace import is_deflation_one, multiplicity_structure
    from snewton.lvz import deflate_once, gauss_newton
    from snewton.twostep import StepConfig, refine

    built = count_calls(Poly, "__init__")
    system, zero = random_variant(8, 2, seed=1)
    tol = variant_rank_tolerance(system, zero, 2)
    start = zero + 1e-3
    assert refine(system, start, StepConfig(tol=tol)).stop_reason == "residual"
    deflated, y = deflate_once(system, start, tol, seed=1)
    assert gauss_newton(deflated.system, y, max_iter=5).converged
    assert multiplicity_structure(system, zero).multiplicity == 4
    assert is_deflation_one(system, zero)
    assert built == []
    assert len(system.polys) == 8 and len(built) == 8  # the counter does count


# -- normalized partials and functionals --------------------------------------


def test_normalized_partial_trivial_values():
    x2 = parse_poly("x^2", ["x", "y"])
    xy = parse_poly("x*y", ["x", "y"])
    assert normalized_partial(x2, (2, 0), [0, 0]) == 1
    assert normalized_partial(xy, (1, 1), [0, 0]) == 1
    assert normalized_partial(xy, (2, 0), [0, 0]) == 0


def shifted_taylor_coefficient(p, alpha, xi):
    """Oracle: expand p(xi + h) by binomials, read the h^alpha coefficient."""
    total = 0j
    for beta, c in p.terms.items():
        if any(b < a for a, b in zip(alpha, beta)):
            continue
        term = c
        for a, b, z in zip(alpha, beta, xi):
            term *= math.comb(b, a) * z ** (b - a)
        total += term
    return total


def test_apply_functional_matches_taylor_shift():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_poly(rng, 2, degree=3, terms=6)
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha = tuple(int(a) for a in rng.integers(0, 2, size=2))
        lam = {alpha: 1.0}
        expected = shifted_taylor_coefficient(p, alpha, xi)
        assert abs(apply_functional(lam, p, xi) - expected) <= 1e-12 * (1 + abs(expected))


def assert_taylor_matches_normalized_partial(system, xi, order):
    """Each shifted coefficient equals ``normalized_partial`` to 1e-13
    relative to the same coefficient of the moduli (|c| at |xi|)."""
    n = system.num_vars
    monomials = monomials_upto(n, order)
    coeffs = taylor_coefficients(system, xi, order)
    assert coeffs.shape == (len(system), len(monomials))
    for p, row in zip(system.polys, coeffs):
        moduli = Poly(n, {beta: abs(c) for beta, c in p.terms.items()})
        for alpha, got in zip(monomials, row):
            want = normalized_partial(p, alpha, xi)
            scale = abs(normalized_partial(moduli, alpha, np.abs(xi)))
            assert abs(got - want) <= 1e-13 * scale, (alpha, got, want)


@_PROPERTY
@given(data=st.data(), system=_random_systems(), order=st.integers(0, 5))
def test_taylor_coefficients_match_normalized_partial(data, system, order):
    xi = data.draw(_vectors(system.num_vars))
    assert_taylor_matches_normalized_partial(system, xi, order)


def test_taylor_coefficients_match_normalized_partial_at_catalog_zeros():
    from snewton.bench import catalog, random_variant

    cases = [(e.system, e.zero, 3 if e.system.num_vars <= 4 else 2) for e in catalog()]
    cases.append((*random_variant(6, 3, seed=0), 4))
    for system, zero, order in cases:
        assert_taylor_matches_normalized_partial(system, zero, order)


def test_taylor_coefficients_hand_values():
    p = parse_poly("x^2*y + 3", ["x", "y"])
    # p(1 + h, 2 + g) = 5 + 4h + g + 2h^2 + 2hg + h^2 g
    coeffs = taylor_coefficients(PolySystem([p]), [1, 2], 3)
    want = {(0, 0): 5, (1, 0): 4, (0, 1): 1, (2, 0): 2, (1, 1): 2, (2, 1): 1}
    for alpha, c in zip(monomials_upto(2, 3), coeffs[0]):
        assert c == want.get(alpha, 0), alpha


def assert_shift_is_the_loops(system, xi, orders):
    """The compiled shift has the bytes of the loop over the variables, on
    a fresh system and on the one that already holds its plans."""
    fresh = system_from_terms(*system._arrays)
    for order in orders:
        want = looped_taylor_shift(system, xi, order)
        for got in (taylor_coefficients(system, xi, order), taylor_coefficients(fresh, xi, order)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), order
        fresh = system_from_terms(*system._arrays)


def test_taylor_shift_has_the_bits_of_the_loop_at_catalog_zeros_and_near_them():
    from snewton.bench import catalog

    rng = np.random.default_rng(61)
    for entry in catalog():
        system, zero = entry.system, entry.zero
        near = zero + 1e-3 * (rng.standard_normal(len(zero)) + 1j * rng.standard_normal(len(zero)))
        for xi in (zero, near):
            assert_shift_is_the_loops(system, xi, range(system.degree() + 3))


def test_taylor_shift_has_the_bits_of_the_loop_on_random_variants():
    from snewton.bench import random_variant

    rng = np.random.default_rng(67)
    for n in range(3, 13):
        for kappa in (1, 2, 3):
            system, zero = random_variant(n, kappa, seed=n + 100 * kappa)
            near = zero + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for xi in (zero, near):
                assert_shift_is_the_loops(system, xi, range(system.degree() + 3))


@_PROPERTY
@given(data=st.data(), system=_random_systems())
def test_taylor_shift_has_the_bits_of_the_loop_on_random_systems(data, system):
    xi = data.draw(_vectors(system.num_vars))
    assert_shift_is_the_loops(system, xi, range(system.degree() + 3))


def test_taylor_shift_plan_holds_nothing_of_the_point():
    from snewton.bench import get_entry, random_variant

    rng = np.random.default_rng(71)
    cases = [(get_entry(name).system, 3) for name in ("Caprasse", "cbms2", "Cyclic9")]
    cases += [(random_variant(8, 2, seed=3)[0], 2)]
    for system, order in cases:
        n = system.num_vars
        xi_a, xi_b = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / 2
        taylor_coefficients(system, xi_a, order)
        warm = taylor_coefficients(system, xi_b, order)
        assert warm.tobytes() == taylor_coefficients(system_from_terms(*system._arrays), xi_b, order).tobytes()
        plans = {key: plan for key, plan in system._cache.items() if key[0] == "shift"}
        assert list(plans) == [("shift", order)]
        for part in plans[("shift", order)][:-1]:
            assert isinstance(part, np.ndarray) and not part.flags.writeable


def test_orders_above_the_degree_share_the_plan_of_the_degree():
    from snewton.bench import get_entry

    system, zero = get_entry("Caprasse").system, get_entry("Caprasse").zero
    deg, n = system.degree(), system.num_vars
    full = taylor_coefficients(system, zero, deg)
    for order in (deg + 1, deg + 4):
        shift = taylor_coefficients(system, zero, order)
        assert shift.shape == (len(system), math.comb(n + order, n))
        assert shift[:, : full.shape[1]].tobytes() == full.tobytes() and not shift[:, full.shape[1] :].any()
    assert [key for key in system._cache if key[0] == "shift"] == [("shift", deg)]


def test_taylor_binomials_do_not_wrap():
    # C(300, 12) = 8.88e20 is past int64; rounded once to float, as in
    # normalized_partial
    p = parse_poly("x^300", ["x"])
    got = taylor_coefficients(PolySystem([p]), [1.0], 12)[0, 12]
    assert got == normalized_partial(p, (12,), [1.0]) == float(math.comb(300, 12))
    top = parse_system(f"x^{MAX_EXPONENT}", ["x"])
    want = [float(math.comb(MAX_EXPONENT, a)) for a in range(3)]
    assert taylor_coefficients(top, [1.0], 2)[0].tolist() == want


def test_taylor_tables_grow_with_the_exponent_and_the_order_only():
    import tracemalloc

    system = parse_system("x^3000", ["x"])
    tracemalloc.start()
    try:
        coeffs = taylor_coefficients(system, [1.0 + 1e-4j], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak
    assert coeffs.tobytes() == looped_taylor_shift(system, [1.0 + 1e-4j], 2).tobytes()


def test_power_tables_are_sized_by_each_variables_own_exponent():
    import tracemalloc

    names = [f"x{i}" for i in range(1, 101)]
    system = parse_system(f"x1^{MAX_EXPONENT} + x2*x3\nx100^2", names)
    xi = np.full(100, 1.0 + 0j)
    taylor_coefficients(system, xi, 2)
    owner = system._cache[("shift", 2)][0]
    assert len(owner) == (MAX_EXPONENT + 1) + 2 + 2 + 96 + 3  # h_j + 1 powers of each x_j
    tracemalloc.start()
    try:
        coeffs = taylor_coefficients(system, xi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.18 MB measured: xi_j^e for the h_j + 1 exponents of each x_j, and the point gathered for
    # them; one table of all n * (h + 1) powers would take 52 MB, and a complex copy of the
    # binomials per shift took 1.4 MB more
    assert peak < 1.2e6, peak
    monomials = monomials_upto(100, 2)
    for alpha in [(0,) * 100, (2,) + (0,) * 99, (0, 1, 1) + (0,) * 97, (0,) * 99 + (1,)]:
        r = monomials.index(alpha)
        assert coeffs[:, r].tolist() == [normalized_partial(p, alpha, xi) for p in system]


def test_monomials_of_a_high_order_from_an_empty_memo():
    # built in a loop, not by one call per lower order
    _grlex_memo.cache_clear()
    assert monomials_upto(1, 1500) == [(k,) for k in range(1501)]
    assert monomials_upto(1, 700) == [(k,) for k in range(701)]
    assert monomials_upto(2, 2)[-3:] == [(0, 2), (1, 1), (2, 0)]


def test_grlex_tables_of_a_large_order_are_arrays_only():
    """_grlex(100, 3) holds its 176 851 exponent rows once, as int64: no
    tuple view (which took as much again), and a peak within twice the rows."""
    import tracemalloc

    _grlex_memo.cache_clear()
    tracemalloc.start()
    try:
        expo, up, last = _grlex(100, 3)
        peak = tracemalloc.get_traced_memory()[1]
        tables = list(_grlex_memo(100).values())
    finally:
        tracemalloc.stop()
        _grlex_memo.cache_clear()
    assert expo.shape == (176851, 100) and up.shape == (100, 5151) and last.shape == (176851,)
    assert all(isinstance(a, np.ndarray) for table in tables for a in table)
    assert peak < 250e6, f"peak {peak / 1e6:.0f} MB"


def test_taylor_coefficients_reject_negative_orders():
    with pytest.raises(ValueError, match="order must be at least 0, got -1"):
        taylor_coefficients(parse_system(RUNNING, XYZ), [1, 1, 1], -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_poly_eval_rejects_non_finite_points(bad):
    p = parse_poly("x^2 + y", ["x", "y"])
    with pytest.raises(ValueError, match="coordinate 1 is not finite"):
        p.eval([bad, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_normalized_partial_rejects_non_finite_points(bad):
    p = parse_poly("x^2 + y", ["x", "y"])
    with pytest.raises(ValueError, match="coordinate 2 is not finite"):
        normalized_partial(p, (1, 0), [1, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_apply_functional_rejects_non_finite_points(bad):
    p = parse_poly("x^2 + y", ["x", "y"])
    with pytest.raises(ValueError, match="coordinate 1 is not finite"):
        apply_functional({(1, 0): 1.0, (0, 1): 2.0}, p, [bad, 1])


def test_order_zero_functional_reproduces_eval():
    rng = np.random.default_rng(29)
    p = random_poly(rng, 3)
    xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert abs(apply_functional({(0, 0, 0): 1.0}, p, xi) - p.eval(xi)) < 1e-12 * (1 + abs(p.eval(xi)))


def test_degree_is_summed_once_and_kept():
    """Building a system keeps its degree, the largest of the exponent sums
    that ordering the terms makes; ``degree()``, such as each Taylor shift's,
    reads it."""
    system = parse_system(RUNNING, XYZ)
    assert system._cache["degree"] == 2
    system._cache["degree"] = 7  # a kept value that the exponents do not give
    assert system.degree() == 7


def test_degree_skips_terms_with_coefficient_zero():
    """A row whose top-degree term has coefficient 0 is of the degree of its
    kept terms, whichever path stores the terms."""
    expo, coef, row = np.array([[0, 1], [5, 0], [2, 1]]), np.array([1, 0, 2]), np.array([0, 0, 1])
    assert system_from_terms(expo, coef, row, 2).degree() == 3  # in canonical order
    assert system_from_terms(expo[::-1], coef[::-1], row[::-1], 2).degree() == 3  # sorted
    assert system_from_terms(expo[:2], coef[:2], row[:2], 2).degree() == 1
    assert system_from_terms(expo[1:2], coef[1:2], row[1:2], 1).degree() == 0  # the zero system


# -- affine composition --------------------------------------------------------


def random_map(rng, n):
    """A complex Gaussian matrix A and offset b."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def cubic_template(n, k):
    """[x_1^3, ..., x_k^3, x_{k+1}, ..., x_n]."""
    return system_from_terms(np.diag(1 + 2 * (np.arange(n) < k)), np.ones(n), np.arange(n), n)


def assert_composes(composed, system, a, b, rng, oracle=None, rel=1e-12):
    """At random points x, ``composed`` evaluates as f(A(x - b)) and as the
    ``oracle`` system, if one is given, within ``rel`` of the moduli of f's
    coefficients at |A|(|x| + |b|), which bound every product either sums."""
    n = system.num_vars
    for _ in range(3):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = np.linalg.norm(magnitudes(system).eval(np.abs(a) @ (np.abs(x) + np.abs(b))))
        got = composed.eval(x)
        for want in [system.eval(a @ (x - b))] + ([] if oracle is None else [oracle.eval(x)]):
            assert np.linalg.norm(got - want) <= rel * scale


def test_compose_affine_identity():
    system = parse_system(RUNNING, XYZ)
    assert compose_affine(system, np.eye(3), np.zeros(3)) == system


def test_compose_affine_evaluation_commutes():
    rng = np.random.default_rng(31)
    system = parse_system(RUNNING, XYZ)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    composed = compose_affine(system, a, b)
    for _ in range(10):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        direct = system.eval(a @ (x - b))
        err = np.linalg.norm(composed.eval(x) - direct)
        assert err <= 1e-12 * (1 + np.linalg.norm(direct))


def test_compose_affine_matches_the_symbolic_composition_on_the_catalog():
    """Each catalog system composed with the identity map is itself, and with
    a random map evaluates as the symbolic composition.  Cyclic9, which the
    symbolic composition takes seconds to expand, is checked by evaluation."""
    from snewton.bench import catalog

    rng = np.random.default_rng(41)
    for entry in catalog():
        system, n = entry.system, entry.system.num_vars
        assert compose_affine(system, np.eye(n), np.zeros(n)) == system, entry.name
        a, b = random_map(rng, n)
        oracle = None if entry.name == "Cyclic9" else symbolic_compose_affine(system, a, b)
        assert_composes(compose_affine(system, a, b), system, a, b, rng, oracle)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_compose_affine_matches_the_symbolic_composition_on_cubic_templates(n):
    rng = np.random.default_rng(43 + n)
    for k in range(1, min(n, 3) + 1):
        template = cubic_template(n, k)
        assert compose_affine(template, np.eye(n), np.zeros(n)) == template
        a, b = random_map(rng, n)
        composed = compose_affine(template, a, b)
        assert composed.degree() == 3 and len(composed) == n
        assert_composes(composed, template, a, b, rng, symbolic_compose_affine(template, a, b))


def test_compose_affine_of_non_square_zero_and_constant_rows():
    """Rows past the variable count, a zero row and a constant row: the zero
    row stays zero and the constant row keeps its coefficient exactly."""
    rng = np.random.default_rng(47)
    rows = "x^3*y - 2*i*y^2 + 1\nx*y\n(0.5-1i)*y^4 - x\nx^2 + y^2 - 3"
    expo = np.array([[2, 1], [0, 0], [0, 1]])
    coef = np.array([1.5, 2 - 1j, -1])
    sparse = system_from_terms(expo, coef, np.array([0, 2, 3]), 4)
    for system in (parse_system(rows, ["x", "y"]), sparse):
        assert compose_affine(system, np.eye(2), np.zeros(2)) == system
        a, b = random_map(rng, 2)
        composed = compose_affine(system, a, b)
        assert_composes(composed, system, a, b, rng, symbolic_compose_affine(system, a, b))
    assert composed[1].is_zero()
    assert composed[2].terms == {(0, 0): 2 - 1j}


def test_compose_affine_builds_no_poly(count_calls):
    system = system_from_terms(*parse_system(RUNNING, XYZ)._arrays)
    built = count_calls(Poly, "__init__")
    composed = compose_affine(system, 2 * np.eye(3), np.ones(3))
    assert built == []
    # small integer coefficients: both expansions are exact
    assert composed == symbolic_compose_affine(system, 2 * np.eye(3), np.ones(3))


def test_compose_affine_preserves_degree_and_corank():
    from snewton.bench import template_system

    rng = np.random.default_rng(37)
    n, k = 5, 3
    template = template_system(n, k)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    composed = compose_affine(template, a, b)
    assert composed.degree() == template.degree()
    sigma = np.linalg.svd(composed.jacobian(b), compute_uv=False)
    assert np.sum(sigma < 1e-10 * (1 + sigma[0])) == k
    assert np.linalg.norm(composed.eval(b)) < 1e-12


def test_compose_affine_names_a_non_finite_entry():
    system = parse_system("x^2 + y\nx*y", ["x", "y"])
    with pytest.raises(ValueError, match=r"offset entry 1 is not finite: \(inf\+0j\)"):
        compose_affine(system, np.eye(2), [np.inf, 0])
    a = np.eye(2, dtype=complex)
    a[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"matrix entry \(2, 1\) is not finite"):
        compose_affine(system, a, [0, 0])


@pytest.mark.parametrize(
    "a, b",
    [
        (1e150 * np.eye(2), [0, 0]),  # the cube of x's form, 1e450, overflows
        (np.diag([1e300, 1.0]), [1e300, 0]),  # A b overflows
    ],
)
def test_compose_affine_overflow_is_an_error(a, b):
    system = parse_system("x^3\ny", ["x", "y"])
    with pytest.raises(ValueError, match="a coefficient of the composition overflows"):
        compose_affine(system, a, b)


def test_compose_affine_dimension_checks():
    system = parse_system(RUNNING, XYZ)
    with pytest.raises(ValueError):
        compose_affine(system, np.eye(2), np.zeros(3))
