"""The split-step refinement: operators, steps, driver, tolerance picking."""

import ast
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snewton.bench import get_entry, perturbed_start, random_variant, variant_rank_tolerance
from snewton.lvz import AugmentedSystem, deflate_once, deflate_structured, gauss_newton
from snewton.numla import SingularMatrixError, solve, split_svd
from snewton.polycore import PolySystem, parse_system
from snewton.twostep import (
    StepConfig,
    auto_tolerance,
    first_refinement,
    operator_B,
    random_direction,
    refine,
    second_refinement,
    two_step,
)
from snewton.twostep import _iterate, _solve_small

from oracles import (
    SquareRandomization,
    operator_A,
    symbolic_augment,
    symbolic_randomization,
)

XI = np.ones(3, dtype=complex)
V_RAW = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)

# Exact singular-vector blocks of the all-ones Jacobian at the fourfold zero
# of the running example; the kernel is the plane orthogonal to (1,1,1).
S3, S2, S6 = np.sqrt(3.0), np.sqrt(2.0), np.sqrt(6.0)
U2_EXACT = np.array([[S2 / 2, S6 / 6], [0.0, -S6 / 3], [-S2 / 2, S6 / 6]])
V2_EXACT = np.array([[S2 / 2, -S6 / 6], [0.0, S6 / 3], [-S2 / 2, -S6 / 6]])


@pytest.fixture(scope="module")
def running():
    return get_entry("running-example").system


# -- operators -------------------------------------------------------------------


def test_operator_b_golden_value(running):
    b = operator_B(running, XI, V_RAW, U2_EXACT, V2_EXACT)
    expected = np.array([[1.0, -S3], [S3, 1.0]]) / S6
    assert np.linalg.norm(b - expected) < 1e-12


def test_operator_a_golden_value(running):
    a = operator_A(running, XI, V_RAW, V2_EXACT)
    # the Hessian term of the published matrix scales with the direction; the
    # Jacobian term does not
    paper = np.array(
        [[11 / 3, -1 / 3, -1 / 3], [5 / 3, -1 / 3, 5 / 3], [5 / 3, 5 / 3, -1 / 3]]
    )
    expected = np.ones((3, 3)) + (paper - np.ones((3, 3))) / S6
    assert np.linalg.norm(a - expected) < 1e-12


def test_operator_a_equals_jacobian_for_linear_systems():
    system = parse_system("x + y - 1\nx - y", ["x", "y"])
    split = split_svd(system.jacobian([0.2, 0.3]), 1e-8)
    v2 = np.array([[1.0], [0.0]])  # any orthonormal column works: Hessian is 0
    a = operator_A(system, [0.2, 0.3], np.array([1.0, 0.0]), v2)
    assert np.allclose(a, system.jacobian([0.2, 0.3]))


def test_operator_preconditions(running):
    with pytest.raises(ValueError):
        operator_B(running, XI, V_RAW * 2.0, U2_EXACT, V2_EXACT)  # not unit
    outside = np.array([1.0, 0.0, 0.0])  # not in the kernel plane
    with pytest.raises(ValueError):
        operator_B(running, XI, outside, U2_EXACT, V2_EXACT)
    with pytest.raises(ValueError):
        operator_A(running, XI, V_RAW, np.ones((3, 2)))  # not orthonormal


def test_block_identity_at_perturbed_point(running):
    x = XI + np.array([1e-3, -1e-3, 1e-3])
    split = split_svd(running.jacobian(x), 0.1)
    rng = np.random.default_rng(2)
    lam = rng.standard_normal(split.kappa) + 1j * rng.standard_normal(split.kappa)
    v = split.v2 @ lam
    v /= np.linalg.norm(v)
    a = operator_A(running, x, v, split.v2)
    b = operator_B(running, x, v, split.u2, split.v2)
    m = split.u.conj().T @ a @ split.v
    nk = split.n - split.kappa
    assert np.linalg.norm(m[:nk, :nk] - np.diag(split.sigma1)) < 1e-10
    assert np.linalg.norm(m[nk:, :nk]) < 1e-10
    assert np.linalg.norm(m[nk:, nk:] - (np.diag(split.sigma2) + b)) < 1e-10


# -- the two refinement steps -------------------------------------------------------


def test_first_refinement_example_values(running):
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    split = split_svd(running.jacobian(x), 0.1)
    x_prime = first_refinement(running, x, split)
    assert np.linalg.norm(x_prime - [1.000666, 0.998667, 1.000666]) < 1e-5
    # the projection step moves x only along the regular directions
    assert np.linalg.norm(split.v2.conj().T @ (x_prime - x)) < 1e-12


def test_first_refinement_orthogonal_error_case(running):
    x = np.array([1.001, 1.001, 1.001], dtype=complex)
    split = split_svd(running.jacobian(x), 0.1)
    x_prime = first_refinement(running, x, split)
    assert np.linalg.norm(x_prime - XI) < 5e-6  # quadratic already after step one


def test_first_refinement_fixed_point_when_u1_residual_vanishes():
    # for [x^2 - 1, y] at a point with f = 0 the projection step cannot move
    system = parse_system("x^2 - 1\ny", ["x", "y"])
    x = np.array([1.0, 0.0], dtype=complex)
    split = split_svd(system.jacobian(x), 1e-6)
    assert split.kappa == 0 or split.kappa < 2
    x_prime = first_refinement(system, x, split)
    assert np.allclose(x_prime, x)


def test_first_refinement_rejects_kappa_n(running):
    split = split_svd(running.jacobian(XI), 5.0)
    assert split.kappa == 3
    with pytest.raises(ValueError):
        first_refinement(running, XI, split)


@pytest.mark.parametrize(
    "x, message",
    [([np.nan, 1, 1], "point coordinate 1 is not finite"), ([1, 1], "point has 2 coordinates, expected 3")],
)
def test_first_refinement_checks_its_point(running, x, message):
    split = split_svd(running.jacobian([1.001, 0.999, 1.001]), 0.1)
    with pytest.raises(ValueError, match=message):
        first_refinement(running, x, split)


def test_first_refinement_rejects_inconsistent_split(running):
    import dataclasses

    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    split = split_svd(running.jacobian(x), 0.1)
    bogus = dataclasses.replace(split, tol=float(split.sigma1[0]) + 1.0)
    with pytest.raises(ValueError, match="inconsistent"):
        first_refinement(running, x, bogus)


def test_second_refinement_example_values(running):
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    split = split_svd(running.jacobian(x), 0.1)
    x_prime = first_refinement(running, x, split)
    v = split.v2 @ (split.v2.conj().T @ V_RAW)
    v /= np.linalg.norm(v)
    delta, x_second, b_prime = second_refinement(running, x_prime, v, split.u2, split.v2)
    assert np.array_equal(b_prime, operator_B(running, x_prime, v, split.u2, split.v2))
    assert np.linalg.norm(x_second - XI) < 5e-6
    assert abs(np.linalg.norm(delta) - 1.63e-3) < 2e-4
    # the kernel step moves x' only along the kernel directions
    assert np.linalg.norm(split.v1.conj().T @ (x_second - x_prime)) < 1e-12


def test_second_refinement_zero_delta_at_exact_double_zero():
    # [x^2, y]: at the origin U2 Df v vanishes identically, so delta = 0
    system = parse_system("x^2\ny", ["x", "y"])
    split = split_svd(system.jacobian([0.0, 0.0]), 0.5)
    assert split.kappa == 1
    delta, x_second, _ = second_refinement(
        system, np.zeros(2), split.v2[:, 0], split.u2, split.v2
    )
    assert np.linalg.norm(delta) < 1e-14
    assert np.linalg.norm(x_second) < 1e-14


def test_second_refinement_singular_operator_error():
    entry = get_entry("x2-z3xy-y2")  # kernel-step operator singular for every v
    split = split_svd(entry.system.jacobian(entry.zero), entry.tol)
    rng = np.random.default_rng(0)
    lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = split.v2 @ lam
    v /= np.linalg.norm(v)
    with pytest.raises(SingularMatrixError, match="deflation-one"):
        second_refinement(entry.system, entry.zero, v, split.u2, split.v2)


# -- the kappa x kappa solve --------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kappa=st.integers(1, 4), log_cond=st.floats(0, 8), log_scale=st.floats(-5, 5),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_solve_agrees_with_the_svd_solve(kappa, log_cond, log_scale, seed):
    # B' = U diag(s) V* with a 2-norm condition of 10**log_cond, a Gaussian rhs
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.standard_normal((kappa, kappa)) + 1j * rng.standard_normal((kappa, kappa)))[0]
            for _ in range(2))
    s = np.geomspace(1, 10.0**-log_cond, kappa) if kappa > 1 else np.ones(1)
    b = 10.0**log_scale * (u * s) @ v.conj().T
    rhs = rng.standard_normal(kappa) + 1j * rng.standard_normal(kappa)
    delta, oracle = _solve_small(b, rhs), solve(b, rhs)
    # each solve is accurate to about cond * eps, so compare what B' makes of
    # their difference, and the difference itself against the condition
    gap = np.linalg.norm(delta - oracle)
    assert np.linalg.norm(b @ (delta - oracle)) <= 1e-12 * np.linalg.norm(b, 2) * np.linalg.norm(oracle)
    assert gap <= 1e-12 * np.linalg.cond(b) * np.linalg.norm(oracle)


def test_kernel_solve_refuses_at_a_1_norm_condition_of_1e12():
    singular = [[[0]], [[1, 2], [2, 4]], np.zeros((3, 3)), [[1, 1j], [1j, -1]]]
    # exact 1-norm condition numbers ||B'||_1 ||B'^-1||_1 of 1e12 and more
    ill = [np.diag([1, 1e-12]), np.diag([1e-12, 1, 1, 1]), [[1, 1], [0, 1e-12]]]
    for b in singular + ill:
        b = np.asarray(b, dtype=complex)
        with pytest.raises(SingularMatrixError, match="deflation-one"):
            _solve_small(b, np.ones(len(b), dtype=complex))
    delta = _solve_small(np.diag([1, 1e-10]).astype(complex), np.ones(2, dtype=complex))
    assert delta.tolist() == [1, 1e10]
    delta = _solve_small(np.array([[2j]]), np.array([1 + 1j]))
    assert delta.tolist() == [(1 + 1j) / 2j]
    with pytest.raises(ValueError, match=r"solve: matrix entry \(1, 2\) is not finite"):
        _solve_small(np.array([[1, np.nan], [0, 1]], dtype=complex), np.ones(2, dtype=complex))


# -- one full iteration ---------------------------------------------------------------


def test_two_step_example_full_iteration(running):
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    step = two_step(running, x, StepConfig(tol=0.1, v_override=V_RAW))
    assert step.mode == "two-step"
    assert step.kappa == 2
    assert not step.first_step_skipped
    assert np.linalg.norm(step.x_double_prime - XI) < 5e-6
    assert step.residuals["x_double_prime"] < step.residuals["x"]


def test_two_step_regular_zero_takes_newton_step():
    system = parse_system("x - 1\ny - 2", ["x", "y"])
    step = two_step(system, np.array([1.1, 2.1]), StepConfig(tol=1e-6))
    assert step.mode == "newton"
    assert step.kappa == 0
    assert np.linalg.norm(step.x_double_prime - [1, 2]) < 1e-4


def newton_point(system, x):
    """Newton's step through ``numla.solve``, which takes its own SVD of Df:
    the oracle for the corank-0 step."""
    return x - solve(system.jacobian(x), system.eval(x))


def test_corank_zero_step_is_the_newton_step_bit_for_bit():
    # on x - 1, y - 2; on a regular start of a catalog entry (the 1-digit
    # start of the running example, tol 1e-9); on a corank-0 run of a variant
    linear = parse_system("x - 1\ny - 2", ["x", "y"])
    cases = [(linear, np.array([1.1, 2.1], dtype=complex), StepConfig(tol=1e-6))]
    running = get_entry("running-example")
    cases.append((running.system, perturbed_start(running.zero, 1), StepConfig(tol=1e-9)))
    steps = [two_step(system, x, cfg) for system, x, cfg in cases]
    system, zero = random_variant(8, 1, seed=4)
    rng = np.random.default_rng(4)
    x0 = zero + 1e-2 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    trace = refine(system, x0, StepConfig(tol=1e-14, seed=0, max_iters=6))
    iterates = [x0] + [step.x_double_prime for step in trace.steps]
    cases += [(system, x, None) for x in iterates[:-1]]
    steps += trace.steps
    assert len(steps) == 2 + 6
    for (system, x, _), step in zip(cases, steps):
        assert (step.mode, step.kappa) == ("newton", 0)
        assert step.v is step.b_prime is step.delta is None
        assert step.x_prime is step.x_double_prime
        assert step.x_double_prime.tobytes() == newton_point(system, x).tobytes()
        assert step.residuals["x_prime"] == step.residuals["x_double_prime"]


def test_corank_zero_step_refuses_a_near_singular_jacobian():
    # sigma_min / sigma_max = 1e-14 lies above the fixed tolerance, so the
    # split keeps both directions, but the step would divide by 1e-14
    system = parse_system("x - 1\n1e-14*y - 2", ["x", "y"])
    assert split_svd(system.jacobian([0, 0]), 1e-20).kappa == 0
    message = r"singular to working precision \(sigma_min=1\.000e-14"
    with pytest.raises(SingularMatrixError, match=message):
        two_step(system, [0, 0], StepConfig(tol=1e-20))


def test_two_step_corank_n_skips_projection():
    entry = get_entry("truncated-sin")
    x = np.full(3, 1e-4, dtype=complex)
    step = two_step(entry.system, x, StepConfig(tol=0.1, v_override=V_RAW))
    assert step.mode == "kernel-only"
    assert step.first_step_skipped
    assert step.kappa == 3
    assert np.array_equal(step.x_prime, x)
    paper_point = np.array([-3.0019e-8, -3.0019e-8, -3.0018e-8])
    assert np.linalg.norm(step.x_double_prime - paper_point) < 1e-11
    assert np.linalg.norm(step.x_double_prime) < 1e-6


def test_two_step_result_is_direction_scale_invariant(running):
    # delta solves a system that is linear in v on both sides, so the
    # refined point does not depend on the sampled phase or scale
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    a = two_step(running, x, StepConfig(tol=0.1, v_override=V_RAW))
    b = two_step(running, x, StepConfig(tol=0.1, v_override=-(0.3 + 0.4j) * V_RAW))
    assert np.linalg.norm(a.x_double_prime - b.x_double_prime) < 1e-12


def test_two_step_retries_fresh_direction_then_raises():
    entry = get_entry("x2-z3xy-y2")
    with pytest.raises(SingularMatrixError):
        two_step(entry.system, entry.zero, StepConfig(tol=0.1, seed=0))


def test_two_step_v_override_needs_kernel_component(running):
    # at the exact zero the numerical kernel is the exact kernel plane, so a
    # direction orthogonal to it projects to (numerical) zero and is rejected
    bad = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    with pytest.raises(ValueError):
        two_step(running, XI, StepConfig(tol=0.1, v_override=bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_directions_are_rejected(running, bad):
    v = V_RAW.astype(complex)
    v[1] = bad
    with pytest.raises(ValueError, match="direction entry 2 is not finite"):
        operator_B(running, XI, v, U2_EXACT, V2_EXACT)
    cfg = StepConfig(tol=0.1, v_override=v)
    with pytest.raises(ValueError, match="direction entry 2 is not finite"):
        two_step(running, XI + 1e-3, cfg)
    with pytest.raises(ValueError, match="direction entry 2 is not finite"):
        refine(running, XI + 1e-3, cfg)


def test_v_override_of_the_wrong_length_is_rejected(running):
    cfg = StepConfig(tol=0.1, v_override=np.ones(2))
    with pytest.raises(ValueError, match="direction length"):
        refine(running, XI + 1e-3, cfg)


def test_two_step_rejects_non_square(running):
    deflated, y = deflate_once(running, XI + 1e-3, 0.1)
    at_zero, y0 = deflate_once(running, XI, 0.1)  # refine would stop at once
    cases = [(parse_system("x^2\nx\nx - 1", ["x"]), [0.5]), (deflated.system, y), (at_zero.system, y0)]
    for system, x in cases:
        assert not system.is_square()
        for run in (two_step, refine):
            with pytest.raises(ValueError, match="two_step needs a square system"):
                run(system, x, StepConfig(tol=0.1))


def randomized_deflation(system, x0, tol):
    """R.g over g = deflate_once(system, x0, tol), R from default_rng(0), its
    symbolic twin R.symbolic_augment(...), and the augmented start."""
    deflated, y = deflate_once(system, x0, tol)
    g = SquareRandomization(deflated.system, np.random.default_rng(0))
    augmented = symbolic_augment(system, deflated.system.weights, normal=deflated.system.normal)
    return g, symbolic_randomization(augmented, g.r), y


@pytest.mark.parametrize("case", ["x2-z3xy-y2", "variant 5 2 seed 1"])
def test_refine_runs_unchanged_on_a_randomized_deflation(case):
    if case.startswith("variant"):
        system, zero = random_variant(5, 2, seed=1)
        tol = variant_rank_tolerance(system, zero, 2)
    else:
        entry = get_entry(case)
        system, zero, tol = entry.system, entry.zero, entry.tol
    g, symbolic, y = randomized_deflation(system, perturbed_start(zero, 3), tol)
    assert g.is_square() and (len(g), g.num_vars) == (len(symbolic), symbolic.num_vars)
    cfg = StepConfig(tol=1e-2, max_iters=3)
    ours, want = refine(g, y, cfg), refine(symbolic, y, cfg)
    assert ours.iterations == want.iterations == 3
    for a, b in zip(ours.steps, want.steps):
        assert a.kappa == b.kappa
        assert np.linalg.norm(a.x_double_prime - b.x_double_prime) <= 1e-10 * np.linalg.norm(b.x_double_prime)


def test_one_deflation_round_then_the_two_step_reaches_a_depth_five_zero(count_calls):
    # x2-z3xy-y2 is not deflation-one; after one round the two-step takes kappa 1 at every step
    entry = get_entry("x2-z3xy-y2")
    g, _, y = randomized_deflation(entry.system, perturbed_start(entry.zero, 3), entry.tol)
    calls = count_calls(AugmentedSystem, "_values")
    trace = refine(g, y, StepConfig(tol=1e-2))
    assert trace.stop_reason == "residual"
    assert [step.kappa for step in trace.steps] == [1] * trace.iterations
    # one deflation evaluation per pass: g at the start, then per iteration
    # Dg at x, Dg and D^2g.v at x', g at x''
    assert len(calls) == 1 + 3 * trace.iterations
    assert np.linalg.norm(trace.x[:3] - entry.zero) <= 1e-10


def test_two_step_auto_tolerance_on_exactly_singular_jacobian():
    # at the midpoint of the clustered pair the Jacobian vanishes entirely;
    # the auto tolerance path must still classify it as corank n
    from snewton.bench import stability_system

    system = stability_system(3)
    midpoint = np.array([0, 0, -5e-4], dtype=complex)
    step = two_step(system, midpoint, StepConfig(tol="auto", seed=0))
    assert step.mode == "kernel-only"
    assert np.linalg.norm(step.x_double_prime - midpoint) < 1e-15


def test_two_step_contracts_the_hessian_once_per_iteration(running, evaluation_passes, monkeypatch):
    passes = evaluation_passes
    svd_args = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svd_args.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)

    def contractions(system):
        # passes over the D^2f.v terms: alone, or with Df's in one pass
        return sum(index is system._index((2,)) or index is system._index((1, 2)) for index in passes)

    def check_svds(system, x, step):
        # one SVD, of Df(x), the split's: the kappa x kappa B' is solved
        # without one
        assert len(svd_args) == 1
        assert np.array_equal(svd_args[0], system.jacobian(x))
        passes.clear()
        svd_args.clear()

    system = running
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    step = two_step(system, x, StepConfig(tol=0.1, v_override=V_RAW))
    # f and Df at x, Df and D^2f.v at x' in one pass, f at x''
    assert (step.mode, contractions(system), len(passes)) == ("two-step", 1, 4)
    assert passes[2] is system._index((1, 2))
    assert sorted(step.residuals) == ["x", "x_double_prime"]
    check_svds(system, x, step)
    b = operator_B(system, step.x_prime, step.v, step.split.u2, step.split.v2)
    assert np.array_equal(step.b_prime, b)

    passes.clear()
    system = get_entry("truncated-sin").system
    x = np.full(3, 1e-4, dtype=complex)
    step = two_step(system, x, StepConfig(tol=0.1))
    # x' = x: f and Df at x, then D^2f.v at x alone, f at x''
    assert (step.mode, contractions(system), len(passes)) == ("kernel-only", 1, 4)
    assert passes[2] is system._index((2,))
    assert step.residuals["x_prime"] == step.residuals["x"]
    check_svds(system, x, step)

    linear = parse_system("x - 1\ny - 2", ["x", "y"])
    x = np.array([1.1, 2.1], dtype=complex)
    step = two_step(linear, x, StepConfig(tol=1e-6))
    # f and Df at x, f at x' = x''
    assert (step.mode, contractions(linear), len(passes)) == ("newton", 0, 3)
    check_svds(linear, x, step)


def test_exactly_zero_jacobian_gets_one_fallback_tolerance(tmp_path, capsys, monkeypatch):
    # at the midpoint of the clustered pair the Jacobian is exactly zero, so
    # the spectrum has no gap; every "auto" caller must land on the same 1e-8
    import json

    from snewton import cli, dualspace
    from snewton.bench import stability_system

    system = stability_system(3)
    midpoint = np.array([0, 0, -5e-4], dtype=complex)
    assert not system.jacobian(midpoint).any()

    step = two_step(system, midpoint, StepConfig(tol="auto", seed=0))
    assert step.split.tol == 1e-8

    path = tmp_path / "stability.json"
    names = ["x", "y", "z"]
    path.write_text(json.dumps({"vars": names, "polys": system.to_string(names).splitlines()}))
    code = cli.main(["check", "--file", str(path), "--x0", "0,0,-5e-4", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tol"] == 1e-8

    splits = []

    def recording_split(matrix, tol):
        splits.append(split_svd(matrix, tol))
        return splits[-1]

    monkeypatch.setattr(dualspace, "split_svd", recording_split)
    dualspace.is_deflation_one(system, midpoint)
    assert [s.tol for s in splits] == [1e-8]


def test_random_direction_is_a_unit_kernel_vector(running):
    split = split_svd(running.jacobian(XI), 0.1)
    a = random_direction(split.v2, np.random.default_rng(3))
    # the draw two_step and is_deflation_one each made inline before
    rng = np.random.default_rng(3)
    lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.array_equal(a, split.v2 @ lam / np.linalg.norm(split.v2 @ lam))
    assert abs(np.linalg.norm(a) - 1) < 1e-14
    assert np.linalg.norm(a - split.v2 @ (split.v2.conj().T @ a)) < 1e-14


def test_step_config_validation():
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            StepConfig(tol=tol)
    with pytest.raises(ValueError):
        StepConfig(stop_residual=0.0)


def test_step_config_rejects_a_negative_iteration_cap():
    with pytest.raises(ValueError, match="max_iters must be at least 0, got -1"):
        StepConfig(max_iters=-1)
    assert StepConfig(max_iters=0).max_iters == 0


@pytest.mark.parametrize("step", [operator_B, second_refinement])
def test_kernel_operators_at_corank_zero_name_the_function_called(running, step):
    empty = np.zeros((3, 0))
    with pytest.raises(ValueError, match=f"^{step.__name__} needs corank at least 1$"):
        step(running, XI, V_RAW, empty, empty)


# -- tolerance selection ----------------------------------------------------------------


def test_auto_tolerance_gap_cases():
    assert auto_tolerance(np.diag([3.0, 2e-3, 7e-4])) == pytest.approx(
        np.sqrt(3.0 * 2e-3)
    )
    # no usable gap: fall back to half the smallest value (full rank)
    assert auto_tolerance(np.eye(4)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        auto_tolerance(np.zeros((2, 2)))


def test_auto_tolerance_matches_example_spectrum(running):
    jac = running.jacobian(np.array([1.001, 0.999, 1.001]))
    tol = auto_tolerance(jac)
    assert split_svd(jac, tol).kappa == 2


def test_auto_tolerance_ignores_noise_below_relative_floor():
    tol = auto_tolerance(np.diag([1.0, 0.5, 1e-14, 1e-17]))
    split = split_svd(np.diag([1.0, 0.5, 1e-14, 1e-17]), tol)
    assert split.kappa == 2


# -- the driver ---------------------------------------------------------------------------


def test_refine_running_example_reaches_deep_accuracy(running):
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    trace = refine(running, x0, StepConfig(tol=0.1, seed=0, max_iters=3), reference=XI)
    assert trace.error_exponents[0] > -2
    assert trace.error_exponents[-1] <= -10
    assert len(trace.residuals) == trace.iterations + 1


def test_refine_already_converged_returns_empty_trace(running):
    trace = refine(running, XI, StepConfig(tol=0.1))
    assert trace.iterations == 0
    assert trace.stop_reason == "residual"


def test_refine_stagnates_at_cluster_midpoint():
    from snewton.bench import stability_system

    system = stability_system(3)
    x0 = np.full(3, 1e-3, dtype=complex)
    trace = refine(system, x0, StepConfig(tol=1e-2, seed=0, max_iters=10))
    assert trace.stop_reason == "stagnation"
    assert np.linalg.norm(trace.x - [0, 0, -5e-4]) < 1e-12


def test_refine_rejects_non_finite_start(running):
    with pytest.raises(ValueError, match="coordinate 3 is not finite"):
        refine(running, [1.0, 1.0, np.nan])
    with pytest.raises(ValueError, match="coordinate 1 is not finite"):
        two_step(running, [np.inf, 1.0, 1.0])


def test_overflow_at_the_start_point_is_named():
    """A finite start whose f overflows is blamed on the overflow, not on
    the point, by refine, two_step and gauss_newton."""
    for run in (refine, two_step, gauss_newton):
        system = get_entry("running-example").system  # f not yet evaluated there
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(ValueError, match="f overflows at the start point"):
                run(system, [1e200] * 3)
        assert any("overflow" in str(w.message) for w in caught)


def test_overflow_after_the_start_point_stops_as_nonfinite():
    """f(1e-200) = -1, but the first step of refine (Newton's) and of
    gauss_newton lands near 5e199, where f overflows: both stop there as
    "nonfinite", and two_step started there still blames the start point."""
    system = parse_system("x^2 - 1", ["x"])
    with np.errstate(over="ignore", invalid="ignore"):
        two, gn = (run(system, [1e-200]) for run in (refine, gauss_newton))
        for trace in (two, gn):
            assert (trace.stop_reason, trace.iterations) == ("nonfinite", 1)
            assert abs(trace.x[0]) > 1e199 and not np.isfinite(trace.residuals[-1])
        assert np.array_equal(two.x, two.steps[-1].x_double_prime)
        assert np.array_equal(gn.x, 1e-200 - gn.steps[-1].d)
        with pytest.raises(ValueError, match="f overflows at the start point"):
            two_step(system, two.x)


# Both pipelines through the one driver: refine, and deflate_once +
# gauss_newton, each run (system, start, residual target, iteration cap).
def _refine_pipeline(system, x0, stop, cap):
    # StepConfig takes a positive target only: the least positive double
    # stands for 0, which no residual on these runs reaches
    return refine(system, x0, StepConfig(tol=0.1, seed=0, stop_residual=max(stop, 5e-324), max_iters=cap))


def _gauss_newton_pipeline(system, x0, stop, cap):
    deflated, y0 = deflate_once(system, x0, 0.1, seed=3)
    return gauss_newton(deflated.system, y0, max_iter=cap, stop=stop)


PIPELINES = pytest.mark.parametrize("pipeline", [_refine_pipeline, _gauss_newton_pipeline])


@PIPELINES
def test_a_start_at_the_target_stops_as_residual_with_no_iteration(running, pipeline):
    trace = pipeline(running, XI, 1e-13, 50)
    assert (trace.stop_reason, trace.iterations, trace.steps, len(trace.residuals)) == ("residual", 0, [], 1)
    assert trace.converged and not trace.stationary


@PIPELINES
def test_the_iteration_cap_stops_as_max_iters(running, pipeline):
    trace = pipeline(running, [1.01, 0.99, 1.01], 0.0, 2)
    assert (trace.stop_reason, trace.iterations, len(trace.residuals)) == ("max_iters", 2, 3)
    assert not (trace.converged or trace.stationary) and trace.residuals[-1] > 0


def test_the_flags_follow_the_stop_reason_on_criterion_14_and_the_robustness_pair():
    criterion_14 = parse_system("x^3 - x^2\n3*x^2 - 2*x", ["x"])
    traces = [gauss_newton(criterion_14, [x0], max_iter=200) for x0 in (0.6, 0.7, 0.9, 1.2, 0.7 + 0.05j)]
    entry = get_entry("robustness-pair")
    g, y0 = deflate_structured(entry.system, [0.3, 0.3], [[1.0], [0.0]], [[0.0], [1.0]], [1.0])
    traces.append(gauss_newton(g, y0, max_iter=100))
    assert [(t.stop_reason, t.stationary, t.converged) for t in traces] == [("stagnation", True, False)] * 6
    two = refine(entry.system, [0.3, 0.3], StepConfig(tol=entry.tol, seed=0, max_iters=8))
    assert (two.stop_reason, two.iterations, two.converged, two.stationary) == ("residual", 6, True, False)


def loops_in(function) -> list[int]:
    """The line numbers, within its source, of the for and while loops of ``function``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While)))


def test_refine_and_gauss_newton_leave_every_stop_rule_to_the_driver():
    # the stop rules are written once, in the loop of _iterate
    assert loops_in(refine) == loops_in(gauss_newton) == []
    assert loops_in(_iterate) and loops_in(two_step)  # the check sees a while and a for loop


def test_refine_is_reproducible_with_seed():
    entry = get_entry("running-example")
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    t1 = refine(entry.system, x0, StepConfig(tol=0.1, seed=5))
    t2 = refine(entry.system, x0, StepConfig(tol=0.1, seed=5))
    assert np.array_equal(t1.x, t2.x)
    assert t1.residuals == t2.residuals


def test_refine_evaluates_f_once_per_point(evaluation_passes, monkeypatch):
    system, zero = random_variant(8, 2, seed=3)
    rng = np.random.default_rng(3)
    x0 = zero + 1e-3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    cfg = StepConfig(tol=variant_rank_tolerance(system, zero, 2), seed=1)
    evaluation_passes.clear()
    svds = []  # per np.linalg.svd call: whether it computes the vectors
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", True))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    trace = refine(system, x0, cfg)
    assert trace.iterations >= 2
    assert {step.mode for step in trace.steps} == {"two-step"}
    # f at x0; per iteration Df at x, D^2f.v and Df at x' in one pass, f at
    # x''; one SVD with vectors, of Df at x (B' is solved without one)
    assert len(evaluation_passes) == 1 + 3 * trace.iterations
    f_passes = [index is system._index((0,)) for index in evaluation_passes]
    assert sum(f_passes) == 1 + trace.iterations
    both = [index is system._index((1, 2)) for index in evaluation_passes]
    assert sum(both) == trace.iterations
    assert svds == [True] * trace.iterations
    # the same run with each order in its own pass gives the same bits: Df
    # and D^2f.v at x' apart, per iteration
    real = PolySystem._values
    monkeypatch.setattr(
        PolySystem, "_values", lambda self, x, orders, *dirs: [real(self, x, (k,), *dirs)[0] for k in orders]
    )
    apart = refine(system, x0, cfg)
    assert len(evaluation_passes) == 2 + 7 * trace.iterations
    assert apart.residuals == trace.residuals
    for a, b in zip(apart.steps + [apart], trace.steps + [trace]):
        for name in ("x_prime", "delta", "x_double_prime", "x", "b_prime"):
            if hasattr(a, name):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_refine_trace_json(running):
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    trace = refine(running, x0, StepConfig(tol=0.1, seed=0, max_iters=2), reference=XI)
    payload = trace.to_json()
    assert payload["schema"] == 1
    assert payload["iterations"] == trace.iterations
    assert payload["kappas"] == [step.kappa for step in trace.steps] and trace.iterations == 2
    assert payload["residuals"] == trace.residuals and len(trace.residuals) == 3
    assert len(payload["error_exponents"]) == trace.iterations + 1
    keys = {"schema", "iterations", "stop_reason", "final_point", "final_residual", "kappas", "residuals"}
    assert set(payload) == keys | {"error_exponents"}
    assert set(refine(running, x0, StepConfig(tol=0.1, seed=0, max_iters=2)).to_json()) == keys


def test_refine_trace_json_is_the_same_for_the_same_inputs(running):
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    runs = [refine(running, x0, StepConfig(tol=0.1, seed=4), reference=XI) for _ in range(2)]
    assert runs[0].iterations >= 2
    assert runs[0].to_json() == runs[1].to_json()


# -- convergence-order properties ------------------------------------------------------------


def test_quadratic_contraction_on_random_variants():
    shapes = [(4, 2), (8, 2), (8, 4)]
    for seed in range(6):
        n, k = shapes[seed % 3]
        system, zero = random_variant(n, k, seed=seed)
        tol = variant_rank_tolerance(system, zero, k)
        rng = np.random.default_rng(seed + 500)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x0 = zero + 1e-3 * d / np.linalg.norm(d)
        trace = refine(system, x0, StepConfig(tol=tol, seed=seed), reference=zero)
        errors = [10.0**e for e in trace.error_exponents]
        for before, after in zip(errors, errors[1:]):
            if before >= 1e-11:
                # quadratic contraction until the double-precision floor
                assert after <= max(10 * before**2, 1e-13)


def test_projection_step_error_is_second_order_in_distance():
    # Lemma-type scaling: the component of x' - zero along the regular
    # directions shrinks at least quadratically with the starting distance
    shapes = [(4, 2), (8, 2), (8, 4)]
    for seed in range(6):
        n, k = shapes[seed % 3]
        system, zero = random_variant(n, k, seed=seed)
        tol = variant_rank_tolerance(system, zero, k)
        rng = np.random.default_rng(seed + 900)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d /= np.linalg.norm(d)
        for eps in (1e-2, 1e-3, 1e-4):
            x = zero + eps * d
            split = split_svd(system.jacobian(x), tol)
            assert split.kappa == k
            x_prime = first_refinement(system, x, split)
            residual = np.linalg.norm(split.v1.conj().T @ (x_prime - zero))
            assert residual <= 10 * eps**2


def test_projection_step_order_exponent_on_cubic_system():
    # mth191 has genuine third derivatives, so the second-order term of the
    # projection step is visible and the log-log slope sits at 2
    entry = get_entry("mth191")
    rng = np.random.default_rng(7)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    d /= np.linalg.norm(d)
    eps_values = (1e-2, 1e-3, 1e-4)
    values = []
    for eps in eps_values:
        x = entry.zero + eps * d
        split = split_svd(entry.system.jacobian(x), entry.tol)
        assert split.kappa == entry.kappa
        x_prime = first_refinement(entry.system, x, split)
        values.append(np.linalg.norm(split.v1.conj().T @ (x_prime - entry.zero)))
    slope = np.polyfit(np.log10(eps_values), np.log10(values), 1)[0]
    assert 1.8 <= slope <= 2.2
