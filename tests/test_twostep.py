"""The split-step refinement: operators, steps, driver, tolerance picking."""

import numpy as np
import pytest

from snewton.bench import get_entry, random_variant, variant_rank_tolerance
from snewton.numla import SingularMatrixError, split_svd
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

from oracles import operator_A

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


def test_two_step_rejects_non_square():
    system = parse_system("x^2\nx\nx - 1", ["x"])
    with pytest.raises(ValueError):
        two_step(system, [0.5], StepConfig(tol=0.1))


def test_two_step_auto_tolerance_on_exactly_singular_jacobian():
    # at the midpoint of the clustered pair the Jacobian vanishes entirely;
    # the auto tolerance path must still classify it as corank n
    from snewton.bench import stability_system

    system = stability_system(3)
    midpoint = np.array([0, 0, -5e-4], dtype=complex)
    step = two_step(system, midpoint, StepConfig(tol="auto", seed=0))
    assert step.mode == "kernel-only"
    assert np.linalg.norm(step.x_double_prime - midpoint) < 1e-15


def test_two_step_contracts_the_hessian_once_per_iteration(running, contraction_calls):
    calls = contraction_calls
    x = np.array([1.001, 0.999, 1.001], dtype=complex)
    step = two_step(running, x, StepConfig(tol=0.1, v_override=V_RAW))
    assert (step.mode, len(calls)) == ("two-step", 1)
    b = operator_B(running, step.x_prime, step.v, step.split.u2, step.split.v2)
    assert np.array_equal(step.b_prime, b)

    calls.clear()
    step = two_step(get_entry("truncated-sin").system, np.full(3, 1e-4), StepConfig(tol=0.1))
    assert (step.mode, len(calls)) == ("kernel-only", 1)

    calls.clear()
    linear = parse_system("x - 1\ny - 2", ["x", "y"])
    step = two_step(linear, np.array([1.1, 2.1]), StepConfig(tol=1e-6))
    assert (step.mode, len(calls)) == ("newton", 0)


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
    from snewton.lvz import gauss_newton

    for run in (refine, two_step, gauss_newton):
        system = get_entry("running-example").system  # f not yet evaluated there
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(ValueError, match="f overflows at the start point"):
                run(system, [1e200] * 3)
        assert any("overflow" in str(w.message) for w in caught)


def test_refine_is_reproducible_with_seed():
    entry = get_entry("running-example")
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    t1 = refine(entry.system, x0, StepConfig(tol=0.1, seed=5))
    t2 = refine(entry.system, x0, StepConfig(tol=0.1, seed=5))
    assert np.array_equal(t1.x, t2.x)
    assert t1.residuals == t2.residuals


def test_refine_evaluates_f_once_per_point(count_calls, monkeypatch):
    system, zero = random_variant(8, 2, seed=3)
    rng = np.random.default_rng(3)
    x0 = zero + 1e-3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    cfg = StepConfig(tol=variant_rank_tolerance(system, zero, 2), seed=1)
    calls = count_calls(PolySystem, "eval")
    trace = refine(system, x0, cfg)
    assert trace.iterations >= 2
    assert {step.mode for step in trace.steps} == {"two-step"}
    assert len(calls) == 1 + 2 * trace.iterations
    # the same run with f evaluated afresh at every use gives the same bits
    monkeypatch.setattr(PolySystem, "_eval_once", lambda self, x: self.eval(x))
    fresh = refine(system, x0, cfg)
    assert len(calls) == 2 + 6 * trace.iterations
    assert fresh.residuals == trace.residuals
    for a, b in zip(fresh.steps + [fresh], trace.steps + [trace]):
        for name in ("x_prime", "delta", "x_double_prime", "x"):
            if hasattr(a, name):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_eval_once_reuses_only_the_last_point(running):
    x, y = np.array([1.1, 0.9, 1.0], dtype=complex), np.array([1.0, 1.2, 0.7], dtype=complex)
    for point in (x, y, x, x):
        fx = running._eval_once(point)
        assert fx.tobytes() == running.eval(point).tobytes()
        assert not fx.flags.writeable


def test_refine_trace_json(running):
    x0 = np.array([1.01, 0.99, 1.01], dtype=complex)
    trace = refine(running, x0, StepConfig(tol=0.1, seed=0, max_iters=2), reference=XI)
    payload = trace.to_json()
    assert payload["schema"] == 1
    assert payload["iterations"] == trace.iterations
    assert len(payload["steps"]) == trace.iterations
    assert len(payload["error_exponents"]) == trace.iterations + 1


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
