"""Command-line interface: exit codes, formats, reproducibility."""

import json

import numpy as np
import pytest

from snewton.bench import get_entry
from snewton.cli import _parse_point, main
from snewton.twostep import StepConfig, refine


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_refine_catalog_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "refine",
        "--catalog",
        "running-example",
        "--x0",
        "1.001,0.999,1.001",
        "--tol",
        "0.1",
    )
    assert code == 0
    assert "final residual" in out
    assert "error exponents" in out


def test_refine_json_matches_table_values(capsys):
    args = [
        "refine",
        "--catalog",
        "running-example",
        "--x0",
        "1.001,0.999,1.001",
        "--tol",
        "0.1",
        "--seed",
        "1",
    ]
    code, table_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["schema"] == 1
    final = np.array([complex(re, im) for re, im in payload["final_point"]])
    assert np.linalg.norm(final - 1) < 1e-9
    shown = table_out.splitlines()[1].split(":")[1]
    assert float(shown) == pytest.approx(payload["final_residual"], rel=1e-6)


def test_refine_json_is_reproducible(capsys):
    args = [
        "refine",
        "--catalog",
        "running-example",
        "--x0",
        "1.01,0.99,1.01",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_refine_json_is_the_library_trace(capsys):
    entry = get_entry("running-example")
    x0 = np.array([1.001, 0.999, 1.001], dtype=complex)
    cfg = StepConfig(tol=0.1, seed=3, max_iters=20)
    trace = refine(entry.system, x0, cfg, reference=entry.zero)
    argv = ["refine", "--catalog", "running-example", "--x0", "1.001,0.999,1.001", "--tol", "0.1"]
    code, out, _ = run_cli(capsys, *argv, "--seed", "3", "--format", "json")
    assert code == 0
    assert out == json.dumps(trace.to_json(), sort_keys=True, allow_nan=False) + "\n"


def test_refine_singular_step_exits_as_not_converged(capsys):
    # one two-step goes to |x| ~ 1.9e15, where Newton's step refuses Df
    argv = ["refine", "--catalog", "running-example", "--x0=-0.999,1,1", "--tol", "0.1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: matrix is singular to working precision (sigma_min=")


@pytest.mark.parametrize("option", ["--x0", "--reference"])
@pytest.mark.parametrize("text", ["-0.999,1,1", "-i,1,1"])
def test_point_flags_take_a_leading_minus_sign_after_a_space(capsys, option, text):
    argv = ["refine", "--catalog", "running-example", "--iters", "1", "--format", "json"]
    code, out, err = run_cli(capsys, *argv, option, text)
    assert (code, out, err) == run_cli(capsys, *argv, f"{option}={text}")
    assert code in (0, 2) and err == ""
    payload, point = json.loads(out), np.array([complex(text.split(",")[0].replace("i", "j")), 1, 1])
    if option == "--x0":
        residual = np.linalg.norm(get_entry("running-example").system.eval(point))
        assert payload["residuals"][0] == pytest.approx(residual)
    else:  # the start is the catalog zero (1, 1, 1)
        assert payload["error_exponents"][0] == pytest.approx(np.log10(abs(point[0] - 1)))


def test_refine_dimension_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "refine", "--catalog", "running-example", "--x0", "1.0,2.0"
    )
    assert code == 1
    assert "coordinates" in err


def test_refine_unknown_catalog_entry(capsys):
    code, _, err = run_cli(capsys, "refine", "--catalog", "missing", "--x0", "1")
    assert code == 1
    assert "error" in err


def test_refine_nonconvergent_exit_code(capsys):
    # one iteration from a far point cannot hit the residual target
    code, _, _ = run_cli(
        capsys,
        "refine",
        "--catalog",
        "running-example",
        "--x0",
        "3.0,3.0,3.0",
        "--iters",
        "1",
    )
    assert code == 2


def test_refine_overflow_after_the_start_point_exit_code(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vars": ["x"], "polys": ["x^2 - 1"]}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run_cli(capsys, "refine", "--file", str(path), "--x0", "1e-200")
        assert code == 2
        assert "iterations: 1 (stop: nonfinite)" in out
        code, out, _ = run_cli(capsys, "refine", "--file", str(path), "--x0", "1e-200", "--format", "json")
    assert code == 2

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    payload = json.loads(out, parse_constant=refuse)
    assert payload["stop_reason"] == "nonfinite"
    assert payload["final_residual"] is None
    assert payload["residuals"] == [1.0, None]


def test_json_of_a_finite_payload_is_what_json_dumps_writes(capsys):
    # only a float that is not finite is rewritten, so finite payloads keep their bytes
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    for command in ("refine", "check", "analyze"):
        code, out, _ = run_cli(capsys, command, "--catalog", "running-example", "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out, parse_constant=refuse), sort_keys=True) + "\n"


def test_refine_from_json_file(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x^2 - 1", "y - 1"]}))
    code, out, _ = run_cli(
        capsys, "refine", "--file", str(path), "--x0", "1.1,0.9", "--tol", "auto"
    )
    assert code == 0

    code, _, err = run_cli(capsys, "refine", "--file", str(path))
    assert code == 1  # --x0 required without a catalog zero


def test_refine_exponent_beyond_the_term_arrays_is_usage_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vars": ["x"], "polys": ["x^40000 - 1"]}))
    code, out, err = run_cli(capsys, "refine", "--file", str(path), "--x0", "1.1")
    assert code == 1
    assert out == ""
    assert "error: line 1, column 1: exponent exceeds 32767" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "efficiency", "--sizes", "0:1"], "need 1 <= k <= n"),
        (["bench", "efficiency", "--sizes", "10:0"], "need 1 <= k <= n"),
        (["refine", "--catalog", "running-example", "--iters", "-3"], "max_iters must be at least 0, got -3"),
        (["analyze", "--catalog", "running-example", "--max-order", "0"], "max_order must be at least 1, got 0"),
        (["analyze", "--catalog", "running-example", "--max-order", "-1"], "max_order must be at least 1, got -1"),
    ],
)
def test_counts_below_their_minimum_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"vars": "xy", "polys": "x"}, "each a list of strings"),
        ({"vars": ["x", "x"], "polys": ["x^2", "x"]}, "variable name 'x' is given twice"),
        ({"vars": ["x", "y"], "polys": ["x^2", 3]}, "each a list of strings"),
        ({"vars": ["x", "y"], "polys": ["x^2\n+ y", "y"]}, "line 1, column 4: line break"),
    ],
)
def test_refine_malformed_file_is_usage_error(capsys, tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "refine", "--file", str(path), "--x0", "1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_refine_bad_file(capsys, tmp_path):
    missing = tmp_path / "none.json"
    code, _, err = run_cli(capsys, "refine", "--file", str(missing), "--x0", "1")
    assert code == 1


def test_analyze_running_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--catalog", "running-example")
    assert code == 0
    assert "breadth kappa = 2" in out
    assert "multiplicity mu = 4" in out


def test_analyze_example_with_two_deflation_rounds(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--catalog", "x2-z3xy-y2", "--format", "json"
    )
    payload = json.loads(out)
    assert (payload["breadth"], payload["depth"], payload["multiplicity"]) == (3, 5, 12)


def test_analyze_non_isolated_zero_reports_unstabilized(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--catalog", "x2-xy", "--max-order", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stabilized"] is False
    assert payload["dims_by_order"] == [1, 3, 4, 5, 6, 7]


def test_analyze_regular_point(capsys, tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x", "y"]}))
    code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--x0", "0,0")
    assert code == 0
    assert "regular point" in out


def test_analyze_at_a_point_that_is_not_a_zero_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x^2", "y"]}))
    code, out, err = run_cli(capsys, "analyze", "--file", str(path), "--x0", "1,0")
    assert (code, out) == (1, "")
    assert err == "error: the point is not a zero: |f(xi)| = 1.000e+00 is above the rank tolerance 2.000e-08\n"


def test_check_at_a_point_that_is_not_a_zero_fails_the_necessary_test(capsys, tmp_path):
    # check reads its point as an approximate zero (a cluster midpoint, say): where the point is
    # not a zero at the dual space's tolerance, it says so and the necessary test fails
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x^2", "y^2"]}))
    code, out, _ = run_cli(capsys, "check", "--file", str(path), "--x0", "0,1")
    assert code == 0
    assert ("necessary (order-2 dimension) test: FAIL (the point is not a zero: |f(xi)| = 1.000e+00 "
            "is above the rank tolerance 2.000e-08)") in out.splitlines()
    assert out.splitlines()[-1] == "verdict: NOT deflation-one"


@pytest.mark.parametrize("source, x0, norm, tol", [
    ({"vars": ["x", "y"], "polys": ["x^2", "y"]}, "1,0", "1.000e+00", "2.000e-08"),
    # next to the fourfold zero (1, 1, 1) the auto tolerance sees no kernel
    ("running-example", "1.01,0.99,1.01", "1.749e-02", "1.017e-08"),
])
def test_check_at_a_regular_point_that_is_not_a_zero_says_so(capsys, tmp_path, source, x0, norm, tol):
    # at kappa = 0 check applies the dual space's order-0 rule, as analyze does, but exits 0
    if isinstance(source, dict):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(source))
        system = ["--file", str(path)]
    else:
        system = ["--catalog", source]
    reason = f"the point is not a zero: |f(xi)| = {norm} is above the rank tolerance {tol}"
    code, out, _ = run_cli(capsys, "check", *system, "--x0", x0)
    assert (code, out) == (0, f"kappa = 0: {reason}\n")
    code, out, _ = run_cli(capsys, "check", *system, "--x0", x0, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["kappa"], payload["verdict"], payload["reason"]) == (0, "not a zero", reason)


def test_check_at_a_regular_zero_calls_it_regular(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x", "y"]}))
    code, out, _ = run_cli(capsys, "check", "--file", str(path), "--x0", "0,0")
    assert (code, out) == (0, "kappa = 0: regular point, nothing to deflate\n")
    code, out, _ = run_cli(capsys, "check", "--file", str(path), "--x0", "0,0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "kappa": 0, "tol": 0.5, "verdict": "regular"}


def test_refine_non_finite_start_is_usage_error(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "polys": ["x^2", "y"]}))
    code, out, err = run_cli(capsys, "refine", "--file", str(path), "--x0", "nan,0.1")
    assert code == 1
    assert out == ""
    assert "error: point coordinate 1 is not finite" in err


def test_check_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--catalog", "x2-z3xy-y2", "--tol", "0.1"
    )
    assert code == 0
    assert "necessary (order-2 dimension) test: pass" in out
    assert "sufficient (randomized operator) test: FAIL" in out
    assert "NOT deflation-one" in out

    code, out, _ = run_cli(
        capsys, "check", "--catalog", "running-example", "--tol", "0.1"
    )
    assert "verdict: deflation-one" in out


@pytest.mark.parametrize("n, k", [(6, 1), (10, 2)])
def test_check_verdict_needs_the_necessary_test(capsys, tmp_path, n, k):
    # at the zero b of the cubic variant f(A(X - b)) of [x_1^3, ..., x_k^3,
    # x_(k+1), ..., x_n] the order-2 dimension test fails, so the verdict is
    # "NOT deflation-one" even where the randomized test passes on noise
    from snewton.bench import _variant_map
    from snewton.polycore import compose_affine, system_from_terms

    cubic = system_from_terms(np.diag(1 + 2 * (np.arange(n) < k)), np.ones(n), np.arange(n), n)
    a, b = _variant_map(n, 0)
    names = [f"x{i}" for i in range(1, n + 1)]
    polys = [p.to_string(names) for p in compose_affine(cubic, a, b)]
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"vars": names, "polys": polys}))
    args = ["check", "--file", str(path), "--x0", ",".join(map(str, b))]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "necessary (order-2 dimension) test: FAIL" in out
    assert out.splitlines()[-1] == "verdict: NOT deflation-one"
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["necessary_dimension_test"] is False
    assert payload["verdict"] == "NOT deflation-one"


def test_check_regular_point(capsys, tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"vars": ["x"], "polys": ["x - 1"]}))
    code, out, _ = run_cli(capsys, "check", "--file", str(path), "--x0", "1")
    assert code == 0
    assert "regular" in out


def test_bench_robustness(capsys):
    code, out, _ = run_cli(capsys, "bench", "robustness", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert rows[0]["distance_to_zero"] <= 1e-6
    assert rows[1]["stationary"] is True


def test_bench_efficiency_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "efficiency", "--sizes", "6:2", "--iters", "1"
    )
    assert code == 0
    assert "twostep_seconds" in out


@pytest.mark.parametrize("sizes", ["10", "10:x", "10:2,5", "10:2:1", "-3:1"])
def test_bench_efficiency_names_a_bad_size(capsys, sizes):
    code, out, err = run_cli(capsys, "bench", "efficiency", f"--sizes={sizes}")
    assert code == 1 and out == ""
    bad = sizes.split(",")[-1]
    assert f"--sizes entry {bad!r} is not of the form n:kappa" in err


def test_bench_unknown_experiment(capsys):
    code, _, _ = run_cli(capsys, "bench", "texture")
    assert code == 1


def test_point_entries_take_i_as_the_imaginary_unit_only_at_their_end():
    point = _parse_point(" 1.5, 2+0.5i,-i , inf, 1e-3-2i, nan", 6, "--x0")
    want = [1.5, 2 + 0.5j, -1j, np.inf, 1e-3 - 2j]
    assert point[:5].tolist() == want and np.isnan(point[5])


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--x0", "inf,1,1", "point coordinate 1 is not finite"),
        ("--reference", "1,1,-inf", "point coordinate 3 is not finite"),
        ("--x0", "1,x,1", "--x0 entry 2 is not a complex number: 'x'"),
        ("--reference", "1,1,1i2", "--reference entry 3 is not a complex number: '1i2'"),
        ("--x0", "1,,1", "--x0 entry 2 is not a complex number: ''"),
        ("--reference", "1,1", "--reference has 2 coordinates, system has 3 variables"),
    ],
)
def test_refine_names_a_bad_point_entry(capsys, option, text, message):
    code, out, err = run_cli(capsys, "refine", "--catalog", "running-example", f"{option}={text}")
    assert code == 1 and out == ""
    assert f"error: {message}" in err
