"""Command-line interface: exit codes, formats, reproducibility."""

import json

import numpy as np
import pytest

from snewton.cli import main


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


def test_seed_env_fallback(capsys, monkeypatch):
    args = [
        "refine",
        "--catalog",
        "running-example",
        "--x0",
        "1.01,0.99,1.01",
        "--format",
        "json",
    ]
    monkeypatch.setenv("SNEWTON_SEED", "11")
    _, with_env, _ = run_cli(capsys, *args)
    monkeypatch.delenv("SNEWTON_SEED")
    _, with_default, _ = run_cli(capsys, *args, "--seed", "11")
    assert with_env == with_default
