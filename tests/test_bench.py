"""Catalog integrity and the experiment runners."""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import snewton.bench as bench
from snewton.bench import (
    catalog,
    get_entry,
    perturbed_start,
    random_variant,
    run_convergence,
    run_efficiency,
    run_robustness,
    run_stability,
    run_table_convergence,
    stability_system,
    template_system,
    variant_rank_tolerance,
)
from snewton.dualspace import is_deflation_one, multiplicity_structure
from snewton.lvz import deflate_once, gauss_newton
from snewton.polycore import Poly, PolySystem, compose_affine

from oracles import symbolic_compose_affine

EXTERNAL = {"cbms1", "cbms2", "mth191", "KSS", "Caprasse", "Cyclic9"}


def test_catalog_contains_all_entries():
    names = {e.name for e in catalog()}
    assert {
        "running-example",
        "x2-xy",
        "x2-z3xy-y2",
        "truncated-sin",
        "stability-k2",
        "robustness-pair",
    } <= names
    assert EXTERNAL <= names


def test_every_entry_vanishes_at_its_zero():
    for entry in catalog():
        residual = np.linalg.norm(entry.system.eval(entry.zero))
        assert residual <= entry.zero_tol, entry.name


def test_expected_table_rows():
    kss = get_entry("KSS")
    assert (kss.kappa, kss.rho, kss.mu) == (4, 4, 16)
    assert np.allclose(kss.zero, np.ones(5))
    mth = get_entry("mth191")
    assert (mth.kappa, mth.rho, mth.mu) == (2, 2, 4)
    assert np.allclose(mth.zero, [0, 1, 0])


def test_multiplicity_structure_reproduces_catalog():
    for entry in catalog():
        if entry.mu is None or entry.mu > 16:
            continue
        rank_tol = 1e-6 if entry.name == "Cyclic9" else None
        report = multiplicity_structure(entry.system, entry.zero, rank_tol=rank_tol)
        got = (report.breadth, report.depth, report.multiplicity)
        assert got == (entry.kappa, entry.rho, entry.mu), entry.name
        assert report.stabilized, entry.name


def test_unknown_entry_lists_alternatives():
    with pytest.raises(KeyError, match="running-example"):
        get_entry("nope")


def test_get_entry_loads_only_its_own_data_file(monkeypatch):
    loaded = []
    real = bench._load_data_entry

    def loading(path):
        loaded.append(path.name)
        return real(path)

    monkeypatch.setattr(bench, "_load_data_entry", loading)
    assert get_entry("cbms1").name == "cbms1"
    assert get_entry("Cyclic9").name == "Cyclic9"
    assert get_entry("running-example").name == "running-example"
    assert loaded == ["cbms1.json", "cyclic9.json"]
    loaded.clear()
    with pytest.raises(KeyError) as caught:
        get_entry("nope")  # no nope.json: the whole catalog, each file once
    assert sorted(loaded) == sorted(p.name for p in Path(bench._DATA_DIR).glob("*.json"))
    names = [e.name for e in catalog()]
    assert str(caught.value).endswith(f"(available: {', '.join(names)})\"")


def test_get_entry_builds_only_the_entry_asked_for(count_calls):
    entries = count_calls(bench, "_entry")
    for name in ["running-example", "x2-xy", "truncated-sin", "cbms1", "Cyclic9"]:
        entries.clear()
        assert get_entry(name).name == name
        assert len(entries) == 1, name
    entries.clear()
    catalog()
    assert len(entries) == 12  # six built-ins and six data files, each through the one loader


def test_builtins_equal_their_poly_arithmetic_construction():
    """The built-in rows written as text, and ``stability_system`` built
    from term arrays, hold the bits of the ``Poly`` arithmetic that once
    made them."""
    xvar, yvar, zvar = (Poly.variable(3, i) for i in range(3))

    def sin3(i):  # sin x_i as x_i - x_i^3/6
        return Poly(3, {tuple(e * (j == i) for j in range(3)): c for e, c in ((1, 1.0), (3, -1.0 / 6.0))})

    def stability(k):
        z2 = Poly(3, {(0, 0, 2): 1.0, (0, 0, 1): 10.0 ** (-k)})
        return PolySystem([xvar**2, yvar**2, z2])

    def same(got, want):
        return all(a.tobytes() == b.tobytes() for a, b in zip(got._arrays[:3], want._arrays[:3])) and (
            got._arrays[3] == want._arrays[3] and got.degree() == want.degree()
        )

    trunc_sin = PolySystem([xvar**3 + zvar * sin3(1), yvar**3 + xvar * sin3(2), zvar**3 + yvar * sin3(0)])
    assert same(get_entry("truncated-sin").system, trunc_sin)
    assert same(get_entry("stability-k2").system, stability(2))
    for k in (2, 3, 4, 2.5, 400):
        assert same(stability_system(k), stability(k)), k
    # 10^-400 underflows to 0, and the last row is z^2
    assert stability_system(400).to_string(["x", "y", "z"]).splitlines()[2] == "z^2"


def test_a_builtin_row_is_checked_like_a_data_file(tmp_path, monkeypatch):
    row = dict(bench._BUILTINS["running-example"], zero=[[1.0, 0.0]] * 2)
    monkeypatch.setitem(bench._BUILTINS, "running-example", row)
    with pytest.raises(ValueError, match="zero length does not match the variable count"):
        get_entry("running-example")
    (tmp_path / "short.json").write_text(json.dumps({"name": "short", **row}))
    monkeypatch.delitem(bench._BUILTINS, "running-example")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert "short" not in {e.name for e in catalog(data_dir=tmp_path)}
    assert [str(w.message) for w in caught] == [
        "catalog entry short.json unavailable: zero length does not match the variable count"
    ]
    monkeypatch.setitem(bench._BUILTINS, "running-example", dict(row, vars="xyz"))
    with pytest.raises(ValueError, match="running-example: expected keys 'vars' and 'polys'"):
        get_entry("running-example")


def test_get_entry_with_a_bad_data_file_scans_and_warns(tmp_path):
    src = Path(bench._DATA_DIR)
    for path in src.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    (tmp_path / "kss.json").write_text("{ not json")
    data = json.loads((src / "cbms2.json").read_text())
    (tmp_path / "cbms2.json").unlink()
    (tmp_path / "other.json").write_text(json.dumps(data))  # cbms2 in another file
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert get_entry("cbms2", data_dir=tmp_path).name == "cbms2"
        with pytest.raises(KeyError, match="cbms2") as missing:
            get_entry("KSS", data_dir=tmp_path)
    assert "KSS" not in str(missing.value).split("available:")[1]
    assert any("kss.json" in str(w.message) for w in caught)


def test_corrupt_data_file_drops_only_that_entry(tmp_path):
    src = Path(bench._DATA_DIR)
    for path in src.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    (tmp_path / "kss.json").write_text("{ not json")
    (tmp_path / "cbms1.json").unlink()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = {e.name for e in catalog(data_dir=tmp_path)}
    assert "KSS" not in entries
    assert "cbms1" not in entries
    assert {"cbms2", "mth191", "Caprasse", "Cyclic9"} <= entries
    assert any("kss.json" in str(w.message) for w in caught)


def test_data_files_are_checked_like_load_system_json(tmp_path):
    """A catalog data file goes through the loader's checks: a string where
    a list of strings belongs drops the entry."""
    src = Path(bench._DATA_DIR)
    shutil.copy(src / "mth191.json", tmp_path / "mth191.json")
    data = json.loads((src / "kss.json").read_text())
    data["vars"] = "".join(data["vars"])
    (tmp_path / "kss.json").write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = {e.name for e in catalog(data_dir=tmp_path)}
    assert "KSS" not in entries and "mth191" in entries
    assert any("each a list of strings" in str(w.message) for w in caught)


# -- random variants --------------------------------------------------------------


def test_template_system_shape():
    system = template_system(4, 2)
    assert len(system) == 4
    assert system.degree() == 2
    with pytest.raises(ValueError):
        template_system(3, 0)


def test_identity_variant_is_the_template():
    template = template_system(4, 2)
    assert compose_affine(template, np.eye(4), np.zeros(4)) == template
    assert symbolic_compose_affine(template, np.eye(4), np.zeros(4)) == template


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 30])
def test_random_variant_equals_the_symbolic_composition(n):
    for k in range(1, min(n, 3) + 1):
        for seed in range(5):
            system, zero = random_variant(n, k, seed=seed)
            a, b = bench._variant_map(n, seed)
            assert np.array_equal(zero, b)
            assert system == symbolic_compose_affine(template_system(n, k), a, b)
    with pytest.raises(ValueError):
        random_variant(n, n + 1)


def test_random_variant_zero_and_corank():
    system, zero = random_variant(10, 2, seed=0)
    assert np.linalg.norm(system.eval(zero)) <= 1e-12
    report = multiplicity_structure(system, zero)
    assert (report.breadth, report.depth, report.multiplicity) == (2, 2, 4)


def test_variant_rank_tolerance_splits_correctly():
    from snewton.numla import split_svd

    system, zero = random_variant(6, 3, seed=4)
    tol = variant_rank_tolerance(system, zero, 3)
    assert split_svd(system.jacobian(zero), tol).kappa == 3


# -- runners -----------------------------------------------------------------------


def test_perturbed_start_pattern():
    start = perturbed_start(np.zeros(4), 2)
    assert np.allclose(start, [0.01, -0.01, 0.01, -0.01])


def test_run_convergence_running_example():
    entry = get_entry("running-example")
    exponents = run_convergence(entry, initial_digits=2, iters=3)
    assert exponents[0] > -3
    assert exponents[-1] <= -10
    floored = [max(e, -14) for e in exponents]
    assert all(a >= b for a, b in zip(floored, floored[1:]))


def test_run_convergence_from_exact_zero_stops_immediately():
    entry = get_entry("running-example")
    exponents = run_convergence(entry, initial_digits=2, iters=3, seed=0)
    assert len(exponents) == 4
    trace_exponents = run_convergence(entry, initial_digits=40, iters=3)
    assert len(trace_exponents) == 1  # start is the zero to machine precision


def test_run_stability_grid():
    report = run_stability([3, 2], [1e-2], iters=3)
    rows = {(r["k"], r["tol"]): r for r in report.rows}
    clustered = rows[(3, 1e-2)]
    assert clustered["kappa_star"] == 3
    assert clustered["target"] == "midpoint"
    assert clustered["final_distance"] <= 1e-12
    resolved = rows[(2, 1e-2)]
    assert resolved["kappa_star"] == 2
    assert resolved["target"] == "origin"
    assert resolved["final_distance"] <= 1e-8


def test_run_stability_underflowed_coefficient_behaves_like_square():
    report = run_stability([400], [1e-2], iters=2)
    row = report.rows[0]
    assert row["kappa_star"] == 3
    assert row["final_distance"] <= 1e-12


def test_stability_exponent_sequences_double_until_floor():
    from snewton.twostep import StepConfig, refine

    system = stability_system(2)
    for start, first in [(1e-5, -4), (1e-4, -3)]:
        trace = refine(
            system,
            np.full(3, start, dtype=complex),
            StepConfig(tol=1e-2, seed=0, max_iters=4),
            reference=np.zeros(3),
        )
        exponents = [max(e, -14.0) for e in trace.error_exponents]
        assert exponents[0] < first
        for before, after in zip(exponents, exponents[1:]):
            assert after <= max(1.4 * before, -14.0) + 1e-9
        assert exponents[-1] == -14.0


def test_run_efficiency_smoke():
    report = run_efficiency([(2, 1), (10, 2)], iters=1, seed=0)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["twostep_seconds"] > 0
        assert row["lvz_seconds"] > 0
    text = report.to_text()
    assert "twostep_seconds" in text


def test_run_robustness_split():
    report = run_robustness()
    two_step_row, lvz_row = report.rows
    assert two_step_row["pipeline"] == "two-step"
    assert two_step_row["distance_to_zero"] <= 1e-6
    assert two_step_row["iterations"] <= 6
    assert lvz_row["stationary"] is True
    assert lvz_row["distance_to_stationary_point"] <= 1e-3


def test_run_table_convergence_reports_external_rows():
    report = run_table_convergence(iters=3)
    files = [entry.name for entry in catalog() if entry.name not in bench._BUILTINS]
    assert [row["system"] for row in report.rows] == files
    (row,) = [row for row in report.rows if row["system"] == "mth191"]
    assert row["exponents"][-1] <= -10


def test_report_json_roundtrip():
    report = run_stability([2], [1e-2], iters=2)
    payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
    assert payload["schema"] == 1
    assert payload["experiment"] == "stability"
    assert len(payload["rows"]) == 1


def test_caprasse_baseline_from_two_digits_can_reach_the_mirror_zero():
    # Caprasse maps its zero set to itself under (x1, x3) -> (-x1, -x3):
    # f(Sx) = diag(1, 1, -1, -1) f(x).  Deflation plus Gauss-Newton from the
    # 2-digit start, with the step seed that perfbench's catalog workload
    # draws at seed 1711, leaves the catalog zero and converges (23
    # iterations) to its mirror, a zero with the same multiplicity
    # structure, not to a stall.
    entry = get_entry("Caprasse")
    mirror_map = np.array([-1, 1, -1, 1])
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.allclose(entry.system.eval(mirror_map * x), [1, 1, -1, -1] * entry.system.eval(x))
    mirror = mirror_map * entry.zero

    step_seed = int(np.random.default_rng([1711, 2, *b"Caprasse"]).integers(2**31))
    deflated, y0 = deflate_once(entry.system, perturbed_start(entry.zero, 2), entry.tol, seed=step_seed)
    gn = gauss_newton(deflated.system, y0, stop=1e-13)
    assert gn.converged and gn.residuals[-1] <= 1e-13
    assert np.linalg.norm(gn.x[:4] - mirror) < 1e-12
    assert np.linalg.norm(gn.x[:4] - entry.zero) > 5

    report = multiplicity_structure(entry.system, mirror)
    assert (report.breadth, report.depth, report.multiplicity) == (entry.kappa, entry.rho, entry.mu) == (2, 2, 4)
    assert is_deflation_one(entry.system, mirror)
