"""The pure parts of ``scripts/abdriver.py``, the measuring protocol of the
bench scripts: seed ranges, the summary of perfbench pairs and their
header, the reduction of probe rounds, and the order in which rounds and
pairs alternate.  No subprocess is started."""

import argparse
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import abdriver  # noqa: E402


@pytest.mark.parametrize(
    "text, expected",
    [
        ("variants=601-610", ("variants", list(range(601, 611)))),
        ("dual=7", ("dual", [7])),
        ("catalog=5-5", ("catalog", [5])),
    ],
)
def test_seeds_ranges(text, expected):
    assert abdriver._seeds(text) == expected


def perfbench_run(value, slow, digest="d", iterations=2, stop="residual"):
    """One side of a pair as ``_run_perfbench`` returns it."""
    return {
        "digest": digest,
        "iterations": {"task": iterations},
        "refine_stops": {"task": stop},
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "failures": [],
        "metrics": {"solve_s.gmean": value, "setup_s": slow},
        "units": {"solve_s.gmean": "s", "setup_s": "s"},
    }


def test_summary_of_synthetic_pairs():
    runs = [(perfbench_run(p, 1.0 + k), perfbench_run(c, 9.0)) for k, (p, c) in
            enumerate([(1.0, 0.5), (2.0, 1.5), (3.0, 3.5)])]
    summary = abdriver._summary(runs)
    solve = summary["metrics"]["solve_s.gmean"]
    assert solve["parent"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}
    assert solve["change"] == {"q1": 1.0, "median": 1.5, "q3": 2.5}
    assert solve["parent_runs"] == [1.0, 2.0, 3.0] and solve["change_runs"] == [0.5, 1.5, 3.5]
    assert (solve["change_better_pairs"], solve["pairs"]) == (2, 3)
    assert solve["change_over_parent"] == 0.75
    assert not solve["median_gap_exceeds_parent_iqr"]  # |1.5 - 2| <= 2.5 - 1.5
    setup = summary["metrics"]["setup_s"]
    assert setup["change_better_pairs"] == 0 and setup["median_gap_exceeds_parent_iqr"]  # 9 - 2 > 1
    assert summary["digests_match"] and summary["iterations_match"] and summary["refine_stops_match"]
    assert summary["correct"] == {"parent": True, "change": True}
    assert summary["attempted"] == {"parent": [10] * 3, "change": [10] * 3}

    runs[1] = (runs[1][0], perfbench_run(1.5, 9.0, digest="other", iterations=3, stop="stagnation"))
    summary = abdriver._summary(runs)
    assert not summary["digests_match"]
    assert not summary["iterations_match"]
    assert not summary["refine_stops_match"]


@pytest.fixture
def run(tmp_path, monkeypatch):
    """A ``Run`` over two empty trees whose probes and perfbench runs are
    recorded, not started."""
    calls = []

    def probe(self, side, kind):
        calls.append((side, kind))
        return {"side": side}

    def perfbench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed))
        return perfbench_run(float(seed), 1.0)

    monkeypatch.setattr(abdriver.Run, "probe", probe)
    monkeypatch.setattr(abdriver, "_run_perfbench", perfbench)
    args = argparse.Namespace(parent=tmp_path / "parent", change=tmp_path / "change",
                              out=tmp_path / "out.json", rounds=3, pairs=["variants=1-3"], seconds=5.0)
    driver = abdriver.Run("bench.py", args, "a test")
    driver.calls = calls
    return driver


def test_rounds_alternate_which_tree_goes_first(run):
    probes = run.alternate("10", 3)
    assert run.calls == [("parent", "10"), ("change", "10"), ("change", "10"), ("parent", "10"),
                         ("parent", "10"), ("change", "10")]
    assert probes == {side: [{"side": side}] * 3 for side in ("parent", "change")}


def test_pairs_alternate_which_tree_goes_first_and_save_each_pair(run):
    run.pairs(claimed="variants solve_s.gmean")
    assert run.calls == [("parent", "variants", 1), ("change", "variants", 1),
                         ("change", "variants", 2), ("parent", "variants", 2),
                         ("parent", "variants", 3), ("change", "variants", 3)]
    section = run.doc["end_to_end"]
    assert section["command"].startswith("python3 perfbench/run.py") and "--seconds 5 " in section["command"]
    assert section["method"] == abdriver.PAIRS_METHOD and section["claimed"] == "variants solve_s.gmean"
    into = section["workloads"]
    assert into["variants"]["seeds"] == [1, 2, 3]
    assert into["variants"]["metrics"]["solve_s.gmean"]["parent_runs"] == [1.0, 2.0, 3.0]
    saved = json.loads(run.args.out.read_text())
    assert saved == json.loads(json.dumps(run.doc))
    assert list(saved)[:4] == ["schema", "what", "revisions", "machine"]

    run.args.pairs, run.calls[:] = [], []
    del run.doc["end_to_end"]
    run.pairs()
    assert "end_to_end" not in run.doc and run.calls == []


def test_over_rounds_takes_medians_of_floats_and_keeps_what_the_rounds_agree_on():
    rounds = [
        {"a": {"s": 3.0, "n": 10, "stop": "residual", "reps": 7}, "modes": {"two-step": 2}, "mb": 1.5},
        {"a": {"s": 1.0, "n": 10, "stop": "residual", "reps": 9}, "modes": {"two-step": 2}, "mb": 0.5},
        {"a": {"s": 2.0, "n": 10, "stop": "max_iters", "reps": 7}, "modes": {"two-step": 2}, "mb": 2.5},
    ]
    assert abdriver.over_rounds(rounds) == {
        "a": {"s": 2.0, "n": 10, "stop": ["residual", "residual", "max_iters"], "reps": [7, 9, 7]},
        "modes": {"two-step": 2},
        "mb": 1.5,
    }


def test_main_runs_a_probe_or_checks_the_trees(capsys, tmp_path):
    def main(*argv):
        return abdriver.main("bench.py", "Doc line.\n", "what", "out.json", 3, "rounds",
                             {"k": lambda: {"a": 1}}, measure=None, argv=list(argv))

    assert main("--probe", "k") == 0
    assert json.loads(capsys.readouterr().out) == {"a": 1}
    for argv in ([], ["--parent", str(tmp_path)], ["--parent", ".", "--change", ".", "--rounds", "0"]):
        with pytest.raises(SystemExit):
            main(*argv)
