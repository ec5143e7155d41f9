"""tools/bench_pairs.py's summary, from synthetic results: no benchmark
process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "unit": "s", "better": "lower"},
           {"name": "ops_per_s", "unit": "1/s", "better": "higher"}]


def _result(run_s, rate, failed=0):
    return {"failed": failed, "attempted": 10,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "ops_per_s": {"value": rate, "unit": "1/s"}}}


def test_summary_medians_quartiles_wins_and_operations():
    results = {
        "parent": [_result(v, 10.0) for v in (1.0, 2.0, 3.0, 4.0, 5.0)],
        "change": [_result(v, r, f) for v, r, f in
                   ((0.5, 11.0, 0), (2.5, 10.0, 0), (2.0, 9.0, 0),
                    (3.0, 10.0, 0), (5.0, 10.0, 1))]}
    summ = bench_pairs.summary(METRICS, results)
    run = summ["metrics"]["run_s"]
    # three pairs won, one lost, one tie (which counts for neither side)
    assert (run["wins"], run["pairs"]) == (3, 5)
    assert run["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5,
                             "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert (run["change"]["q1"], run["change"]["median"],
            run["change"]["q3"]) == (1.25, 2.5, 4.0)
    assert run["parent_iqr"] == 3.0
    # higher is better: only the first pair is won
    assert summ["metrics"]["ops_per_s"]["wins"] == 1
    assert summ["operations"] == {"parent": {"failed": 0, "attempted": 50},
                                  "change": {"failed": 1, "attempted": 50}}
    json.dumps(summ)


def test_summary_of_one_pair_and_its_printout(capsys):
    summ = bench_pairs.summary(METRICS, {"parent": [_result(2.0, 1.0)],
                                         "change": [_result(1.0, 1.0)]})
    assert summ["metrics"]["run_s"]["parent"]["median"] == 2.0
    assert summ["metrics"]["run_s"]["parent_iqr"] == 0.0
    bench_pairs.print_summary(summ)
    out = capsys.readouterr().out
    assert "1.0000 [1.0000, 1.0000] s" in out and "  1/1" in out
    assert "change: 0 failed of 10 operations attempted" in out


def test_no_regression_rule_inside_and_outside_the_bound(capsys):
    metrics = [dict(m, bound=0.25) for m in METRICS]
    # run_s 1.0 -> 1.2 is 20 % worse, inside the bound; ops_per_s
    # 10 -> 7 is 30 % worse (higher is better), outside it
    summ = bench_pairs.summary(metrics, {"parent": [_result(1.0, 10.0)],
                                         "change": [_result(1.2, 7.0)]})
    assert summ["metrics"]["run_s"]["worse_beyond_bound"] is False
    assert summ["metrics"]["ops_per_s"]["worse_beyond_bound"] is True
    assert summ["metrics"]["run_s"]["bound"] == 0.25
    bench_pairs.print_summary(summ)
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("25% held") and out[2].endswith("25% WORSE")
    # without a bound the metric is not judged
    assert bench_pairs.summary(METRICS, {"parent": [_result(1.0, 10.0)],
                                         "change": [_result(9.0, 1.0)]}
                               )["metrics"]["run_s"]["worse_beyond_bound"] \
        is None


def test_metric_is_unresolved_when_the_parent_spread_exceeds_the_bound(
        capsys):
    # run_s: parent IQR 0.3 against 0.25 * 1.0, so unresolved even though
    # the change median holds; ops_per_s: IQR 1.5 against 0.25 * 10.0
    metrics = [dict(m, bound=0.25) for m in METRICS]
    summ = bench_pairs.summary(metrics, {
        "parent": [_result(v, r) for v, r in
                   ((0.8, 9.0), (0.9, 9.5), (1.0, 10.0), (1.1, 10.5),
                    (1.2, 11.0))],
        "change": [_result(1.0, 10.0)] * 5})
    run, rate = summ["metrics"]["run_s"], summ["metrics"]["ops_per_s"]
    assert run["parent_iqr"] == pytest.approx(0.3, abs=1e-15)
    assert (run["unresolved"], run["worse_beyond_bound"]) == (True, False)
    assert rate["parent_iqr"] == 1.5 and rate["unresolved"] is False
    bench_pairs.print_summary(summ)
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith("25% held unresolved")
    assert out[2].endswith("25% held")
    # at the bound exactly the metric is resolved; without one, not judged
    edge = bench_pairs.summary(metrics, {
        "parent": [_result(v, 10.0) for v in (0.875, 1.0, 1.125)],
        "change": [_result(1.0, 10.0)] * 3})["metrics"]["run_s"]
    assert edge["parent_iqr"] == 0.25 and edge["unresolved"] is False
    assert bench_pairs.summary(METRICS, {"parent": [_result(1.0, 10.0)],
                                         "change": [_result(9.0, 1.0)]}
                               )["metrics"]["run_s"]["unresolved"] is None


def test_run_side_keeps_the_result_and_the_provenance(monkeypatch):
    lines = [json.dumps({"provenance": {"seed": 7, "commit": None}}),
             "run_s 0.1 s", json.dumps(_result(0.1, 3.0))]

    def fake_run(cmd, **kwargs):
        assert "--seed" in cmd and "7" in cmd
        return subprocess.CompletedProcess(cmd, 0, "\n".join(lines), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.run_side(Path("."), "norm-ladders", 7, 30)
    assert got == dict(_result(0.1, 3.0),
                       provenance={"seed": 7, "commit": None})



def _bench_file(workload, parent, change):
    row = {"unit": "s", "better": "lower", "wins": 9, "pairs": 10,
           "parent": {"median": parent}, "change": {"median": change}}
    return json.dumps({"workload": workload, "metrics": {"run_s": row}})


def test_trajectory_follows_the_commits_that_added_the_files(tmp_path,
                                                             capsys):
    # the later-named file is committed first, so commit order, not name
    # order, decides the trajectory
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    for name, parent, change in (("BENCH_zeta_localization.json", 0.2, 0.1),
                                 ("BENCH_alpha_localization.json", 0.1,
                                  0.05)):
        (tmp_path / name).write_text(_bench_file("localization", parent,
                                                 change))
        git("add", name)
        git("commit", "-q", "-m", name)
    rows = bench_pairs.trajectory(tmp_path)
    series = rows[("localization", "run_s")]
    assert [tag for _, tag, _ in series] == ["zeta", "alpha"]
    assert [(r["parent"]["median"], r["change"]["median"])
            for _, _, r in series] == [(0.2, 0.1), (0.1, 0.05)]
    bench_pairs.print_trajectory(rows)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "localization run_s"
    assert "zeta" in out[1] and "0.2000 -> 0.1000 s" in out[1]
    assert "-50.0 %" in out[1] and "9/10 won" in out[1]
    assert "alpha" in out[2] and len(out) == 3


def test_both_sides_run_from_sibling_copies(tmp_path):
    # the parent side holds the commit, the change side the working tree
    # with its uncommitted edit; a tracked file deleted from the working
    # tree is not copied
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.txt").write_text("old\n")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("scratch\n")
    tmp = tmp_path / "sides"
    tmp.mkdir()
    trees = bench_pairs.side_trees("HEAD", tmp, root=repo)
    assert trees["parent"].parent == trees["change"].parent == tmp
    assert trees["parent"] != trees["change"]
    assert (trees["parent"] / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert (trees["change"] / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert (trees["parent"] / "gone.txt").exists()
    assert not (trees["change"] / "gone.txt").exists()
    assert not (trees["change"] / "untracked.txt").exists()
