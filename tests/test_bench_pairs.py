"""tools/bench_pairs.py's summary, from synthetic results: no benchmark
process is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

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

