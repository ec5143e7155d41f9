"""tools/report_diff.py on synthetic pairs of report trees: no experiment
runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

CSV = "member,ratio,passed\nb1.2,0.75,True\nb2.0,1.25,True\n"


def _doc(ratio=1.5, passed=True, out="/a/run", numpy="1.0"):
    return {"schema": "klab-report/1", "experiment": "alpha",
            "params": {"out": out, "versions": {"numpy": numpy},
                       "threads": {"OMP_NUM_THREADS": None}},
            "pass": passed,
            "statistics": {"ratio": ratio, "ladder": [1.0, 2.0],
                           "rows": [{"passed": passed}], "notes": []}}


def _tree(path, alpha, csv=CSV):
    path.mkdir()
    (path / "alpha.json").write_text(json.dumps(alpha))
    (path / "alpha.csv").write_text(csv)
    (path / "beta.json").write_text(json.dumps({"pass": True, "x": 2}))
    return path


def _run(tmp_path, capsys, new_alpha, new_csv=CSV):
    """compare_dirs over the two trees: its (moved, beyond, flips) and
    the lines it printed."""
    old = _tree(tmp_path / "old", _doc())
    new = _tree(tmp_path / "new", new_alpha, new_csv)
    counts = report_diff.compare_dirs(old, new, ["alpha", "beta"])
    return counts, capsys.readouterr().out.splitlines()


def test_one_moved_float_one_flipped_flag_one_identical_file(tmp_path,
                                                              capsys):
    # params.out and params.versions differ too, and are left out
    counts, moved = _run(tmp_path, capsys, _doc(ratio=1.5 * (1 + 1e-6),
                                                passed=False, out="/b/run",
                                                numpy="2.0"))
    assert counts == (3, 3, 2)
    ratio = next(line for line in moved if " statistics.ratio " in line)
    name, path, old, arrow, new, rel = ratio.split()
    assert (name, path, old, arrow) == ("alpha", "statistics.ratio", "1.5",
                                        "->")
    assert float(new) == 1.5 * (1 + 1e-6)
    assert float(rel) == pytest.approx(1e-6, rel=1e-3)
    assert "alpha pass True -> False inf" in moved
    assert "alpha statistics.rows[0].passed True -> False inf" in moved
    assert len(moved) == 3
    assert not any("params" in line or line.startswith("beta")
                   for line in moved)


def test_a_move_within_the_tolerance_is_printed_and_passes(tmp_path,
                                                           capsys):
    counts, lines = _run(tmp_path, capsys, _doc(ratio=1.5 * (1 + 4e-16)))
    assert counts == (1, 0, 0)
    assert len(lines) == 1 and lines[0].startswith("alpha statistics.ratio")


def test_identical_trees_move_nothing(tmp_path, capsys):
    counts, lines = _run(tmp_path, capsys, _doc())
    assert counts == (0, 0, 0)
    assert lines == []


def test_csv_cells_are_named_by_row_and_header(tmp_path, capsys):
    counts, lines = _run(tmp_path, capsys, _doc(),
                         CSV.replace("1.25,True", "1.5,False"))
    assert counts == (2, 2, 1)
    assert lines == ["alpha csv[1].ratio 1.25 -> 1.5 0.167",
                     "alpha csv[1].passed 'True' -> 'False' inf"]


def test_a_leaf_on_one_side_only_moves(tmp_path, capsys):
    doc = _doc()
    doc["statistics"]["extra"] = 3.0
    del doc["statistics"]["ladder"][1]
    counts, lines = _run(tmp_path, capsys, doc)
    assert counts == (2, 2, 0)
    assert lines == ["alpha statistics.ladder[1] 2.0 -> '<missing>' inf",
                     "alpha statistics.extra '<missing>' -> 3.0 inf"]


def test_relative_change():
    rel = report_diff.relative
    assert rel(2.0, 2.0) == rel(float("nan"), float("nan")) == 0.0
    assert rel(1, 1.0) == 0.0
    assert rel(2.0, 3.0) == pytest.approx(1 / 3)
    assert rel(1.0, float("inf")) == rel(True, 1.0) == rel("a", "b") \
        == float("inf")
