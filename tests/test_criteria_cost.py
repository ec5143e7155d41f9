"""tools/criteria_cost.py on the cheapest experiment, in its own process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_truth_table_cost_line():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "criteria_cost.py"),
         "truth-table"], capture_output=True, text=True, timeout=120,
        check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["experiment"] == "truth-table"
    assert rec["passed"] is True
    assert 0.0 < rec["seconds"] < 60.0
    assert rec["maxrss_mb"] > 0.0
    assert rec["minor_faults"] > 0
    assert set(rec) == {"experiment", "root", "passed", "seconds", "user_s",
                        "system_s", "maxrss_mb", "minor_faults"}


def test_unknown_experiment_exits_nonzero():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "criteria_cost.py"),
         "no-such-experiment"], capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "no experiment" in out.stderr
