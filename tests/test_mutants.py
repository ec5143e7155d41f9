"""tools/mutants.py on a two-comparison fixture tree, in its own process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"

MODULE = '''\
def clamp(x):
    if x < 0:
        return 0
    return x


def top(a, b):
    return a if a > b else b
'''

TESTS = '''\
from mod import clamp, top


def test_clamp():
    assert clamp(-1) == 0 and clamp(2) == 2


def test_top_of_equals():
    assert top(3, 3) == 3
'''


def make_tree(tmp_path, tests=TESTS):
    (tmp_path / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(tests)


def run_tool(tmp_path):
    return subprocess.run([sys.executable, str(TOOL), "mod.py", "--",
                           "test_mod.py"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)


def test_prints_the_survivor_and_not_the_killed_mutant(tmp_path):
    # clamp's `<` is killed by clamp(-1); top's `>` is equivalent on a == b
    make_tree(tmp_path)
    out = run_tool(tmp_path)
    assert out.returncode == 1
    assert out.stdout.splitlines() == ["mod.py:8:18 > -> <="]
    assert "2 mutants, 1 killed, 1 survived" in out.stderr
    assert (tmp_path / "mod.py").read_text() == MODULE


def test_a_failing_unmutated_tree_exits_2(tmp_path):
    make_tree(tmp_path, TESTS + "\n\ndef test_broken():\n    assert False\n")
    out = run_tool(tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unmutated tree fails" in out.stderr
