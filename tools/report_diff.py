"""Compare the `klab verify` reports of a parent commit with the working tree.

    python3 tools/report_diff.py --parent HEAD~1

Run it from the root of a klab checkout.  Both sides run from the sibling
copies of `bench_pairs.side_trees` (the parent's committed files and the
working tree's tracked files), and every `klab.verify.EXPERIMENTS` entry
of either side runs as `klab verify NAME --out DIR`, one process per
experiment and side, with the side that runs first swapped from one
experiment to the next.

Each experiment's JSON document and CSV are walked leaf by leaf, leaving
out `params.out` and `params.versions`; a CSV leaf is one cell, named by
its data row and column header.  Every leaf that differs is printed as
`experiment path old -> new relative`, where relative is |new - old| /
max(|old|, |new|) for two numbers and inf for any other change, a leaf
present on one side only included.  Each side's wall time per
experiment follows.  Exits 1 if a leaf moves beyond 1e-10 relative
or a `pass`/`passed` flag flips, and 0 otherwise.  Standard library only.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pairs import side_trees  # noqa: E402

TOLERANCE = 1e-10
SKIPPED = {("params", "out"), ("params", "versions")}
FLAGS = {"pass", "passed"}
MISSING = "<missing>"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare")
    return parser.parse_args(argv)


def json_leaves(doc, path=()):
    """{path: value} of every leaf of a JSON document; an empty dict or
    list is a leaf of its own."""
    if isinstance(doc, dict) and doc:
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return {} if path in SKIPPED else {path: doc}
    out = {}
    for key, value in items:
        if path + (key,) not in SKIPPED:
            out.update(json_leaves(value, path + (key,)))
    return out


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def csv_leaves(text):
    """{(row, column): value} of every data cell of a CSV text, as a float
    where the cell reads as one."""
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        return {}
    return {(i, name): _cell(cell) for i, row in enumerate(rows[1:])
            for name, cell in zip(rows[0], row)}


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative(old, new):
    """|new - old| / max(|old|, |new|) for two numbers (NaN equal to NaN),
    0 for equal leaves, inf for any other change."""
    if _number(old) and _number(new):
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        if not (math.isfinite(old) and math.isfinite(new)):
            return math.inf
        return abs(new - old) / max(abs(old), abs(new))
    return 0.0 if type(old) is type(new) and old == new else math.inf


def format_path(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out.lstrip(".")


def diff_leaves(old, new):
    """(path, old, new, relative) of every leaf that differs, in the
    order of the old side, then the leaves only the new side has."""
    rows = []
    for path in list(old) + [p for p in new if p not in old]:
        a, b = old.get(path, MISSING), new.get(path, MISSING)
        rel = relative(a, b)
        if rel:
            rows.append((path, a, b, rel))
    return rows


def report_leaves(outdir, name):
    """{path: value} of an experiment's stored JSON and CSV; a file that is
    not there gives no leaves."""
    leaves = {}
    doc = outdir / f"{name}.json"
    if doc.exists():
        leaves.update(json_leaves(json.loads(doc.read_text())))
    table = outdir / f"{name}.csv"
    if table.exists():
        leaves.update({("csv",) + key: value for key, value
                       in csv_leaves(table.read_text()).items()})
    return leaves


def _flag(value):
    """A pass flag as JSON (a bool) or a CSV cell writes it."""
    return isinstance(value, bool) or value in ("True", "False")


def compare_dirs(old_dir, new_dir, names):
    """Print every moved leaf of the named experiments; returns (moved,
    beyond the tolerance, flipped flags)."""
    moved = beyond = flips = 0
    for name in names:
        rows = diff_leaves(report_leaves(old_dir, name),
                           report_leaves(new_dir, name))
        for path, a, b, rel in rows:
            print(f"{name} {format_path(path)} {a!r} -> {b!r} {rel:.3g}")
            beyond += rel > TOLERANCE
            flips += path[-1] in FLAGS and _flag(a) and _flag(b)
        moved += len(rows)
    return moved, beyond, flips


def experiment_names(tree):
    """The EXPERIMENTS keys of a tree, in registry order."""
    code = "from klab.verify import EXPERIMENTS; print(*EXPERIMENTS)"
    out = subprocess.run([sys.executable, "-c", code], cwd=tree,
                         env=_env(tree), capture_output=True, text=True,
                         check=True)
    return out.stdout.split()


def _env(tree):
    return {**os.environ, "PYTHONPATH": str(Path(tree) / "src")}


def run_experiment(tree, name, outdir):
    """`klab verify NAME --out outdir` in the tree; its wall seconds."""
    cmd = [sys.executable, "-c",
           "import sys; from klab.cli import main; sys.exit(main())",
           "verify", name, "--out", str(outdir)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True,
                         text=True)
    seconds = time.perf_counter() - start
    if out.returncode not in (0, 1):           # 1: the report did not pass
        sys.exit(f"error: klab verify {name} in {tree} exited "
                 f"{out.returncode}:\n{out.stderr}")
    return seconds


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = side_trees(args.parent, tmp)
        known = {side: experiment_names(tree) for side, tree in trees.items()}
        names = known["change"] + [n for n in known["parent"]
                                   if n not in known["change"]]
        dirs = {side: Path(tmp) / "out" / side for side in trees}
        seconds = {side: {} for side in trees}
        for i, name in enumerate(names):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            for side in order:
                if name in known[side]:
                    seconds[side][name] = run_experiment(trees[side], name,
                                                         dirs[side])
        moved, beyond, flips = compare_dirs(dirs["parent"], dirs["change"],
                                            names)
    print(f"{'experiment':20s} {'parent s':>9s} {'change s':>9s}")
    for name in names:
        cols = [f"{seconds[side][name]:9.2f}" if name in seconds[side]
                else f"{'-':>9s}" for side in ("parent", "change")]
        print(f"{name:20s} {cols[0]} {cols[1]}")
    print(f"{moved} leaves moved, {beyond} beyond {TOLERANCE:g} relative, "
          f"{flips} pass flags flipped")
    return 1 if beyond or flips else 0


if __name__ == "__main__":
    sys.exit(main())
