"""Compare a parent commit with the working tree on one benchmark workload.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload norm-ladders \
        --seeds 1-10 --out BENCH_mychange_norm-ladders.json

Run it from the root of a klab checkout.  Both sides run from copies in
two sibling directories of one temporary directory, removed again at the
end: the parent's committed files are extracted with git archive, and the
working tree's tracked files are copied as they are, uncommitted edits
included (stage a new file to take it along).  Where a tree lies moves
perfbench's timings by several per cent, so neither side runs from the
checkout itself.  For every seed the two sides run perfbench/run.py for
the run_seconds of BENCHMARK.json one after the other, with the side that
runs first swapped from one pair to the next, so drift in the host's speed
falls on both.  For each end-to-end metric of BENCHMARK.json the tool prints the
median and quartiles on each side, how many pairs the change won (ties
count for neither side), the parent's interquartile range, and whether
the change median is worse than the parent median by more than the
metric's relative bound (the no-regression rule); then the failed and
attempted operation counts of each side.  With --out it also
writes that summary as JSON, with the seeds, the run length, both sides'
commits and the provenance their benchmark runs printed.

    python3 tools/bench_pairs.py --trajectory

prints instead, per workload and end-to-end metric, the parent and change
medians of every committed BENCH_*.json, in the order of the commits that
added them.  Standard library only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """'1-10' or '3,5,8' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="git ref to compare")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=parse_seeds,
                        help="seed list, e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path,
                        help="write the summary to this JSON file")
    parser.add_argument("--trajectory", action="store_true",
                        help="print the committed BENCH_*.json medians")
    args = parser.parse_args(argv)
    if not args.trajectory and None in (args.parent, args.workload,
                                        args.seeds):
        parser.error("--parent, --workload and --seeds are required "
                     "without --trajectory")
    return args


def run_side(root, workload, seed, seconds):
    """One untraced benchmark run; returns its closing JSON object, with
    the provenance line the run printed first under "provenance"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited "
                 f"{out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines()
             if line.startswith("{")]
    return dict(lines[-1], provenance=lines[0]["provenance"])


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def beyond_bound(parent, change, better, bound):
    """True when change is worse than parent by more than bound * |parent|;
    None for a metric without a bound."""
    if bound is None:
        return None
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change - parent) > bound * abs(parent)


def summary(metrics, results):
    """Per end-to-end metric: each side's median and quartiles, the pairs
    the change won, the parent's interquartile range and whether the
    change median breaks the metric's bound; per side: the failed and
    attempted operations."""
    out = {"metrics": {}, "operations": {}}
    for spec in metrics:
        name = spec["name"]
        sides = {side: [r["metrics"][name]["value"] for r in results[side]]
                 for side in ("parent", "change")}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        row = {"unit": spec["unit"], "better": spec["better"],
               "wins": sum(sign * (c - p) < 0 for p, c
                           in zip(sides["parent"], sides["change"])),
               "pairs": len(sides["parent"])}
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles(sides[side])
            row[side] = {"median": q2, "q1": q1, "q3": q3,
                         "values": sides[side]}
        row["parent_iqr"] = row["parent"]["q3"] - row["parent"]["q1"]
        row["bound"] = spec.get("bound")
        row["worse_beyond_bound"] = beyond_bound(
            row["parent"]["median"], row["change"]["median"], spec["better"],
            row["bound"])
        out["metrics"][name] = row
    for side in ("parent", "change"):
        out["operations"][side] = {
            "failed": sum(r["failed"] for r in results[side]),
            "attempted": sum(r["attempted"] for r in results[side])}
    return out


def print_summary(summ):
    """One row per end-to-end metric, then the operation counts."""
    print(f"{'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s} {'parent IQR':>11s} "
          f"{'bound':>13s}")
    for name, row in summ["metrics"].items():
        cols = [f"{row[side]['median']:.4f} [{row[side]['q1']:.4f}, "
                f"{row[side]['q3']:.4f}] {row['unit']}"
                for side in ("parent", "change")]
        wins = f"{row['wins']:>3d}/{row['pairs']:<3d}"
        verdict = {None: "-", False: "held", True: "WORSE"}[
            row["worse_beyond_bound"]]
        bound = "" if row["bound"] is None else f"{row['bound']:.0%} "
        print(f"{name:14s} {cols[0]:>34s} {cols[1]:>34s} {wins} "
              f"{row['parent_iqr']:11.4f} {bound + verdict:>13s}")
    for side, ops in summ["operations"].items():
        print(f"{side}: {ops['failed']} failed of {ops['attempted']} "
              f"operations attempted")


def git(*args, root=ROOT):
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def side_trees(parent, tmp, root=ROOT):
    """Copies of the parent commit and of root's working tree in the
    sibling directories tmp/parent and tmp/change: {side: path}."""
    trees = {side: Path(tmp) / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=root,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive,
                   check=True)
    for name in git("ls-files", "-z", root=root).split("\0"):
        # a tracked file deleted in the working tree is left out
        if name and (root / name).is_file():
            dest = trees["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest)
    return trees


def committed_bench_files(root=ROOT):
    """(commit, file name) of each committed BENCH_*.json still in the
    tree, in the order of the commits that added them."""
    log = git("log", "--reverse", "--diff-filter=A", "--name-only",
              "--format=commit %h", "--", "BENCH_*.json", root=root)
    out, commit = [], None
    for line in log.splitlines():
        if line.startswith("commit "):
            commit = line.split()[1]
        elif line and (root / line).exists():
            out.append((commit, line))
    return out


def trajectory(root=ROOT):
    """{(workload, metric): [(commit, change name, metric row), ...]} over
    the committed BENCH_*.json files, in commit order."""
    rows = {}
    for commit, name in committed_bench_files(root):
        summ = json.loads((root / name).read_text())
        tag = name[len("BENCH_"):-len(f"_{summ['workload']}.json")]
        for metric, row in summ["metrics"].items():
            rows.setdefault((summ["workload"], metric), []).append(
                (commit, tag, row))
    return rows


def print_trajectory(rows):
    """One block per workload and metric, one line per committed pair."""
    for (workload, metric), series in sorted(rows.items()):
        print(f"{workload} {metric}")
        for commit, tag, row in series:
            parent, change = row["parent"]["median"], row["change"]["median"]
            rel = (change / parent - 1.0) * 100.0 if parent else float("nan")
            print(f"  {commit:9s} {tag:24s} {parent:9.4f} -> {change:.4f} "
                  f"{row['unit']:3s} {rel:+6.1f} %  "
                  f"{row['wins']}/{row['pairs']} won")


def main(argv=None):
    args = parse_args(argv)
    if args.trajectory:
        print_trajectory(trajectory())
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        roots = side_trees(args.parent, tmp)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 \
                else ("change", "parent")
            for side in order:
                results[side].append(run_side(roots[side], args.workload,
                                              seed, bench["run_seconds"]))
            row = "  ".join(
                f"{side} run_s {results[side][-1]['metrics']['run_s']['value']:.4f}"
                for side in order)
            print(f"seed {seed}: {row}", flush=True)
    summ = summary(bench["end_to_end"], results)
    print_summary(summ)
    if args.out:
        change = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            change += " with uncommitted changes"
        summ.update(
            workload=args.workload, seeds=args.seeds,
            run_seconds=bench["run_seconds"],
            commits={"parent": git("rev-parse", args.parent),
                     "change": change},
            provenance={side: [r["provenance"] for r in results[side]]
                        for side in ("parent", "change")})
        args.out.write_text(json.dumps(summ, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
