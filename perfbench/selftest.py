"""Self-test of the benchmark at its tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that a run prints every end-to-end metric
(--trace 0) and every per-layer metric (--trace 1) of BENCHMARK.json with
its unit and no failed operation, that the traced run's table also lists
the per-layer times left out of the result line, and that the correctness
gate reports failures against a reference perturbed by 1e-6 relative.  It also checks
that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "3",
                           "--seconds", "1", "--size", "tiny"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines[-1] if lines else ""


def result_problems(args, specs, expect_failures=False, printed=(),
                    positive=False):
    """Problems of one run's result line against the metric specs (values
    above zero where `positive`), and metrics missing from the printed
    table."""
    proc, last = run(args)
    if proc.returncode != 0:
        return [f"{args}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(last)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["attempted"] >= 1:
        problems.append("no operation attempted")
    if expect_failures:
        if result["failed"] == 0 or result["correct"]:
            problems.append("perturbed reference reported no failure")
        return [f"{args}: {p}" for p in problems]
    if result["failed"] or not result["correct"]:
        problems.append(f"{result['failed']} failed operations\n"
                        f"{proc.stderr}")
    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(wanted):
        problems.append(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                        "missing or unexpected")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or positive and not value > 0:
            problems.append(f"{name}: value {value!r}")
    table = {(words[0], words[2]) for words in map(str.split,
                                                   proc.stdout.splitlines())
             if len(words) == 3}
    problems += [f"{name} {unit} not printed" for name, unit in printed
                 if (name, unit) not in table]
    return [f"{args}: {p}" for p in problems]


def bare_checkout_problems(bench):
    """The benchmark must fail, printing no result, without klab's source."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, last = run(["--workload", bench["workloads"][0]["name"]],
                         cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit code {proc.returncode}, "
                f"last line {last!r}"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    # per-layer metrics that only the printed table carries
    printed = [(name, unit) for name, (_, unit)
               in tracer.layer_metrics({}, {}).items()
               if name in tracer.PRINTED_ONLY]
    problems = bare_checkout_problems(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload]
        problems += result_problems(base + ["--trace", "0"],
                                    bench["end_to_end"], positive=True)
        problems += result_problems(base + ["--trace", "1"],
                                    bench["per_layer"], printed=printed)
        problems += result_problems(
            base + ["--perturb-reference", "1e-6"], bench["end_to_end"],
            expect_failures=True)
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("PROBLEM:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
