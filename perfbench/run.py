"""Run one workload of the klab benchmark and print its metrics.

    python3 perfbench/run.py --workload norm-ladders --seed 7 --seconds 30 --trace 0

Run it from the root of a klab checkout; it measures the klab under src/.
One process runs a closed loop: the seed draws a pass of operations, and
the pass repeats, one operation at a time, until --seconds have passed.
A metric of one pass sums, over its operations, the median of each
operation's repetitions.  Set-up is timed in separate processes, from
process start to the point where the first operation would begin.

run_s and cpu_s are in reference seconds: every repetition lies between
two runs of a fixed calibration probe (calibration.py) that does the kinds
of work the workload does, and its time is divided by the mean of the two
probe times and multiplied by the probe's time at the reference speed.
This cancels most of the shared host's drift in speed.  The wall and CPU
times as measured are printed as well.

--trace 0 prints the end-to-end metrics.  --trace 1 spends the first half
of the time untraced and the second half with every traced layer wrapped,
and prints the per-layer metrics of the median repetitions; the spans go
to perfbench/out/.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "KLAB_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wavelet-route", "norm-ladders",
                                 "localization"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the benchmark's self-test sizes")
    parser.add_argument("--perturb-reference", type=float, default=0.0,
                        metavar="REL", help="scale every float of the "
                        "reference table by 1 + REL")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_klab():
    """Import klab from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "klab" / "__init__.py").is_file():
        sys.exit(f"error: no klab source at {src}")
    sys.path.insert(0, str(src))
    import klab
    if Path(klab.__file__).resolve().parent != src / "klab":
        sys.exit(f"error: imported klab from {klab.__file__}, not {src}")


def provenance(args):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "klab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": git_commit(), "klab_sha256": digest.hexdigest()}


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def setup_seconds(args):
    """Median over fresh processes of process start to set-up done."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or code != 0:
            sys.exit("error: set-up process failed")
    return statistics.median(times)


def run_passes(ops, seconds, gate, probe, tracer=None, warmup=0):
    """Repeat the pass until `seconds` have passed and every operation has
    a sample; the first `warmup` passes are checked but not sampled.
    Returns per-operation samples (wall s, cpu s, root span index, mean
    time of `probe` around it), the operations attempted and the
    operations failed."""
    samples = [[] for _ in ops]
    attempted = failed = passes = 0
    start = time.perf_counter()
    before = probe()
    while True:
        for op, reps in zip(ops, samples):
            if time.perf_counter() - start >= seconds and all(samples):
                return samples, attempted, failed
            root = len(tracer.spans) if tracer else None
            call = tracer.wrap(op.span, op.call) if tracer else op.call
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                result = call()
                error = None
            except Exception:           # counted as a failed operation
                error = traceback.format_exc()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            after = probe()
            if passes >= warmup:
                reps.append((wall1 - wall0, cpu1 - cpu0, root,
                             (before + after) / 2))
            before = after
            failures = [error] if error else gate.check(op, result)
            attempted += 1
            if failures:
                failed += 1
                print(f"FAILED {op.key}: " + "; ".join(failures),
                      file=sys.stderr)
        passes += 1


def median_low(values):
    return sorted(values)[(len(values) - 1) // 2]


def pass_sum(samples, field):
    """Sum over operations of the median repetition of one field."""
    return sum(median_low([rep[field] for rep in reps]) for reps in samples)


def pass_ref(samples, field, probe):
    """pass_sum in reference seconds: each repetition is divided by the
    probe time around it and multiplied by the probe's reference time."""
    return probe.ref_s * sum(median_low([rep[field] / rep[3] for rep in reps])
                             for reps in samples)


def main(argv=None):
    args = parse_args(argv)
    import_klab()
    import calibration
    import gate
    import tracer as tracing
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        spec(args.size).draw(random.Random(args.seed))
        print("ready", flush=True)
        return 0

    info = provenance(args)
    print(json.dumps({"provenance": info}), flush=True)
    setup_s = None if args.trace else setup_seconds(args)
    check = gate.Gate(gate.load_reference(args.workload, args.size,
                                          args.perturb_reference))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = spec(args.size)
    if tracer:
        tracer.uninstall()
    ops = workload.draw(random.Random(args.seed))
    print(f"pass: {len(ops)} operations: " + ", ".join(op.key for op in ops),
          flush=True)

    window = args.seconds / 2 if args.trace else args.seconds
    probe = calibration.Probe(spec.PROBE)
    samples, attempted, failed = run_passes(ops, window, check, probe,
                                            warmup=1)
    run_s = pass_sum(samples, 0)
    correct = True
    if tracer:
        setup_roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
        tracer.install()
        try:
            traced, more, more_failed = run_passes(ops, window, check, probe,
                                                   tracer)
        finally:
            tracer.uninstall()
        attempted, failed = attempted + more, failed + more_failed
        spans = tracer.spans
        roots = [_median_root(spans, reps) for reps in traced]
        stats = tracing.self_times(spans, roots)
        traced_s = sum(spans[r][2] - spans[r][1] for r in roots)
        if not tracing.self_sum_matches(stats, traced_s):
            print("error: self times do not sum to the traced run time",
                  file=sys.stderr)
            correct = False
        metrics = tracing.layer_metrics(
            stats, tracing.self_times(spans, setup_roots))
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        _print_layers(stats, traced_s)
        _write_spans(args, info, spans, setup_roots, roots)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib = statistics.median(rep[3] for reps in samples for rep in reps)
        print(f"as measured: run {run_s:.6f} s, cpu {pass_sum(samples, 1):.6f}"
              f" s; median probe {calib * 1e3:.4f} ms, reference "
              f"{probe.ref_s * 1e3:.4f} ms")
        metrics = {"setup_s": (setup_s, "s"),
                   "run_s": (pass_ref(samples, 0, probe), "s"),
                   "cpu_s": (pass_ref(samples, 1, probe), "s"),
                   "peak_rss_mb": (peak, "MB")}
    for op, reps in zip(ops, samples):
        walls = sorted(rep[0] for rep in reps)
        print(f"op {op.key}: {len(reps)} untraced repetitions, "
              f"median {median_low(walls):.4f} s, "
              f"range {walls[0]:.4f}-{walls[-1]:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()
                                  if name not in tracing.PRINTED_ONLY}
                      }), flush=True)
    return 0


def _median_root(spans, reps):
    """Root span of the repetition with the median traced duration."""
    return median_low([(spans[r][2] - spans[r][1], r)
                       for _, _, r, _ in reps])[1]


def _print_layers(stats, traced_s):
    print(f"traced pass {traced_s:.6f} s; by span: "
          "calls, self s, total s, work count")
    for name, (calls, self_s, total, work) in sorted(
            stats.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:36s} {calls:8d} {self_s:12.6f} {total:12.6f} {work}")


def _write_spans(args, info, spans, setup_roots, roots):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    names = sorted({s[0] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    with open(out / f"spans-{args.workload}.json", "w") as f:
        json.dump({"provenance": info, "names": names,
                   "fields": ["name", "start", "end", "parent", "work"],
                   "spans": [[code[s[0]]] + s[1:] for s in spans],
                   "setupRoots": setup_roots, "medianRoots": roots}, f)


if __name__ == "__main__":
    sys.exit(main())
