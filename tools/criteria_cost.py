"""Wall time, peak memory and page faults of one acceptance experiment.

    python3 tools/criteria_cost.py embedding-ratio
    python3 tools/criteria_cost.py dual-route --root /path/to/other/checkout

Runs `klab.verify.EXPERIMENTS[NAME]()`, the run that `klab verify NAME` and
the acceptance test of that criterion make, once in this process, with
klab imported from the `src/` of --root (default: this checkout).  Start
one process per measurement, so that no earlier run's memory counts, and
alternate the two trees when comparing a change with its parent.  Prints
one JSON line: the experiment's wall seconds, the process's user and
system CPU seconds, peak resident memory (ru_maxrss) in MB and minor page
faults, and the report's own verdict.  Standard library and klab only.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("name", help="a klab.verify.EXPERIMENTS key")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="klab checkout whose src/ to import")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    from klab.verify import EXPERIMENTS
    if not Path(sys.modules["klab"].__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported klab from {sys.modules['klab'].__file__}"
                 f", not from {src}")
    if args.name not in EXPERIMENTS:
        sys.exit(f"error: no experiment {args.name!r}; choose from "
                 + ", ".join(EXPERIMENTS))
    t0 = time.perf_counter()
    report = EXPERIMENTS[args.name]()
    seconds = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"experiment": args.name, "root": str(args.root),
                      "passed": bool(report.passed),
                      "seconds": round(seconds, 3),
                      "user_s": round(usage.ru_utime, 3),
                      "system_s": round(usage.ru_stime, 3),
                      "maxrss_mb": round(usage.ru_maxrss / 1024.0, 1),
                      "minor_faults": usage.ru_minflt}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
