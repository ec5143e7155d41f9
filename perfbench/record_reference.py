"""Record the correctness gate's reference table from this checkout.

    python3 perfbench/record_reference.py

Evaluates every operation that any seed can draw, at both sizes, and
writes perfbench/reference.json.  Refuses to write when an operation fails
its experiment's own pass conditions.
"""

import json
import sys

from run import import_klab, git_commit


def main():
    import_klab()
    import gate
    import workloads

    table = {}
    for name, spec in workloads.WORKLOADS.items():
        for size in ("full", "tiny"):
            entries = table.setdefault(name, {}).setdefault(size, {})
            for op in spec(size).ops():
                stats, failures = op.judge(op.call())
                if failures:
                    sys.exit(f"{name} {size} {op.key}: {failures}")
                entries[op.key] = stats
                print(name, size, op.key, stats, flush=True)
    with open(gate.REFERENCE, "w") as f:
        json.dump({"commit": git_commit(), "tolerance": gate.REL_TOL,
                   "workloads": table}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
