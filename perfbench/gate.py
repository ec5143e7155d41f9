"""Correctness gate of the benchmark.

An operation fails when its experiment's own pass conditions fail, when a
headline statistic differs from the reference table by more than
REL_TOL relative, or when the family drawn so far in its group breaks the
spread bound or the reference spread.
"""

import json
from pathlib import Path

REL_TOL = 1e-10
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload, size, perturb=0.0):
    """Reference statistics {op key: {name: value}}; `perturb` scales every
    float by (1 + perturb), so that a working gate reports failures."""
    with open(REFERENCE) as f:
        table = json.load(f)["workloads"][workload][size]
    if perturb:
        table = {key: {name: v * (1.0 + perturb) if type(v) is float else v
                       for name, v in stats.items()}
                 for key, stats in table.items()}
    return table


def _close(value, expected):
    if type(expected) is float:
        return abs(value - expected) <= REL_TOL * abs(expected)
    return value == expected


def _spread(ratios):
    return max(ratios) / min(ratios)


class Gate:
    def __init__(self, reference):
        self.reference = reference
        self._families = {}     # group -> {op key: (ratio, reference ratio)}

    def check(self, op, result):
        """Failures of one operation, judged from its result."""
        stats, failures = op.judge(result)
        expected = self.reference.get(op.key)
        if expected is None:
            return failures + [f"{op.key}: no reference entry"]
        failures += [f"{name} = {value!r}, reference {expected.get(name)!r}"
                     for name, value in stats.items()
                     if name not in expected or not _close(value,
                                                           expected[name])]
        if op.group:
            family = self._families.setdefault(op.group, {})
            family[op.key] = (stats["ratio"], expected["ratio"])
            spread = _spread([r for r, _ in family.values()])
            reference = _spread([r for _, r in family.values()])
            if not spread < op.bound:
                failures.append(f"{op.group} spread {spread!r} >= {op.bound}")
            if not _close(spread, reference):
                failures.append(f"{op.group} spread {spread!r}, "
                                f"reference {reference!r}")
        return failures
