"""Fixed calibration work: a probe of the host's current speed.

On a shared host the same code runs up to 1.7 times slower while other
tenants are busy, and the slowdown lasts from seconds to minutes.  The
benchmark runs a probe between operations and divides each operation's
time by the mean probe time around it, which cancels most of that drift.

A probe is made of parts, each one kind of work klab's hot paths do and
each about PART_REF_S long at the reference speed: interpreted Python,
NumPy on small arrays (one 64-node cube at a time), and NumPy streaming
over a large array into a fresh one.  A workload's probe holds the kinds
of work the workload does, since different kinds of work slow down by
different amounts.  Nothing here depends on klab, so a change to klab moves
the benchmark's numbers in full.
"""

import time

import numpy as np

PART_REF_S = 0.0035
_COEF = np.array([0, 0, 0, 0, 0, 126, -420, 540, -315, 70], dtype=float)
_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 1 << 21)


def _python():
    x = 0
    for i in range(35_000):
        x += i * i % 7
    return x


def _small_arrays():
    a = _SMALL
    for _ in range(75):
        b = np.polynomial.polynomial.polyval(a, _COEF)
        c = np.where(a > 0.5, b, a * b)
        np.stack([a, b, c]).sum(axis=0)
        np.exp(-a) * np.sqrt(a + 1.0)


def _large_array():
    return _LARGE * 2.0


PARTS = {"python": _python, "small": _small_arrays, "large": _large_array}


class Probe:
    def __init__(self, parts):
        self.parts = [PARTS[name] for name in parts]
        self.ref_s = PART_REF_S * len(self.parts)   # time at reference speed

    def __call__(self):
        """Wall seconds of one run of the probe."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start
