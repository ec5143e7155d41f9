"""Span tracing of klab's layers from outside the library.

While installed, the tracer replaces public functions of each layer, at
every place where their callers look them up, by wrappers that record a
span: name, start, end, parent span and a work count (points, nodes,
coefficients, cells or cubes).  Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children,
so the self times of all spans under a root add up to the root's
duration.
"""

import math
import time

import numpy as np

_MISSING = object()

# traced layers reported with calls and self time: (span name, work count)
LAYERS = (
    ("profiles.cap", "points"),
    ("testfns.jet", "points"),
    ("jets.mul", None),
    ("jets.compose", None),
    ("geometry.psi_jet", "points"),
    ("norms.piece", None),
    ("norms.level_nodes", "nodes"),
    ("norms.integral_ladder", None),
    ("wavelets.coefficients", "count"),
    ("wavelets.square_fn", "cells"),
)

# Times of layers that some workload never calls read exactly zero on every
# run of that workload.  They are printed with the other per-layer metrics,
# but the result line carries only times that every workload measures.
PRINTED_ONLY = frozenset((
    "geometry.psi_jet.self_s", "norms.piece.self_s",
    "norms.piece.ms_per_piece", "wavelets.coefficients.self_s",
    "wavelets.coefficients.ns_per_coef", "wavelets.square_fn.self_s",
    "norms.radial_reference.s", "embeddings.decide.s", "wavelets.system.s",
    "geometry.whitney_cover.self_s"))


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, work count]
        self._stack = []
        self._patches = []    # (owner, attribute, previous own value)

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` gives
        the span's work count."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = int(count(args, result))
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions of the imported klab package.

        Work counts are taken after a span ends, so their cost falls to
        the parent span and shows in the tracing overhead."""
        from klab import (embeddings, geometry, jets, norms, profiles,
                          testfns, verify, wavelets)
        sites = [
            ("profiles.cap", [(profiles.CAP, "derivs")],
             lambda a, r: np.size(a[0])),
            ("testfns.jet", [(testfns.TestFunction, "jet")],
             lambda a, r: np.size(a[1]) // a[0].domain.d),
            # __rmul__ is an alias of __mul__, so both slots get the span
            ("jets.mul", [(jets.Jet, "__mul__"), (jets.Jet, "__rmul__")],
             None),
            ("jets.compose", [(jets.Jet, "compose")], None),
            ("geometry.psi_jet", [(geometry.PartitionOfUnity, "psi_jet")],
             lambda a, r: np.size(a[1]) // a[0].d),
            # verify imports these by name, so its copies are patched too
            ("norms.piece", [(norms, "kondratiev_piece_power"),
                             (verify, "kondratiev_piece_power")], None),
            ("norms.level_nodes", [(norms, "level_nodes")],
             lambda a, r: r[1].size),
            ("norms.integral_ladder", [(norms, "integral_ladder")], None),
            ("norms.radial_reference",
             [(norms, "radial_reference_integral"),
              (verify, "radial_reference_integral")], None),
            ("geometry.whitney_cover", [(geometry, "whitney_cover"),
                                        (verify, "whitney_cover")],
             lambda a, r: sum(len(ks) for ks in r.levels.values())),
            # verify imports the wavelet and embedding functions inside the
            # experiments, so the module attributes are where they look
            ("wavelets.coefficients", [(wavelets, "wavelet_coefficients")],
             lambda a, r: sum(arr.size for bands in r.levels.values()
                              for _, arr in bands.values())),
            ("wavelets.square_fn", [(wavelets, "f_sequence_norm")],
             lambda a, r: _square_fn_cells(wavelets, a[0])),
            ("wavelets.system", [(wavelets, "build_wavelet_system")], None),
            ("embeddings.decide", [(embeddings, "decide_embedding")], None),
        ]
        for name, places, count in sites:
            owner, attr = places[0]
            traced = self.wrap(name, getattr(owner, attr), count)
            for owner, attr in places:
                self._patch(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def _square_fn_cells(wavelets, grid):
    """Fine cells of the square-function grid (the box f_sequence_norm
    integrates over, at the finest level)."""
    box = wavelets._fine_box(grid)
    if box is None:
        return 0
    lo, hi = box
    return int(np.prod((hi - lo) * 2 ** grid.J))


def self_times(spans, roots):
    """Aggregate the trees under the given root span indices by name.

    Returns {name: [calls, self seconds, total seconds, work count]}.
    Roots must be the first span of a contiguous block that holds their
    whole tree, as a wrapped call that no other span encloses records.
    """
    stats = {}
    for root in roots:
        end = root + 1
        while end < len(spans) and spans[end][3] >= root:
            end += 1
        child = {}
        for i in range(root + 1, end):
            _, t0, t1, parent, _ = spans[i]
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for i in range(root, end):
            name, t0, t1, _, work = spans[i]
            entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += (t1 - t0) - child.get(i, 0.0)
            entry[2] += t1 - t0
            entry[3] += work
    return stats


def layer_metrics(stats, setup_stats):
    """Per-layer metrics of one traced pass (`stats`) and its set-up."""
    out = {}

    def get(name):
        return stats.get(name, [0, 0.0, 0.0, 0])

    for name, work in LAYERS:
        calls, self_s, _, count = get(name)
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
        if work:
            out[name + "." + work] = (count, "count")

    def rate(name, scale):
        _, _, total, count = get(name)
        return total * scale / count if count else 0.0

    out["profiles.cap.ns_per_point"] = (rate("profiles.cap", 1e9), "ns")
    out["wavelets.coefficients.ns_per_coef"] = (
        rate("wavelets.coefficients", 1e9), "ns")
    calls, _, total, _ = get("norms.piece")
    out["norms.piece.ms_per_piece"] = (total * 1e3 / calls if calls else 0.0,
                                       "ms")
    out["norms.radial_reference.s"] = (get("norms.radial_reference")[2], "s")
    out["embeddings.decide.calls"] = (get("embeddings.decide")[0], "count")
    out["embeddings.decide.s"] = (get("embeddings.decide")[2], "s")
    out["wavelets.system.s"] = (get("wavelets.system")[2], "s")
    out["geometry.whitney_cover.self_s"] = (
        get("geometry.whitney_cover")[1], "s")
    cover = setup_stats.get("geometry.whitney_cover", [0, 0.0, 0.0, 0])
    out["geometry.whitney_cover.s"] = (cover[2], "s")
    out["geometry.cover.cubes"] = (cover[3], "count")
    out["verify.glue.self_s"] = (
        sum(v[1] for k, v in stats.items() if k.startswith("verify.")), "s")
    return out


def self_sum_matches(stats, run_s):
    """The self times of every span name add up to the traced run time."""
    total = math.fsum(v[1] for v in stats.values())
    return abs(total - run_s) <= 1e-9 * max(run_s, 1.0)
