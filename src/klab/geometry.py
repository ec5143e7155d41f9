"""Domains, distance functions, Whitney decompositions, partitions of unity.

The domains are R^d minus the plane R^ell x {0}^(d-ell); d = 2, ell = 0 is
a planar vertex singularity.  Whitney covers are enumerated greedily level
by level; the frozen certificate constants are ``C1 = 1`` (lower),
``C2 = 4 sqrt(d)`` (upper) and ``C0_LEVEL0 = 1`` for the coarsest level.

Points are arrays of shape (d, n), one column per point (`as_points`); an
(n, d) array or a 1-D point raises InvalidParams.  Cube keys are stacks:
(N, d) per cube, or (d, n) per point for `PartitionOfUnity.bump_jet`.
"""

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import CoverageGap, InvalidParams, OutsideCover, SingularPoint
from .jets import Jet, squared_norm_jet
from .profiles import BUMP, CAP, MAX_ORDER

C1 = 1.0
C2_FACTOR = 4.0  # upper certificate constant is C2_FACTOR * sqrt(d)
C0_LEVEL0 = 1.0


def as_points(x, d):
    """x as a float array of shape (d, n); a float array is not copied."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != d:
        raise InvalidParams(f"points must have shape (d, n) = ({d}, n), "
                            f"got {x.shape}")
    return x


@dataclass(frozen=True)
class ModelDomain:
    """R^d with the plane R^ell x {0}^(d-ell) removed."""

    d: int
    ell: int

    def __post_init__(self):
        if not (1 <= self.d <= 3 and 0 <= self.ell < self.d):
            raise InvalidParams(f"need 0 <= ell < d <= 3, got d={self.d}, ell={self.ell}")

    def distance(self, x):
        """dist(x, S) = |x''|, vectorized over points of shape (d, n)."""
        x = as_points(x, self.d)
        return np.sqrt(np.sum(x[self.ell:] ** 2, axis=0))

    def cube_distance(self, lo, hi):
        """Exact dist(S, box) for boxes given by corner arrays (n, d)."""
        nearest = np.clip(0.0, lo[:, self.ell:], hi[:, self.ell:])
        return np.sqrt(np.sum(nearest ** 2, axis=1))


def squared_distance_jet(coords, ell):
    """Jet of |x''|^2, x'' the coordinates from position ell on; with ell = 0
    the squared norm |x|^2, which vanishes only at the origin, a point of
    every singular set.

    Raises SingularPoint on the singular set, before any root is taken:
    the outer derivatives of a root would divide by zero there.
    """
    sq = squared_norm_jet(coords[ell:])
    if np.any(sq.value <= 0.0):
        raise SingularPoint("point lies on the singular set")
    return sq


def regularized_distance_from_jets(dist):
    """Jet of rho = eta(|x''|) from a jet of |x''|, in the coordinates or in
    one variable such as |x''|^2: the one definition of rho.  The value
    slot is eta(|x''|) alone, the same at every jet order."""
    return dist.compose(CAP.derivs(dist.value, dist.order))


def regularized_distance(x, domain):
    """rho(x) in (0, 1]; equals the exact distance below the cap knee.
    The value of the order-0 jet, at points x of shape (d, n)."""
    return regularized_distance_from_jets(squared_distance_jet(
        Jet.variables(as_points(x, domain.d), 0), domain.ell).sqrt()).value


# ---------------------------------------------------------------------------
# Whitney covers
# ---------------------------------------------------------------------------

@dataclass
class WhitneyCover:
    domain: object
    box: tuple            # ((lo_1..lo_d), (hi_1..hi_d))
    j_max: int
    c1: float
    c2: float
    levels: dict = field(default_factory=dict)   # j -> ndarray (N_j, d) of k
    dists: dict = field(default_factory=dict)    # j -> ndarray (N_j,) dist(2Q, S)
    uncovered_volume: float = 0.0

    @property
    def counts(self):
        return {j: len(k) for j, k in self.levels.items() if len(k)}

    def total_volume(self):
        d = len(self.box[0])
        return sum(len(k) * 2.0 ** (-j * d) for j, k in self.levels.items())

    def box_volume(self):
        lo, hi = self.box
        return float(np.prod(np.asarray(hi) - np.asarray(lo)))


def whitney_cover(domain, box, j_max):
    """Greedy level-by-level Whitney enumeration inside a dyadic box.

    A cube is selected at level j >= 1 when dist(2Q, S) >= c1 2^-j and its
    parent was rejected; level-0 cubes need dist(2Q, S) >= C0_LEVEL0.  The
    selected cubes partition the box up to a 2^-j_max collar of S.
    """
    if j_max < 2:
        raise InvalidParams("j_max must be at least 2")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    d = lo.size
    if np.any(lo != np.round(lo)) or np.any(hi != np.round(hi)) or np.any(hi <= lo):
        raise InvalidParams("bounding box corners must be integer (dyadic-aligned)")
    c1 = C1
    c2 = C2_FACTOR * math.sqrt(d)
    cover = WhitneyCover(domain, (tuple(lo), tuple(hi)), j_max, c1, c2)

    # level-0 candidates: all unit cubes in the box
    grids = np.meshgrid(*[np.arange(int(lo[i]), int(hi[i])) for i in range(d)],
                        indexing="ij")
    active = np.stack([g.ravel() for g in grids], axis=1)
    # the 2^d child offsets of a cube, (2^d, d)
    offs = np.stack(np.meshgrid(*([np.arange(2)] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)
    for j in range(j_max + 1):
        if active.size == 0:
            cover.levels[j] = np.empty((0, d), dtype=int)
            cover.dists[j] = np.empty(0)
        else:
            h = 2.0 ** (-j)
            qlo = active * h - 0.5 * h
            qhi = active * h + 1.5 * h
            dist = domain.cube_distance(qlo, qhi)
            thresh = C0_LEVEL0 if j == 0 else c1 * 2.0 ** (-j)
            take = dist >= thresh
            sel, seld = active[take], dist[take]
            if j >= 1 and len(seld) and np.any(seld > c2 * 2.0 ** (-j)):
                raise CoverageGap("upper Whitney certificate violated", 0.0)
            order = np.lexsort(sel.T[::-1]) if len(sel) else []
            cover.levels[j] = sel[order]
            cover.dists[j] = seld[order]
            active = active[~take]
        if j < j_max and active.size:
            # children of every rejected cube
            active = (active[:, None, :] * 2 + offs[None, :, :]).reshape(-1, d)

    uncovered = len(active) * 2.0 ** (-j_max * d) if active.size else 0.0
    cover.uncovered_volume = uncovered
    if active.size:
        h = 2.0 ** (-j_max)
        dist = domain.cube_distance(active * h - 0.5 * h, active * h + 1.5 * h)
        if np.any(dist >= c1 * h):
            raise CoverageGap("uncovered cube outside the collar", uncovered)
    return cover


# ---------------------------------------------------------------------------
# Partition of unity
# ---------------------------------------------------------------------------

PSI_FLOOR = 1e-14


class PartitionOfUnity:
    """Normalized tensor bumps phi_{j,l} = bump_{j,l} / sum of all bumps."""

    def __init__(self, cover):
        self.cover = cover
        self.d = len(cover.box[0])
        # (j, cube-key bytes, dtype, nodes per dim, order) -> read-only
        # (nodes, weights, phi jet) of one slice of doubled-cube pieces,
        # filled on first use by norms._piece_slice
        self.pieces = {}
        self._offsets = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * self.d), indexing="ij"),
            axis=-1).reshape(-1, self.d)
        # per-level encoded key tables for vectorized membership tests
        self._tables = {}
        for j, ks in cover.levels.items():
            if not len(ks):
                continue
            kmin = ks.min(axis=0) - 1
            span = ks.max(axis=0) - kmin + 2
            strides = np.cumprod(np.concatenate(([1], span[:-1])))
            codes = np.sort((ks - kmin) @ strides)
            self._tables[j] = (kmin, span, strides, codes)

    # -- bump evaluation --------------------------------------------------
    def bump_jet(self, j, k, x, order=MAX_ORDER):
        """Jet of the tensor bump of cubes (j, k) at points x (d, n), k the
        (d, n) stack of per-point cube indices."""
        k = np.asarray(k, dtype=float)
        scale = 2.0 ** j
        out = None
        for i in range(self.d):
            t = scale * x[i] - k[i]
            derivs = BUMP.derivs(t, order)
            derivs = [dv * scale ** kk for kk, dv in enumerate(derivs)]
            ji = Jet.variable(x[i], i, self.d, order).compose(derivs)
            out = ji if out is None else out * ji
        return out

    def _neighbor_batches(self, x):
        """Yield (j, k_array (d, m), point_indices (m,)) for all cover cubes
        whose doubled cube contains the respective point.

        A level is searched only on the points whose |x''| lies in its
        window (`_window`); the indices are those of x, ascending."""
        # C order: on Fortran-ordered points (x[:, sel], or a transposed
        # (n, d) array) the scan's axis-0 reductions take two to three
        # times as long
        x = np.ascontiguousarray(x)
        r = self.cover.domain.distance(x)
        for j in self._tables:
            lo, hi = self._window(j)
            sel = np.nonzero((r >= lo) & (r <= hi))[0]
            if sel.size:
                xs = x if sel.size == x.shape[1] else x.take(sel, axis=1)
                for kk, ixs in self._level_batches(j, xs):
                    yield j, kk, sel[ixs]

    def _window(self, j):
        """Bounds on |x''| for x in the doubled cube 2Q of a level-j cube.

        dist(2Q, S) >= c1 2^-j (C0_LEVEL0 at level 0) and, for j >= 1,
        <= c2 2^-j; 2Q adds at most its diameter in x'', 2^(1-j) sqrt(d-ell).
        Each bound is widened by one level against rounding."""
        if j == 0:
            return C0_LEVEL0 / 2.0, np.inf
        cover = self.cover
        reach = cover.c2 + 2.0 * math.sqrt(self.d - cover.domain.ell)
        return cover.c1 * 2.0 ** -(j + 1), reach * 2.0 ** -(j - 1)

    def _level_batches(self, j, x):
        """Yield (k_array (d, m), point_indices (m,)) for the level-j cover
        cubes whose doubled cube contains the respective point of x, one
        batch per neighbour offset."""
        kmin, span, strides, codes = self._tables[j]
        base = np.floor(x * 2.0 ** j).astype(int)  # (d, n)
        for off in self._offsets:
            cand = base + off[:, None]
            rel = cand - kmin[:, None]
            inside = np.all((rel >= 0) & (rel < span[:, None]), axis=0)
            t = x * 2.0 ** j - cand
            inside &= np.all((t > -0.5) & (t < 1.5), axis=0)
            if not inside.any():
                continue
            enc = (rel * strides[:, None]).sum(axis=0)
            pos = np.searchsorted(codes, enc)
            pos = np.clip(pos, 0, len(codes) - 1)
            member = inside & (codes[pos] == enc)
            if member.any():
                ixs = np.nonzero(member)[0]
                yield cand[:, ixs], ixs

    def psi_jet(self, x, order=MAX_ORDER):
        """Jet of the un-normalized sum of bumps at points x (d, n).

        A level's neighbour batches are concatenated in the order they are
        yielded and evaluated by one `bump_jet` call.  `np.add.at` applies
        its updates in index order, so every point receives the same
        additions in the same order as batch by batch.
        """
        total = Jet.constant(0.0, self.d, order, (x.shape[1],))
        # the batches come level by level
        for j, batches in groupby(self._neighbor_batches(x), itemgetter(0)):
            _, kks, ixss = zip(*batches)
            kk = np.concatenate(kks, axis=1)
            ixs = np.concatenate(ixss)
            piece = self.bump_jet(j, kk, x.take(ixs, axis=1), order)
            for m in range(len(total.coeffs)):
                np.add.at(total.coeffs[m], ixs, piece.coeffs[m])
        return total

    def phi_jet(self, j, k, x, order=MAX_ORDER):
        """Jet of the normalized phi_{j,l} at points x (d, n)."""
        psi = self.psi_jet(x, order)
        if np.any(psi.value < PSI_FLOOR):
            raise OutsideCover("point outside the covered region")
        return self.bump_jet(j, k, x, order) / psi
