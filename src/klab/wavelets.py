"""Compactly supported orthonormal wavelets and F^s_{tau,2} sequence norms.

Realizes the standard wavelet characterization of F^s_{tau,2} (q = 2) for
tau <= 1 where no integral-smoothness norm is available: the L_tau norm of
the square function sum_{j,G,k} (2^{js} 2^{jd/2} |lambda_{j,G,k}| chi_{j,k})^2
over separable (tensor) wavelets on dyadic cubes chi_{j,k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .embeddings import compare, sigma
from .errors import InvalidParams, Unsupported
from .norms import (NormValue, FINITE, INCONCLUSIVE, TAIL_SHARE_LIMIT,
                    tail_share)

CASCADE_K = 12          # resolution 2^-K of the reference cascade
HOLDER_LEVELS = (8, 12)  # cascade resolutions of the regularity estimate
MAX_LEVEL = 12          # deepest decomposition level

# Frozen Holder regularity of the order-N orthonormal family (mother wavelet
# smoothness; exceeds the required m with margin before an order is chosen).
REGULARITY = {2: 0.550, 3: 1.088, 4: 1.618, 5: 1.969,
              6: 2.189, 7: 2.460, 8: 2.761, 9: 3.074, 10: 3.367}


# ---------------------------------------------------------------------------
# Filter construction (spectral factorization)
# ---------------------------------------------------------------------------

def daubechies_filter(N):
    """Orthonormal scaling filter with N vanishing moments, length 2N.

    Built by spectral factorization: the halfband polynomial
    P(y) = sum_{k<N} C(N-1+k, k) y^k is rewritten in z via
    y = (2 - z - 1/z)/4; the roots inside the unit circle (Newton-polished)
    form the minimum-phase factor multiplying ((1+z)/2)^N.
    """
    if N == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    from math import comb
    # halfband polynomial P(y) = sum_{k<N} C(N-1+k, k) y^k, descending order
    P = np.array([comb(N - 1 + k, k) for k in range(N - 1, -1, -1)],
                 dtype=float)
    roots = np.roots(P)
    dP = np.polyder(P)
    for _ in range(4):                           # Newton polish in y
        roots = roots - np.polyval(P, roots) / np.polyval(dP, roots)
    # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0; take |z| < 1
    b = 2.0 - 4.0 * roots
    disc = np.sqrt(b ** 2 - 4.0 + 0j)
    z1, z2 = (b + disc) / 2.0, (b - disc) / 2.0
    inside = np.where(np.abs(z1) < np.abs(z2), z1, z2)
    if len(inside) != N - 1 or np.any(np.abs(inside) >= 1.0):
        raise InvalidParams(f"spectral factorization failed for N={N}")
    # h(z) = c ((1+z)/2)^N prod (z - r): expand and normalize h(1) = sqrt(2)
    coeffs = np.array([1.0])
    for _ in range(N):
        coeffs = np.convolve(coeffs, [0.5, 0.5])
    for r in inside:
        coeffs = np.convolve(coeffs, [1.0, -r])
    coeffs = np.real(coeffs)
    h = coeffs * (np.sqrt(2.0) / np.sum(coeffs))
    return h[::-1].copy()                        # ascending index order


def filter_orthonormality_defect(h):
    """max_n |sum_k h_k h_{k+2n} - delta_n| over all shifts n."""
    F = len(h)
    worst = 0.0
    for n in range(F // 2):
        v = float(np.dot(h[:F - 2 * n], h[2 * n:]))
        worst = max(worst, abs(v - (1.0 if n == 0 else 0.0)))
    return worst


# ---------------------------------------------------------------------------
# Cascade evaluation
# ---------------------------------------------------------------------------

def _cascade(h):
    """Scaling function phi on the grid {i 2^-CASCADE_K} of [0, F-1],
    F = len(h), via exact integer values (refinement eigenvector) and
    dyadic refinement: the reference the frozen REGULARITY table is
    checked against."""
    F = len(h)
    # integer values: phi(n) for n = 1..F-2 from the eigenvalue-1 eigenvector
    n = F - 2
    A = np.zeros((n, n))
    for i in range(1, F - 1):
        for jj in range(1, F - 1):
            m = 2 * i - jj
            if 0 <= m < F:
                A[i - 1, jj - 1] = np.sqrt(2.0) * h[m]
    w, v = np.linalg.eig(A)
    vec = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    vec = vec / np.sum(vec)                      # sum phi(n) = 1
    level_vals = np.zeros(F)                     # phi on the integer grid
    level_vals[1:F - 1] = vec
    for lev in range(1, CASCADE_K + 1):
        prev = level_vals
        cur = np.zeros((F - 1) * 2 ** lev + 1)
        cur[::2] = prev
        # odd points x = i 2^-lev: phi(x) = sqrt(2) sum h_m phi(2x - m),
        # and 2x - m is point i - m 2^(lev-1) of the previous grid
        i = np.arange(1, len(cur), 2)
        acc = np.zeros(len(i))
        for m in range(F):
            ii = i - m * 2 ** (lev - 1)
            ok = (ii >= 0) & (ii < len(prev))
            acc[ok] += np.sqrt(2.0) * h[m] * prev[ii[ok]]
        cur[1::2] = acc
        level_vals = cur
    return level_vals


@dataclass(frozen=True)
class WaveletSystem:
    filter: np.ndarray                 # scaling filter h, ascending index
    gfilter: np.ndarray                # wavelet filter g
    order: int                         # vanishing moments N
    regularity_order: float
    first_moment: float                # int x phi(x) dx


@lru_cache(maxsize=None)
def build_wavelet_system(m):
    """Shortest standard orthonormal system with Holder regularity > m;
    cached and shared, so its arrays are read-only."""
    for N in sorted(REGULARITY):
        if REGULARITY[N] > m:
            break
    else:
        raise Unsupported(f"no tabulated filter with regularity > {m}")
    h = daubechies_filter(N)
    F = len(h)
    g = np.array([(-1) ** i * h[F - 1 - i] for i in range(F)])
    mu = float(np.dot(np.arange(F), h)) / np.sqrt(2.0)
    for arr in (h, g):
        arr.setflags(write=False)
    return WaveletSystem(filter=h, gfilter=g, order=N,
                         regularity_order=REGULARITY[N], first_moment=mu)


def estimate_holder_regularity(h):
    """Cascade-based Holder exponent of the scaling function of filter h:
    the max increment of phi at dyadic spacing 2^-K scales like 2^-K alpha,
    so alpha is the log2 slope between the HOLDER_LEVELS resolutions."""
    phi = _cascade(h)
    vals = [np.max(np.abs(np.diff(phi[::2 ** (CASCADE_K - K)])))
            for K in HOLDER_LEVELS]
    return float(np.log2(vals[0] / vals[1])
                 / (HOLDER_LEVELS[1] - HOLDER_LEVELS[0]))


# ---------------------------------------------------------------------------
# Coefficient grids
# ---------------------------------------------------------------------------

@dataclass
class CoefficientGrid:
    """Finitely supported wavelet coefficients.

    levels[j][gender] = (origin, array) with gender a string over {A, D} of
    length d ('A' = scaling direction); level 0 carries the pure-scaling band
    'A'*d in addition to the wavelet genders.  The bands of one level share
    one origin and shape; each is its own array.
    """

    d: int
    J: int
    levels: dict = field(default_factory=dict)

    def sum_of_squares(self):
        return sum(float(np.sum(arr ** 2))
                   for bands in self.levels.values()
                   for _, arr in bands.values())


def _analyze_axis(arr, origin, bank, axis):
    """Decimated correlations a_{k,i} = sum_m bank_{m,i} A_{m+2k} along one
    axis, for every filter (column i) of the (F, r) bank at once.

    `origin` is the integer index of the first entry along that axis; A is
    zero outside the array.  Only the kept (every second) outputs are
    computed.  A is copied into a zeroed buffer whose first axis is the
    analysed one, with F - 1 cells of margin on both of its sides; the
    buffer is an (L + 2(F - 1), R) matrix, one column per line of A along
    the axis (R the product of the other axes' lengths).  Kept window k is
    then an (R, F) block of rows, and n products (R, F) @ (F, r) correlate
    all R lines with all r filters.  A one-dimensional A takes one
    (n, F) @ (F, r) product instead: per window, numpy's matmul would take
    its vector-matrix path, whose sums round differently.  Returns (output
    array, output origin); the output is the products' (n, ..., r) array
    viewed with the axis back in its place, n entries long, and a new last
    axis of length r, one entry per filter.
    """
    F = len(bank)
    L = arr.shape[axis]
    k0 = -(-(origin - F + 1) // 2)               # ceil division
    t0 = 2 * k0 - origin + F - 1                 # 0 or 1
    n = (L + F - t0) // 2                        # outputs k0 .. k0 + n - 1
    lines = np.moveaxis(arr, axis, 0)
    R = math.prod(lines.shape[1:])
    buf = np.zeros((L + 2 * (F - 1),) + lines.shape[1:])
    buf[F - 1:F - 1 + L] = lines
    kept = sliding_window_view(buf.reshape(len(buf), R), F,
                               axis=0)[t0:t0 + 2 * n - 1:2]
    out = kept[:, 0] @ bank if arr.ndim == 1 else kept @ bank
    return np.moveaxis(out.reshape((n,) + lines.shape[1:] + (-1,)), 0,
                       axis), k0


def wavelet_coefficients(u, system, J, box):
    """Analysis transform of u on the given box down from level J.

    The level-J scaling coefficients are one-point first-moment-corrected
    samples c_{J,k} = 2^{-Jd/2} u(2^{-J}(k + mu)) (second-order accurate
    for smooth u).

    Each level is d passes of `_analyze_axis` with the bank (h, g) over one
    array: pass i appends a gender axis (0 = 'A', 1 = 'D') for axis i, so
    after d passes the 2^d bands are the slices [..., g_0, ..., g_{d-1}] of
    one stack and share one origin.  A pass copies its input once, into a
    zero-margined buffer that puts axis i first, and returns its products
    as a view with axis i back in place; the next pass reads that view.
    The 2^d - 1 wavelet bands are copied out of the stack in C order; the
    band 'A'*d feeds the next level, whose first pass copies it, so the
    stack is freed one level later.
    """
    if J > MAX_LEVEL:
        raise Unsupported(f"J capped at {MAX_LEVEL}")
    lo, hi = (np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float))
    d = len(lo)
    F = len(system.filter)
    k_lo = np.floor(lo * 2 ** J).astype(int) - (F - 1)
    k_hi = np.ceil(hi * 2 ** J).astype(int) + 1
    shape = tuple(k_hi - k_lo)
    axes = [(np.arange(k_lo[i], k_hi[i]) + system.first_moment)
            * 2.0 ** -J for i in range(d)]
    arr = np.empty(shape)
    chunk = max(1, 2 ** 19 // max(1, int(np.prod(shape[1:]))))
    for r0 in range(0, shape[0], chunk):
        r1 = min(r0 + chunk, shape[0])
        grids = np.meshgrid(axes[0][r0:r1], *axes[1:], indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
        arr[r0:r1] = np.asarray(u(pts), dtype=float).reshape(
            (r1 - r0,) + shape[1:])
    arr *= 2.0 ** (-J * d / 2.0)

    bank = np.stack([system.filter, system.gfilter], 1)
    genders = list(np.ndindex((2,) * d))         # genders[0] is 'A' * d
    grid = CoefficientGrid(d=d, J=J)
    origin = [int(v) for v in k_lo]
    for j in range(J, 0, -1):
        for axis in range(d):
            arr, origin[axis] = _analyze_axis(arr, origin[axis], bank, axis)
        o = tuple(origin)
        grid.levels[j - 1] = {                   # analysis of level-j scaling
            "".join("AD"[i] for i in g): (o, arr[(...,) + g].copy())
            for g in genders[1:]}
        arr = arr[(...,) + genders[0]]
    grid.levels.setdefault(0, {})["A" * d] = (tuple(origin), arr.copy())
    return grid


# ---------------------------------------------------------------------------
# Sequence norm
# ---------------------------------------------------------------------------

def _support_hulls(coeffs, levels):
    """Per level j of `levels` (ascending), the hull [lo, hi) in level-j
    cells of the nonzero coefficients of level j and every finer level
    (None where all of them are zero).  One scan, fine to coarse: a level's
    hull is the finer levels' hull, coarsened, widened by its own bands'
    nonzero extents, so the hulls nest.  An extent along an axis is `any`
    of the band's nonzero mask over the other axes."""
    out, hull = [], None
    for n in range(len(levels) - 1, -1, -1):
        if hull is not None:                     # coarsen to this level
            f = 2 ** (levels[n + 1] - levels[n])
            hull = (hull[0] // f, -(-hull[1] // f))
        for origin, arr in coeffs.levels[levels[n]].values():
            nz = arr != 0
            hits = [nz.any(axis=tuple(a for a in range(nz.ndim) if a != ax))
                    .nonzero()[0] for ax in range(nz.ndim)]
            if not hits[0].size:
                continue                         # the band is all zero
            k0 = np.add(origin, [h[0] for h in hits])
            k1 = np.add(origin, [h[-1] + 1 for h in hits])
            hull = (k0, k1) if hull is None else (np.minimum(hull[0], k0),
                                                 np.maximum(hull[1], k1))
        out.append(hull)
    return out[::-1]


def _fine_box(coeffs):
    """Integer-aligned spatial bounding box of all nonzero coefficients:
    the coarsest `_support_hulls` entry in level-0 (unit) cells."""
    levels = sorted(coeffs.levels)
    hull = _support_hulls(coeffs, levels)[0]
    if hull is None:
        return None
    f = 2 ** levels[0]
    return hull[0] // f, -(-hull[1] // f)


def _upsample(arr, f):
    """Each entry of arr repeated f times along every axis."""
    out = np.empty(tuple(n * f for n in arr.shape))
    out.reshape([v for n in arr.shape for v in (n, f)])[...] = \
        arr.reshape([v for n in arr.shape for v in (n, 1)])
    return out


def f_sequence_norm(coeffs, s, tau):
    """L_tau norm of the square function of the coefficient grid.

    Returns a NormValue whose truncations list the partial norms including
    levels <= j; classification flips to Inconclusive when the last three
    levels carry more than 10% of the integral (`norms.tail_share`, kept as
    the value's `tail_share`).

    The square function restricted to levels <= j is constant on level-j
    cells.  It is accumulated coarse to fine, S_j = upsample(S_j-1) +
    sum_G 4^{j(s+d/2)} lambda_{j,G}^2, on nested active boxes: level j's
    box is the nonzero hull of the levels >= j (`_support_hulls`), widened
    to whole cells of the level before.  A cell that leaves the active box
    keeps its S at every finer level, so its S^{tau/2} volume goes once
    into a running integral of finished cells; partial_j is that integral
    plus the sum of S_j^{tau/2} 2^{-jd} over the box.
    """
    d = coeffs.d
    side = compare(s, sigma(tau, 2, d))
    if not (side > 0 or (tau >= 1.0 and side == 0)):
        raise InvalidParams("sequence norm requires s > sigma_{tau,2}")
    levels = sorted(coeffs.levels)
    hulls = _support_hulls(coeffs, levels)
    if hulls[0] is None:
        return NormValue(value=0.0, truncations=[(2.0 ** -coeffs.J, 0.0)],
                         classification=FINITE, quadrature_order=0,
                         tail_share=0.0)
    a, b = hulls[0]                              # the active box [a, b)
    sq = np.zeros(b - a)
    done, partial = 0.0, []                      # integral with levels <= j
    for n, j in enumerate(levels):
        weight = 4.0 ** (j * (s + d / 2.0))
        for origin, arr in coeffs.levels[j].values():
            k0 = np.maximum(a, origin)
            k1 = np.minimum(b, np.add(origin, arr.shape))
            if np.any(k0 >= k1):
                continue
            term = arr[tuple(map(slice, k0 - origin, k1 - origin))] ** 2
            term *= weight
            sq[tuple(map(slice, k0 - a, k1 - a))] += term
            del term
        keep, nxt = (slice(0, 0),) * d, None     # cells that stay active
        if n + 1 < len(levels):
            f = 2 ** (levels[n + 1] - j)
            r0, r1 = hulls[n + 1] or (a * f, a * f)
            k0, k1 = r0 // f, -(-r1 // f)
            keep = tuple(map(slice, k0 - a, k1 - a))
            nxt, a, b = _upsample(sq[keep], f), k0 * f, k1 * f
        sq **= tau / 2.0
        inside = float(np.sum(sq[keep]))
        sq[keep] = 0.0
        done += float(np.sum(sq)) * 2.0 ** (-j * d)
        partial.append(done + inside * 2.0 ** (-j * d))
        sq = nxt
    truncs = [(2.0 ** -j, v ** (1.0 / tau)) for j, v in zip(levels, partial)]
    share = tail_share(partial)
    return NormValue(value=truncs[-1][1], truncations=truncs,
                     classification=INCONCLUSIVE if share > TAIL_SHARE_LIMIT
                     else FINITE, quadrature_order=0, tail_share=share)
