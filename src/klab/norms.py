"""Quadrature engine and norm evaluators.

All integrals are computed by per-cube tensor Gauss-Legendre rules over a
Whitney cover; the cover itself grades the nodes toward the singular set
(cubes of level j have side 2^-j).  Truncated integrals over {dist > eps}
are realized by summing levels j with 2^-j >= eps, which yields monotone
truncation ladders for nonnegative integrands.  A ladder makes one
integrand call per slice of levels (`integral_ladder`); an integrand of r
rows yields r ladders, so `cover_norms` takes several norms, each a list
of terms, from one pass: per slice, one `testfns.Sample`, whose rho every
function and the density share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import InvalidParams, Unsupported
from .jets import Jet, multi_indices
from .profiles import MAX_ORDER
from .testfns import Sample, TestFunction, classify_radial_exponent

FINITE = "Finite"
DIVERGENT = "Divergent"
INCONCLUSIVE = "Inconclusive"

DEFAULT_NODES = 8          # Gauss-Legendre nodes per dimension per cube
CAUCHY_REL_TOL = 1e-3      # three consecutive relative increments below this
TRUNCATION_K_MIN = 4       # coarsest truncation eps = 2^-4
TAIL_SHARE_LIMIT = 0.10    # localized-norm tail diagnostic threshold
SLICE_NODES = 2 ** 15      # nodes per integrand call of ladders and pieces


@dataclass(frozen=True)
class SpaceParams:
    """Parameter bundle (m, a, p, tau; q = 2 throughout) over a d-dimensional
    domain with an ell-dimensional singular set; tau defaults to p."""

    m: int
    a: float
    p: float
    d: int
    ell: int
    tau: float = None

    def __post_init__(self):
        if self.tau is None:
            object.__setattr__(self, "tau", self.p)


@dataclass
class NormValue:
    value: float
    truncations: list = field(default_factory=list)  # (eps, partial norm)
    classification: str = INCONCLUSIVE
    quadrature_order: int = DEFAULT_NODES
    tail_share: float = None    # f_sequence_norm: the share it classified by

    def to_json(self):
        return {"value": self.value,
                "truncations": [[e, v] for e, v in self.truncations],
                "classification": self.classification,
                "quadratureOrder": self.quadrature_order}


# ---------------------------------------------------------------------------
# Quadrature primitives
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_nodes(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _tensor_rule(d, n):
    """Tensor-product rule on the unit cube: nodes (d, n^d), weights (n^d,)."""
    if n < 1:
        raise InvalidParams("need at least one node per dimension")
    x, w = _gauss_nodes(n)
    grids = np.meshgrid(*([x] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids])
    wts = np.ones(n ** d)
    for g in np.meshgrid(*([w] * d), indexing="ij"):
        wts = wts * g.ravel()
    return pts, wts


def level_nodes(cover, j, nodes_per_dim=DEFAULT_NODES):
    """Quadrature nodes and weights for all level-j cubes of a cover.

    Returns (points (d, N), weights (N,)); empty arrays for empty levels.
    """
    ks = cover.levels[j]
    d = ks.shape[1]
    unit, wts = _tensor_rule(d, nodes_per_dim)
    side = 2.0 ** -j
    pts = (ks * side).T[:, :, None] + side * unit[:, None, :]   # (d, N, n^d)
    return pts.reshape(d, -1), np.tile(wts * side ** d, len(ks))


def _ladder(per_level):
    """(2^-k, sum_{j <= k} per_level[j]), k >= TRUNCATION_K_MIN or finest."""
    levels = sorted(per_level)
    ladder, running = [], 0.0
    for j in levels:
        running += per_level[j]
        if j >= TRUNCATION_K_MIN or j == levels[-1]:
            ladder.append((2.0 ** -j, running))
    return ladder


def integral_ladder(cover, integrand, nodes_per_dim=DEFAULT_NODES):
    """Truncated integrals sum_{j <= k} int_{level-j cubes} integrand dx.

    Returns a list of (eps_k, partial integral) with eps_k = 2^-k running
    from 2^-TRUNCATION_K_MIN down to 2^-j_max.  The cover's nodes are held
    once, filled level by level; one integrand call per slice of at most
    SLICE_NODES of them, and each level's total is one np.sum over its own.
    The integrand returns r rows, shape (r, N), and gives a list of r such
    ladders.
    """
    levels = sorted(cover.levels)
    d = len(cover.box[0])
    ends = np.cumsum([len(cover.levels[j]) * nodes_per_dim ** d
                      for j in levels])
    bounds = list(zip(levels, np.r_[0, ends[:-1]], ends))
    pts, wts = np.empty((d, ends[-1])), np.empty(ends[-1])
    for j, lo, hi in bounds:
        pts[:, lo:hi], wts[lo:hi] = level_nodes(cover, j, nodes_per_dim)
    vals = None
    for s in range(0, wts.size, SLICE_NODES):
        f = integrand(pts[:, s:s + SLICE_NODES])
        if vals is None:
            vals = np.empty((len(f), wts.size))
        vals[:, s:s + SLICE_NODES] = wts[s:s + SLICE_NODES] * f
    return [_ladder({j: float(np.sum(row[lo:hi])) for j, lo, hi in bounds})
            for row in vals]


def tail_share(powers):
    """Share of the last three levels in a ladder of cumulative p-th powers,
    1 - powers[-4] / powers[-1]: 1 for fewer than four levels, 0 for a
    zero total."""
    if not powers[-1] > 0:
        return 0.0
    return 1.0 - (powers[-4] if len(powers) > 3 else 0.0) / powers[-1]


def classify_truncations(truncations, oracle_member=None):
    """Cauchy classification of a (rooted) truncation ladder.

    Finite if the last three relative increments are all below 1e-3;
    Divergent if the increments fail that test and an analytic oracle says
    the integral diverges; Inconclusive otherwise.
    """
    vals = [v for _, v in truncations]
    rel = [(vals[i] - vals[i - 1]) / vals[i] if vals[i] > 0 else 0.0
           for i in range(1, len(vals))]
    if len(rel) >= 3 and all(r < CAUCHY_REL_TOL for r in rel[-3:]):
        return FINITE
    if oracle_member is False:
        return DIVERGENT
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# Norms: sums of rooted terms, any number of them from one ladder
# ---------------------------------------------------------------------------

def _graded(a, p):
    """The Kondratiev density rho^{(|alpha|-a)p} |d^alpha u|^p."""
    return lambda rho, al, v: rho ** ((sum(al) - a) * p) * np.abs(v) ** p


def _plain(p):
    return lambda rho, al, v: np.abs(v) ** p


def _check_order(m, p):
    if not 1 < p < np.inf:
        raise InvalidParams("p must lie in (1, inf)")
    if m < 0:
        raise InvalidParams("m must be nonnegative")
    if m > MAX_ORDER:
        raise Unsupported(f"derivative order capped at {MAX_ORDER}")


def kondratiev_terms(u, params):
    """Terms of the Kondratiev norm
    (sum_{|a|<=m} int |rho^{|a|-a} d^a u|^p)^{1/p}."""
    _check_order(params.m, params.p)
    return [(u, 0, params.m, _graded(params.a, params.p), params.p)]


def sobolev_terms(u, m, p):
    """Terms of the W^m_p norm (sum_{|a|<=m} ||d^a u||_p^p)^{1/p}; it
    realizes F^m_{p,2} for 1 < p < inf."""
    _check_order(m, p)
    return [(u, 0, m, _plain(p), p)]


def weighted_lp_terms(u, w, p):
    """The one term of the weighted L_p norm (int |rho^w u|^p dx)^{1/p}, in
    that form."""
    if not p > 0:
        raise InvalidParams("p must be positive")
    return [(u, 0, 0, lambda rho, al, v: np.abs(rho ** w * v) ** p, p)]


def rloc_weighted_terms(u, params):
    """Terms of the weighted refined-localization norm
    ||u | F^m_{tau,2}(D)|| + ||rho^{-m} u | L_tau(D)||."""
    tau = params.tau
    if not 1 < tau < np.inf:
        raise Unsupported("W^m_tau realization requires 1 < tau < inf")
    return (sobolev_terms(u, params.m, tau)
            + weighted_lp_terms(u, -params.m, tau))


def sharp_terms(u, params):
    """Terms of the sharp norm
    sum_{|a|=m} ||d^a (rho^{m-a} u)||_p + ||rho^{-a} u||_p; rho^{m-a} u
    stays in the closed test family, so its top-order derivatives are
    exact."""
    m, a, p = params.m, params.a, params.p
    _check_order(m, p)
    return ([(multiply_by_rho_power(u, m - a), m, m, _plain(p), p)]
            + weighted_lp_terms(u, -a, p))


def cover_norms(norms, cover, nodes_per_dim=DEFAULT_NODES, oracles=None):
    """NormValues of several norms from one integral ladder.

    A norm is a list of terms (u, lo, hi, density, p): the sum over them of
    (sum_{lo <= |alpha| <= hi} int density(rho, alpha, d^alpha u))^{1/p}.
    Per slice there is one Sample, of the highest hi over all terms; each
    distinct u gets one jet from it by `u.jet_from_sample`, and the
    density's rho is the value of the sample's one-variable rho.
    `oracles`, if given, holds one membership oracle per norm.
    """
    if not norms:
        return []
    if oracles is not None and len(oracles) != len(norms):
        raise InvalidParams(f"{len(oracles)} oracles for {len(norms)} norms")
    terms = [t for norm in norms for t in norm]
    functions = dict.fromkeys(t[0] for t in terms)
    top = max(t[2] for t in terms)
    alphas = multi_indices(len(cover.box[0]), top)

    def integrand(x):
        sample = Sample(Jet.variables(x, top), cover.domain)
        jets = {u: u.jet_from_sample(sample) for u in functions}
        rho = sample.radial_rho().value
        rows = np.zeros((len(terms), x.shape[1]))
        for row, (u, lo, hi, density, _) in zip(rows, terms):
            for al in alphas:
                if lo <= sum(al) <= hi:
                    row += density(rho, al, jets[u].derivative(al))
        return rows

    ladders = iter(integral_ladder(cover, integrand, nodes_per_dim))
    out = []
    for norm, oracle in zip(norms, oracles or [None] * len(norms)):
        rooted = [[(e, v ** (1.0 / t[-1])) for e, v in next(ladders)]
                  for t in norm]
        out.append(_norm_value([(col[0][0], sum(v for _, v in col))
                                for col in zip(*rooted)],
                               nodes_per_dim, oracle))
    return out


def _norm_value(truncs, nodes_per_dim, oracle_member):
    return NormValue(truncs[-1][1], truncs,
                     classify_truncations(truncs, oracle_member), nodes_per_dim)


def _piece_slice(pou, j, kk, m, nodes_per_dim):
    """Nodes (d, N), weights (N,) and phi jet of the tensor rules on the
    doubled cubes of the level-j cube keys kk (n, d), kept on the pou.

    phi = bump/psi belongs to the partition alone, so the first call for a
    slice evaluates it and every later member and check multiplies the kept
    jet.  The key holds the slice's own cube keys, so another slicing of a
    level builds its own entry.  The kept arrays are read-only; nothing is
    kept when phi_jet raises OutsideCover.
    """
    key = (j, kk.tobytes(), kk.dtype.str, nodes_per_dim, m)
    if key not in pou.pieces:
        d = pou.d
        unit, wts = _tensor_rule(d, nodes_per_dim)
        side = 2.0 ** -j
        low = (kk - 0.5) * side
        pts = (low.T[:, :, None]
               + 2.0 * side * unit[:, None, :]).reshape(d, -1)
        w = np.tile(wts * (2.0 * side) ** d, len(kk))
        phi = pou.phi_jet(j, np.repeat(kk.T, wts.size, axis=1), pts, m)
        for arr in (pts, w):
            arr.setflags(write=False)
        pou.pieces[key] = (pts, w, phi.freeze())
    return pou.pieces[key]


def _piece_power_sum(u, pou, j, ks, m, density, nodes_per_dim):
    """Sum over the level-j cubes ks (N, d) of
    int_{2Q} sum_{|alpha|<=m} density(rho, alpha, d^alpha(phi_{j,k} u)).

    Each piece is integrated on its doubled cube with a tensor rule; phi is
    `PartitionOfUnity.phi_jet`, bump/psi, well defined on the open doubled
    cube (psi >= own bump > 0).
    The nodes of all cubes are evaluated together, SLICE_NODES at a
    time, with the slice's phi kept on the pou (`_piece_slice`); u and the
    density share one Sample per slice.
    """
    cube_nodes = _tensor_rule(pou.d, nodes_per_dim)[1].size
    per_slice = max(1, SLICE_NODES // cube_nodes)
    total = 0.0
    for start in range(0, len(ks), per_slice):
        pts, w, phi = _piece_slice(pou, j, ks[start:start + per_slice], m,
                                   nodes_per_dim)
        sample = Sample(Jet.variables(pts, m), pou.cover.domain)
        piece = phi * u.jet_from_sample(sample)
        rho = sample.radial_rho().value
        for alpha in multi_indices(pou.d, m):
            total += float(np.sum(density(rho, alpha,
                                          piece.derivative(alpha)) * w))
    return total


def kondratiev_piece_power(u, pou, j, k, m, a, p, nodes_per_dim=DEFAULT_NODES):
    """sum_k ||phi_{j,k} u | K^m_{a,p}||^p over the level-j cube key stack k
    (N, d), each piece integrated on its doubled cube with the exact
    product-rule jet of phi * u."""
    return _piece_power_sum(u, pou, j, k, m, _graded(a, p), nodes_per_dim)


def rloc_norm_localized(u, params, pou, nodes_per_dim=DEFAULT_NODES):
    """Localized refined-localization norm
    (sum_{j,l} ||phi_{j,l} u | F^m_{tau,2}||^tau)^{1/tau} for 1 < tau < inf,
    over the cover of the partition of unity pou.

    Pieces are measured in W^m_tau (= F^m_{tau,2}); tau <= 1 requires
    the wavelet sequence-norm route (wavelets module) instead.
    """
    tau = params.tau
    if not 1 < tau < np.inf:
        raise Unsupported("pieces are W^m_tau only for 1 < tau < inf; "
                          "use the wavelet sequence norm for tau <= 1")
    _check_order(params.m, tau)
    per_level = {j: _piece_power_sum(u, pou, j, ks, params.m, _plain(tau),
                                     nodes_per_dim)
                 for j, ks in pou.cover.levels.items()}
    out = _norm_value([(e, v ** (1.0 / tau)) for e, v in _ladder(per_level)],
                      nodes_per_dim, None)
    powers = list(accumulate(per_level[j] for j in sorted(per_level)))
    if tail_share(powers) > TAIL_SHARE_LIMIT and out.classification == FINITE:
        out.classification = INCONCLUSIVE
    return out


def multiply_by_rho_power(u, gamma):
    """T u = rho^gamma u; beta -> beta + gamma within the closed family."""
    return TestFunction(u.beta + gamma, u.lam, u.R, u.domain)


# ---------------------------------------------------------------------------
# 1D radial reference quadrature
# ---------------------------------------------------------------------------

def radial_reference_integral(e, g, R=1.0, eps=0.0):
    """High-accuracy 1D reference: int_eps^R t^e (1 + |log t|)^g dt.

    Accurate to about 1e-14 relative for R/eps <= 2^20; beyond, one quad
    misses mass near eps (at R = 1, eps = 2^-24: 2.4e-4 for e = -1/2, 23 %
    for e = -0.9), so sum shells over longer ranges."""
    if eps <= 0.0 and not classify_radial_exponent(e + 1.0, g).member:
        raise InvalidParams("integral diverges at 0; pass eps > 0")

    def f(t):
        return t ** e * (1.0 + np.abs(np.log(t))) ** g

    from scipy.integrate import quad
    lo = max(eps, 0.0)
    val, _ = quad(f, lo, R, limit=200, points=[min(1.0, R)] if R > 1 else None)
    return val
