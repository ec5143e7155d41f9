"""Quadrature engine and norm evaluators.

All integrals are computed by per-cube tensor Gauss-Legendre rules over a
Whitney cover; the cover itself grades the nodes toward the singular set
(cubes of level j have side 2^-j).  Truncated integrals over {dist > eps}
are realized by summing levels j with 2^-j >= eps, which yields monotone
truncation ladders for nonnegative integrands; a ladder makes one
integrand call per slice of levels (`integral_ladder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidParams, Unsupported
from .jets import multi_indices
from .profiles import MAX_ORDER
from .testfns import TestFunction, classify_radial_exponent

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
    """Parameter bundle (m, a, p, tau, q=2) over a d-dimensional domain with
    an ell-dimensional singular set."""

    m: int
    a: float
    p: float
    d: int
    ell: int
    tau: float = None
    q: int = 2

    @property
    def sigma(self):
        """sigma_{tau,2} = d (1/min(1, tau) - 1)."""
        t = self.p if self.tau is None else self.tau
        return self.d * (1.0 / min(1.0, t) - 1.0)


@dataclass
class NormValue:
    value: float
    truncations: list = field(default_factory=list)  # (eps, partial norm)
    classification: str = INCONCLUSIVE
    quadrature_order: int = DEFAULT_NODES

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
    """
    levels = sorted(cover.levels)
    d = len(cover.box[0])
    ends = np.cumsum([len(cover.levels[j]) * nodes_per_dim ** d
                      for j in levels])
    bounds = list(zip(levels, np.r_[0, ends[:-1]], ends))
    pts, vals = np.empty((d, ends[-1])), np.empty(ends[-1])
    for j, lo, hi in bounds:
        pts[:, lo:hi], vals[lo:hi] = level_nodes(cover, j, nodes_per_dim)
    for s in range(0, vals.size, SLICE_NODES):
        vals[s:s + SLICE_NODES] *= integrand(pts[:, s:s + SLICE_NODES])
    return _ladder({j: float(np.sum(vals[lo:hi])) for j, lo, hi in bounds})


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


def _norm_value_from_powersum(ladder, root_exp, nodes_per_dim, oracle_member=None):
    truncs = [(e, v ** (1.0 / root_exp)) for e, v in ladder]
    return NormValue(value=truncs[-1][1], truncations=truncs,
                     classification=classify_truncations(truncs, oracle_member),
                     quadrature_order=nodes_per_dim)


def _rho_values(x, domain):
    from .geometry import regularized_distance
    return regularized_distance(x, domain)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def weighted_lp_norm(u, w, p, cover, nodes_per_dim=DEFAULT_NODES,
                     oracle_member=None):
    """(int_{dist > eps} |rho^w u|^p dx)^{1/p} with full truncation ladder."""
    if not p > 0:
        raise InvalidParams("p must be positive")
    domain = cover.domain

    def integrand(x):
        rho = _rho_values(x, domain)
        return np.abs(rho ** w * u(x)) ** p

    ladder = integral_ladder(cover, integrand, nodes_per_dim)
    return _norm_value_from_powersum(ladder, p, nodes_per_dim, oracle_member)


def _derivative_power_sum(u, orders, weights_fn, p, cover, nodes_per_dim):
    """Ladder of sum over alpha in `orders` of int w_alpha |d^alpha u|^p."""
    domain = cover.domain
    max_o = max(sum(a) for a in orders)

    def integrand(x):
        jet = u.jet(x, order=max_o)
        rho = _rho_values(x, domain)
        total = np.zeros(x.shape[1])
        for alpha in orders:
            total += weights_fn(rho, alpha) * np.abs(jet.derivative(alpha)) ** p
        return total

    return integral_ladder(cover, integrand, nodes_per_dim)


def kondratiev_norm(u, params, cover, nodes_per_dim=DEFAULT_NODES,
                    oracle_member=None):
    """Weighted-Sobolev norm (sum_{|a|<=m} int |rho^{|a|-a} d^a u|^p)^{1/p}."""
    m, a, p = params.m, params.a, params.p
    if not 1 < p < np.inf:
        raise InvalidParams("p must lie in (1, inf)")
    if m > MAX_ORDER:
        raise Unsupported(f"derivative order capped at {MAX_ORDER}")
    orders = [al for al in multi_indices(params.d, m)]
    ladder = _derivative_power_sum(
        u, orders, lambda rho, al: rho ** ((sum(al) - a) * p), p,
        cover, nodes_per_dim)
    return _norm_value_from_powersum(ladder, p, nodes_per_dim, oracle_member)


def sobolev_norm(u, m, p, cover, nodes_per_dim=DEFAULT_NODES,
                 oracle_member=None):
    """W^m_p norm (sum_{|a|<=m} ||d^a u||_p^p)^{1/p}; realizes F^m_{p,2}
    for 1 < p < inf."""
    if not 1 < p < np.inf:
        raise InvalidParams("p must lie in (1, inf)")
    if m > MAX_ORDER:
        raise Unsupported(f"derivative order capped at {MAX_ORDER}")
    d = len(cover.box[0])
    orders = [al for al in multi_indices(d, m)]
    ladder = _derivative_power_sum(
        u, orders, lambda rho, al: 1.0, p, cover, nodes_per_dim)
    return _norm_value_from_powersum(ladder, p, nodes_per_dim, oracle_member)


def _piece_power_sum(u, pou, j, ks, m, weight, p, nodes_per_dim):
    """Sum over the level-j cubes ks (N, d) of
    int_{2Q} sum_{|alpha|<=m} weight(rho, alpha) |d^alpha(phi_{j,k} u)|^p.

    Each piece is integrated on its doubled cube with a tensor rule; phi is
    bump/psi, well defined on the open doubled cube (psi >= own bump > 0).
    The nodes of all cubes are evaluated together, SLICE_NODES at a
    time, with per-point cube keys for the bumps.
    """
    d = pou.d
    unit, wts = _tensor_rule(d, nodes_per_dim)
    n = wts.size
    side = 2.0 ** -j
    per_slice = max(1, SLICE_NODES // n)
    total = 0.0
    for start in range(0, len(ks), per_slice):
        kk = ks[start:start + per_slice]
        low = (kk - 0.5) * side
        pts = (low.T[:, :, None] + 2.0 * side * unit[:, None, :]).reshape(d, -1)
        w = np.tile(wts * (2.0 * side) ** d, len(kk))
        bump = pou.bump_jet(j, np.repeat(kk.T, n, axis=1), pts, order=m)
        psi = pou.psi_jet(pts, order=m)
        piece = (bump / psi) * u.jet(pts, order=m)
        rho = _rho_values(pts, pou.cover.domain)
        for alpha in multi_indices(d, m):
            total += float(np.sum(weight(rho, alpha)
                                  * np.abs(piece.derivative(alpha)) ** p * w))
    return total


def kondratiev_piece_power(u, pou, j, k, m, a, p, nodes_per_dim=DEFAULT_NODES):
    """sum_k ||phi_{j,k} u | K^m_{a,p}||^p over one level-j cube key k or a
    key stack (N, d), each piece integrated on its doubled cube with the
    exact product-rule jet of phi * u."""
    return _piece_power_sum(u, pou, j, np.atleast_2d(k), m,
                            lambda rho, al: rho ** ((sum(al) - a) * p), p,
                            nodes_per_dim)


def rloc_norm_localized(u, params, cover, pou, nodes_per_dim=DEFAULT_NODES,
                        oracle_member=None):
    """Localized refined-localization norm
    (sum_{j,l} ||phi_{j,l} u | F^m_{tau,2}||^tau)^{1/tau} for 1 < tau < inf.

    Pieces are measured in W^m_tau (= F^m_{tau,2}); tau <= 1 requires
    the wavelet sequence-norm route (wavelets module) instead.
    """
    m = params.m
    tau = params.p if params.tau is None else params.tau
    if not 1 < tau < np.inf:
        raise Unsupported("pieces are W^m_tau only for 1 < tau < inf; "
                          "use the wavelet sequence norm for tau <= 1")
    if m > MAX_ORDER:
        raise Unsupported(f"derivative order capped at {MAX_ORDER}")
    per_level = {j: _piece_power_sum(u, pou, j, ks, m, lambda rho, al: 1.0,
                                     tau, nodes_per_dim)
                 for j, ks in cover.levels.items()}
    ladder = _ladder(per_level)
    running = ladder[-1][1]
    out = _norm_value_from_powersum(ladder, tau, nodes_per_dim, oracle_member)
    tail = sum(per_level[j] for j in sorted(per_level)[-3:])
    if running > 0 and tail / running > TAIL_SHARE_LIMIT \
            and out.classification == FINITE:
        out.classification = INCONCLUSIVE
    return out


def rloc_norm_weighted(u, params, cover, nodes_per_dim=DEFAULT_NODES,
                       oracle_member=None):
    """Weighted form ||u | F^m_{tau,2}(D)|| + ||rho^{-m} u | L_tau(D)||."""
    m = params.m
    tau = params.p if params.tau is None else params.tau
    if not 1 < tau < np.inf:
        raise Unsupported("W^m_tau realization requires 1 < tau < inf")
    smooth = sobolev_norm(u, m, tau, cover, nodes_per_dim)
    weighted = weighted_lp_norm(u, -m, tau, cover, nodes_per_dim,
                                oracle_member)
    truncs = [(e, v1 + v2) for (e, v1), (_, v2)
              in zip(smooth.truncations, weighted.truncations, strict=True)]
    cls = classify_truncations(truncs, oracle_member)
    return NormValue(value=truncs[-1][1], truncations=truncs,
                     classification=cls, quadrature_order=nodes_per_dim)


def kondratiev_sharp_norm(u, params, cover, nodes_per_dim=DEFAULT_NODES,
                          oracle_member=None):
    """Sharp norm sum_{|a|=m} ||d^a (rho^{m-a} u)||_p + ||rho^{-a} u||_p.

    The multiplication by rho^{m-a} stays inside the closed test family, so
    the top-order derivatives are exact.
    """
    m, a, p = params.m, params.a, params.p
    if not 1 < p < np.inf:
        raise InvalidParams("p must lie in (1, inf)")
    v = multiply_by_rho_power(u, m - a)
    top = [al for al in multi_indices(params.d, m) if sum(al) == m]
    ladder = _derivative_power_sum(
        v, top, lambda rho, al: 1.0, p, cover, nodes_per_dim)
    top_truncs = [(e, val ** (1.0 / p)) for e, val in ladder]
    low = weighted_lp_norm(u, -a, p, cover, nodes_per_dim)
    truncs = [(e, v1 + v2) for (e, v1), (_, v2)
              in zip(top_truncs, low.truncations, strict=True)]
    cls = classify_truncations(truncs, oracle_member)
    return NormValue(value=truncs[-1][1], truncations=truncs,
                     classification=cls, quadrature_order=nodes_per_dim)


def multiply_by_rho_power(u, gamma):
    """T u = rho^gamma u; beta -> beta + gamma within the closed family."""
    return TestFunction(u.beta + gamma, u.lam, u.R, u.domain)


# ---------------------------------------------------------------------------
# Exact radial integral classification and 1D reference quadrature
# ---------------------------------------------------------------------------

def classify_radial_integral(e, g):
    """int_0^R t^e (1+|log t|)^g dt: Finite iff e > -1, or e = -1 and g < -1,
    as decided by `testfns.classify_radial_exponent`."""
    return FINITE if classify_radial_exponent(e + 1.0, g).member \
        else DIVERGENT


def radial_reference_integral(e, g, R=1.0, eps=0.0):
    """High-accuracy 1D reference: int_eps^R t^e (1 + |log t|)^g dt.

    Accurate to about 1e-14 relative for R/eps <= 2^20; beyond, one quad
    misses mass near eps (at R = 1, eps = 2^-24: 2.4e-4 for e = -1/2, 23 %
    for e = -0.9), so sum shells over longer ranges."""
    if eps <= 0.0 and classify_radial_integral(e, g) == DIVERGENT:
        raise InvalidParams("integral diverges at 0; pass eps > 0")

    def f(t):
        return t ** e * (1.0 + np.abs(np.log(t))) ** g

    from scipy.integrate import quad
    lo = max(eps, 0.0)
    val, _ = quad(f, lo, R, limit=200, points=[min(1.0, R)] if R > 1 else None)
    return val
