"""Closed-form radial test functions with exact derivatives and membership oracles.

The family is u(x) = rho(x)^beta * (1 + |log rho(x)|)^lam * zeta(|x|/R) with
rho the regularized distance to the singular set (valued in (0, 1], so
1 + |log rho| = 1 - log rho) and zeta the fixed C^4 radial cutoff that is 1 on
[0, 1] and 0 on [2, inf).  Points are arrays of shape (d, n)
(`geometry.as_points`).

Each member is a function of |x''|^2 and |x|^2 alone, so its factors are
evaluated as one-variable jets in those two and composed into the
coordinates once per member (`Sample`): univariate Taylor arithmetic
followed by one chain rule (Griewank and Walther, Evaluating Derivatives,
2nd ed., SIAM 2008, ch. 13).  Value slots equal those of the product of
the factors' jets in the coordinates bit for bit; derivative slots differ
from it by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import compare
from .errors import InvalidParams, Unsupported, UndeterminedByPaper
from .geometry import (as_points, regularized_distance_from_jets,
                       squared_distance_jet)
from .jets import Jet, squared_norm_jet
from .profiles import CUTOFF, MAX_ORDER


@dataclass(frozen=True)
class MembershipVerdict:
    """Exact classification of a radial-integral membership question.

    `critical_exponent` is the number whose sign decides membership (in the
    F-space case the critical smoothness minus s); `boundary_case` marks the
    equality case, where the log power governs.
    """

    member: bool
    critical_exponent: float
    boundary_case: bool


class Sample:
    """The coordinate jets of one point set at one order, and the factors of
    the family that depend only on them and on the domain, each built when
    a member first asks for it and then shared by every member that
    evaluates on the sample.  `norms.cover_norms` builds one per slice, of
    the highest order its terms need.

    Every factor is radial: rho, rho^beta and (1 - log rho)^lam are
    functions of q'' = |x''|^2, and zeta(|x|/R) of q = |x|^2, which is q''
    when ell = 0.  q'' and q are the only jets in the coordinates; beyond
    their value and first-order slots they hold the floats 0.0 and 1.0.
    Each factor is a one-variable jet in q'' or q, of order + 1 slots, and
    a member's jet is their product substituted into q'' by one
    `Jet.compose` (`radial`); when ell > 0 the q'' and q factors are
    composed apart and multiplied.  The singular set is tested on
    q''.value, before any root.  The value slots equal those of the same
    factors multiplied in the coordinates bit for bit, as a composition's
    value slot is the outer value itself; derivative slots differ from
    that chain by rounding only.

    Only q'', q, rho, the factors members multiply and the members' jets
    are kept: 1 - log rho lives only inside its power, and |x''| is let go
    once rho is built.  So a sample that serves one member, as on a wavelet
    grid, holds rho and that member's factors and no more.
    """

    def __init__(self, coords, domain):
        if coords[0].order > MAX_ORDER:
            raise Unsupported(f"derivative order capped at {MAX_ORDER}")
        self.coords, self.domain = coords, domain
        self._shared = {}

    def shared(self, key, build):
        """The factor stored under key, built by build() on first use."""
        if key not in self._shared:
            self._shared[key] = build()
        return self._shared[key]

    # -- the jets in the coordinates -----------------------------------------
    def squared_distance(self):
        """q'' = |x''|^2; raises SingularPoint on the singular set."""
        return self.shared("q''", lambda: squared_distance_jet(
            self.coords, self.domain.ell))

    def squared_norm(self):
        """q = |x|^2 when ell > 0 (on ell = 0 the callers take q'').  q'' is
        built first, so the singular set is tested before any root of q."""
        self.squared_distance()
        return self.shared("q", lambda: squared_norm_jet(self.coords))

    def radial(self, near, far):
        """The jet in the coordinates of near(q'') far(q), from one-variable
        jets near in q'' (or None, for the factor one) and far in q."""
        if self.domain.ell == 0:
            f = far if near is None else near * far
            return self.squared_distance().compose(f.derivatives())
        u = self.squared_norm().compose(far.derivatives())
        if near is None:
            return u
        return self.squared_distance().compose(near.derivatives()) * u

    # -- one-variable factors --------------------------------------------------
    def distance(self):
        """|x''| as a one-variable jet in q''."""
        return self.shared("|x''|", lambda: _root(self.squared_distance()))

    def norm(self):
        """|x| as a one-variable jet in q; |x''| when ell = 0."""
        if self.domain.ell == 0:
            return self.distance()
        return self.shared("|x|", lambda: _root(self.squared_norm()))

    def radial_rho(self):
        """rho as a one-variable jet in q''."""
        def build():
            rho = regularized_distance_from_jets(self.distance())
            # only a later cutoff of another R, or a window, needs it again
            del self._shared["|x''|"]
            return rho
        return self.shared("rho", build)

    def rho_power(self, beta):
        return self.shared(("rho", beta),
                           lambda: self.radial_rho().power(beta))

    def log_power(self, lam):
        """(1 - log rho)^lam = (1 + |log rho|)^lam."""
        return self.shared(("log", lam),
                           lambda: (-self.radial_rho().log() + 1.0).power(lam))

    def cutoff(self, R):
        """zeta(|x| / R), a one-variable jet in q."""
        def build():
            t = self.norm() * (1.0 / R)
            return t.compose(CUTOFF.derivs(t.value, t.order))
        return self.shared(("cutoff", R), build)


def _root(q):
    """sqrt(q) as a jet in the one variable q."""
    return Jet.variable(q.value, 0, 1, q.order).sqrt()


@dataclass(frozen=True)
class TestFunction:
    """u(x) = rho^beta (1 - log rho)^lam zeta(|x|/R) on the given domain."""

    beta: float
    lam: float
    R: float
    domain: object

    def __post_init__(self):
        if not self.R > 0:
            raise InvalidParams("cutoff radius R must be positive")

    # -- evaluation --------------------------------------------------------
    def jet_from_sample(self, sample):
        """Jet of u on a Sample, built once per sample and member.

        The one-variable factors multiply as ((rho^beta (1 - log rho)^lam)
        zeta), leaving out rho^beta when beta = 0 and the log factor when
        lam = 0: a factor of one only adds +-0.0 to each product.  With
        beta = lam = 0 no rho is built, but the singular set is still tested
        on q''.
        """
        def build():
            # zeta first: on ell = 0 it takes |x''| before rho lets it go
            zeta = sample.cutoff(self.R)
            u = sample.rho_power(self.beta) if self.beta != 0.0 else None
            if self.lam != 0.0:
                log = sample.log_power(self.lam)
                u = log if u is None else u * log
            return sample.radial(u, zeta)
        return sample.shared(self, build)

    def jet(self, x, order=MAX_ORDER):
        """Jet of u at points x of shape (d, n)."""
        x = as_points(x, self.domain.d)
        return self.jet_from_sample(Sample(Jet.variables(x, order),
                                           self.domain))

    def __call__(self, x):
        return self.jet(x, order=0).value

    # -- structure ----------------------------------------------------------
    def to_json(self):
        return {"beta": self.beta, "lambda": self.lam, "R": self.R,
                "d": self.domain.d, "ell": self.domain.ell}


def make_test_function(beta, lam, R, domain):
    return TestFunction(float(beta), float(lam), float(R), domain)


# ---------------------------------------------------------------------------
# Membership oracles
# ---------------------------------------------------------------------------

def classify_radial_exponent(e, g):
    """Finiteness of int_0^R t^(e-1) (1 + |log t|)^g dt as a verdict.

    Finite iff e > 0, or e = 0 with g < -1 (the equality case, where the
    log power governs).  e is compared with 0 by `embeddings.compare`, so
    |e| <= BOUNDARY_TOL counts as e = 0 and no verdict flips on rounding
    noise in e.  This is the one radial rule;
    `norms.radial_reference_integral` and the divergence check use it too.
    """
    side = compare(e, 0.0)
    member = g < -1.0 if side == 0 else side > 0
    return MembershipVerdict(bool(member), float(e), side == 0)


def kondratiev_membership(u, m, a, p):
    """Membership of u in K^m_a,p by the exact radial exponent rule.

    Every term of the weighted norm reduces to the 1D integral
    int_0^R t^((beta-a)p + (d-ell) - 1) (1 + |log t|)^(g p) dt with log power
    g in {lam - m, ..., lam}; the worst (largest), lam, governs the boundary
    case.
    """
    if not (0 < p < np.inf):
        raise InvalidParams("p must lie in (0, inf)")
    if m < 0:
        raise InvalidParams("m must be nonnegative")
    if m > MAX_ORDER:
        raise Unsupported(f"derivative order capped at {MAX_ORDER}")
    d, ell = u.domain.d, u.domain.ell
    return classify_radial_exponent((u.beta - a) * p + (d - ell), u.lam * p)


def f_space_membership_radial(beta, gamma, s, p, ell, d):
    """Membership of |x''|^beta (1+|log|x''||)^gamma zeta in F^s_{p,2}.

    Member iff s < (d - ell)/p + beta, or equality with gamma*p < -1.  The
    log-case rule is only stated for gamma >= 0; negative gamma in the
    equality case is outside the proved range.
    """
    if not (0 < p < np.inf):
        raise InvalidParams("p must lie in (0, inf)")
    verdict = classify_radial_exponent((d - ell) / p + beta - s, gamma * p)
    if verdict.boundary_case and gamma < 0:
        raise UndeterminedByPaper(
            "equality case with negative log power is outside the proved range")
    return verdict
