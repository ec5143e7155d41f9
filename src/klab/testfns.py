"""Closed-form radial test functions with exact derivatives and membership oracles.

The family is u(x) = rho(x)^beta * (1 + |log rho(x)|)^lam * zeta(|x|/R) with
rho the regularized distance to the singular set (valued in (0, 1], so
1 + |log rho| = 1 - log rho) and zeta the fixed C^4 radial cutoff that is 1 on
[0, 1] and 0 on [2, inf).  Points are arrays of shape (d, n)
(`geometry.as_points`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import compare
from .errors import InvalidParams, Unsupported, UndeterminedByPaper
from .geometry import as_points, distance_jet, regularized_distance_from_jets
from .jets import Jet
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
    the family that depend only on them and on the domain: rho, rho^beta,
    (1 - log rho)^lam and zeta(|x|/R) for each beta, lam and R, and each
    member's jet.  A factor is built when a member first asks for it and
    then shared by every member that evaluates on the sample.

    When ell = 0, |x''| is |x|: rho and zeta share one norm jet, and with it
    the singular-set test.  Only rho, the factors members multiply and the
    members' jets are kept: 1 - log rho lives only inside its power, and
    the |x''| jet is let go once rho is built.  So a sample that serves one
    member, as on a wavelet grid, holds rho and that member's factors and
    no more.
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

    def distance(self):
        """|x''|; raises SingularPoint on the singular set."""
        return self.shared(
            "distance", lambda: distance_jet(self.coords, self.domain.ell))

    def norm(self):
        """|x|, which is |x''| when ell = 0; raises SingularPoint at the
        origin."""
        if self.domain.ell == 0:
            return self.distance()
        return self.shared("norm", lambda: distance_jet(self.coords, 0))

    def rho(self):
        def build():
            rho = regularized_distance_from_jets(self.distance())
            # only a later cutoff of another R, or a window, needs it again
            del self._shared["distance"]
            return rho
        return self.shared("rho", build)

    def require_off_singular_set(self):
        """Raise SingularPoint on the singular set.  rho's |x''| was tested
        when rho was built, so only a sample without rho builds |x''|."""
        if "rho" not in self._shared:
            self.distance()

    def rho_power(self, beta):
        return self.shared(("rho", beta), lambda: self.rho().power(beta))

    def log_power(self, lam):
        """(1 - log rho)^lam = (1 + |log rho|)^lam."""
        return self.shared(("log", lam),
                           lambda: (-self.rho().log() + 1.0).power(lam))

    def cutoff(self, R):
        """zeta(|x| / R)."""
        def build():
            t = self.norm() * (1.0 / R)
            return t.compose(CUTOFF.derivs(t.value, t.order))
        return self.shared(("cutoff", R), build)


@dataclass(frozen=True)
class TestFunction:
    """u(x) = rho^beta (1 - log rho)^lam zeta(|x|/R) on the given domain."""

    beta: float
    lam: float
    R: float
    domain: object
    extra_order = 0   # orders its sample needs beyond its terms' (none)

    def __post_init__(self):
        if not self.R > 0:
            raise InvalidParams("cutoff radius R must be positive")

    # -- evaluation --------------------------------------------------------
    def jet_from_sample(self, sample):
        """Jet of u on a Sample, built once per sample and member.

        The factors multiply as ((rho^beta (1 - log rho)^lam) zeta), leaving
        out rho^beta when beta = 0 and the log factor when lam = 0: a
        factor of one only adds +-0.0 to each product.  With beta = lam = 0
        no rho is built, but the singular set is still tested on |x''|^2.
        """
        def build():
            # zeta first: on ell = 0 it takes |x''| before rho lets it go;
            # its norm, like rho's |x''|, is tested before the root
            zeta = sample.cutoff(self.R)
            u = sample.rho_power(self.beta) if self.beta != 0.0 else None
            if self.lam != 0.0:
                log = sample.log_power(self.lam)
                u = log if u is None else u * log
            if u is None:
                sample.require_off_singular_set()
                return zeta
            return u * zeta
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
