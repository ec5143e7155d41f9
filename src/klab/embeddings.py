"""Exact decision procedures for the embedding and regularity statements.

Every function evaluates printed parameter inequalities only; no quadrature.
Sufficient-only statements return UNDETERMINED outside their proved range
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParams

HOLDS = "Holds"
FAILS = "Fails"
UNDETERMINED = "UndeterminedByPaper"

BOUNDARY_TOL = 1e-12   # |lhs - rhs| at most this is the equality case


def compare(lhs, rhs):
    """-1, 0 or 1 as lhs is below, equal to or above rhs, where equal means
    |lhs - rhs| <= BOUNDARY_TOL.  Every printed inequality is decided
    through it, so that no verdict flips on rounding noise."""
    if abs(lhs - rhs) <= BOUNDARY_TOL:
        return 0
    return 1 if lhs > rhs else -1


@dataclass(frozen=True)
class Verdict:
    outcome: str
    trigger: str
    condition_values: dict = field(default_factory=dict)

    def to_json(self):
        return {"outcome": self.outcome, "trigger": self.trigger,
                "conditionValues": self.condition_values}


def _verdict(outcome, trigger, values, boundary_case):
    """A Verdict whose condition values record `boundaryCase`: whether a
    comparison that decided it was an equality case."""
    return Verdict(outcome, trigger, {**values, "boundaryCase": boundary_case})


def sigma(tau, q, d):
    """sigma_{tau,q} = d (1/min(1, tau, q) - 1)."""
    if tau <= 0 or q <= 0:
        raise InvalidParams("tau and q must be positive")
    return d * (1.0 / min(1.0, tau, q) - 1.0)


def check_params(m, d, delta=0, p=None, tau=None, name="delta"):
    """Raise InvalidParams unless 1 < p and 0 < tau (where given), m is a
    positive integer and 0 <= delta < d; `name` is delta's name in the
    message."""
    if p is not None and not 1 < p:
        raise InvalidParams("p must lie in (1, inf)")
    if tau is not None and not 0 < tau:
        raise InvalidParams("tau must be positive")
    if not (m >= 1 and float(m).is_integer()):
        raise InvalidParams("m must be a positive integer")
    if not 0 <= delta < d:
        raise InvalidParams(f"need 0 <= {name} < d, got {name} = {delta}, "
                            f"d = {d}")


def adaptivity_scale(d, m):
    """tau on the adaptivity scale: m = d(1/tau - 1/2), always < 2."""
    check_params(m, d)
    return 1.0 / (m / d + 0.5)


def decide_embedding(m, a, p, tau, d, delta):
    """K^m_{a,p} -> F^{m,rloc}_{tau,2}: holds iff (tau < p and
    m - a < (d - delta)(1/tau - 1/p)) or (tau = p and m <= a); requires
    m > sigma_{tau,2} for the target space to make sense."""
    check_params(m, d, delta, p, tau)
    sig = sigma(tau, 2, d)
    bound = (d - delta) * (1.0 / tau - 1.0 / p)
    values = {"m": m, "a": a, "p": p, "tau": tau, "d": d, "delta": delta,
              "sigma": sig, "m_minus_a": m - a, "bound": bound}
    guard = compare(m, sig)
    if guard <= 0:
        return _verdict(FAILS, "m <= sigma_{tau,2}: target space guard",
                        values, guard == 0)
    side = compare(tau, p)
    if side > 0:
        return _verdict(FAILS, "Lemma 4.2: embedding implies tau <= p",
                        values, False)
    if side == 0:
        if compare(m, a) <= 0:
            return _verdict(HOLDS, "tau = p and m <= a", values, True)
        return _verdict(FAILS, "tau = p requires m <= a", values, True)
    # tau < p
    gap = compare(m - a, bound)
    if gap < 0:
        return _verdict(HOLDS, "tau < p and m - a < (d - delta)(1/tau - 1/p)",
                        values, False)
    return _verdict(FAILS, "necessity: m - a >= (d - delta)(1/tau - 1/p)",
                    values, gap == 0)


def decide_embedding_holder_route(m, a, p, tau, d, ell):
    """Sufficient conditions of the Holder-inequality route.

    Main route: (d + ell)/d * m - a < (d - ell)(1/tau - 1/p) and
    1/tau - 1 < m/d < 1/p.  Improved route: m - a < (d - ell)(1/tau - 1/p)
    and 1/tau - 1 < m/(d - ell) < 1/p.  The condition values record the
    route's exponents eta (1/eta = m/d + 1/tau - 1/p) and r
    (1/r = 1/tau - 1/p).
    """
    check_params(m, d, ell, p, tau, name="ell")
    if not tau < p:
        raise InvalidParams("the Holder route requires tau < p")
    inv_eta = m / d + 1.0 / tau - 1.0 / p
    inv_r = 1.0 / tau - 1.0 / p          # both > 0 once m >= 1, 0 < tau < p
    bound = (d - ell) * inv_r
    cmps = {"main_gap": [compare((d + ell) / d * m - a, bound)],
            "main_window": [compare(1.0 / tau - 1.0, m / d),
                            compare(m / d, 1.0 / p)],
            "improved_gap": [compare(m - a, bound)],
            "improved_window": [compare(1.0 / tau - 1.0, m / (d - ell)),
                                compare(m / (d - ell), 1.0 / p)]}
    # every condition is a chain of strict inequalities
    met = {k: all(c < 0 for c in cs) for k, cs in cmps.items()}
    values = {"bound": bound, "eta": 1.0 / inv_eta, "r": 1.0 / inv_r, **met}
    boundary = any(0 in cs for cs in cmps.values())
    if met["main_gap"] and met["main_window"]:
        return _verdict(HOLDS, "main route: gap and window conditions",
                        values, boundary)
    if met["improved_gap"] and met["improved_window"]:
        return _verdict(HOLDS, "improved route: gap and window conditions",
                        values, boundary)
    return _verdict(UNDETERMINED, "sufficient conditions of both routes fail",
                    values, boundary)


def decide_reverse_embedding(m, a, p, tau, d, delta):
    """F^{m,rloc}_{tau,2} -> K^m_{a,p}: sufficient if (tau > p and
    m - a > (d - delta)(1/tau - 1/p)) or (tau = p and a <= m); necessity
    fails when tau < p, when m - a < (d - delta)(1/tau - 1/p), or at the
    equality case with a > m."""
    check_params(m, d, delta, p, tau)
    bound = (d - delta) * (1.0 / tau - 1.0 / p)
    values = {"m": m, "a": a, "p": p, "tau": tau, "d": d, "delta": delta,
              "m_minus_a": m - a, "bound": bound}
    side = compare(tau, p)
    if side < 0:
        return _verdict(FAILS, "necessity: reverse embedding implies p <= tau",
                        values, False)
    if side == 0:
        if compare(a, m) <= 0:
            return _verdict(HOLDS, "tau = p and a <= m", values, True)
        return _verdict(FAILS, "tau = p with a > m", values, True)
    # tau > p (bound < 0)
    gap = compare(m - a, bound)
    if gap > 0:
        return _verdict(HOLDS, "tau > p and m - a > (d - delta)(1/tau - 1/p)",
                        values, False)
    if gap < 0:
        return _verdict(FAILS, "necessity: m - a < (d - delta)(1/tau - 1/p)",
                        values, False)
    if compare(a, m) > 0:
        return _verdict(FAILS, "necessity: equality case with a > m", values,
                        True)
    return _verdict(UNDETERMINED, "equality case not covered by the paper",
                    values, True)


def pde_regularity_tau(m, a, d, delta, a_bar=None):
    """Supremum tau* = ((m - a)/(d - delta) + 1/2)^{-1} of the regularity
    range.  The hypothesis |a| < min(a_bar, m) uses a caller-supplied
    domain-dependent bound a_bar; it is never fabricated here."""
    check_params(m, d, delta)
    if a_bar is not None and not abs(a) < min(a_bar, m):
        raise InvalidParams("requires |a| < min(a_bar, m)")
    if a_bar is None and not abs(a) <= m:
        raise InvalidParams("requires |a| <= m (pass a_bar to tighten)")
    return 1.0 / ((m - a) / (d - delta) + 0.5)


def technical_threshold_a(ell, d, tau, p):
    """Lower bound a > ell(1/tau - 1/p) + d(1/p - 1); vacuous (flagged)
    when tau >= 1 so that sigma_{tau,2} = 0."""
    value = ell * (1.0 / tau - 1.0 / p) + d * (1.0 / p - 1.0)
    return {"threshold": value, "vacuous": tau >= 1.0}
