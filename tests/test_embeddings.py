"""Decision procedures for embeddings between the weighted scales."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from klab.embeddings import (BOUNDARY_TOL, FAILS, HOLDS, UNDETERMINED,
                             adaptivity_scale, check_params, compare,
                             decide_embedding, decide_embedding_holder_route,
                             decide_reverse_embedding, pde_regularity_tau,
                             sigma, technical_threshold_a)
from klab.errors import InvalidParams


# --- forward embedding K^m_{a,p} -> F^{m,rloc}_{tau,2} ---

@pytest.mark.parametrize("m,a,p,tau,d,delta,outcome", [
    (2, 2, 2.0, 2.0, 2, 0, HOLDS),     # tau = p and m <= a
    (2, 1, 2.0, 2.0, 2, 0, FAILS),     # tau = p and m > a
    (1, 0, 2.0, 1.0, 2, 0, FAILS),     # m - a = 1 = (d-delta)(1/tau-1/p)
    (1, 0.5, 2.0, 1.0, 2, 0, HOLDS),   # 0.5 < 1
    (2, 1, 2.0, 0.9, 2, 0, HOLDS),     # 1 < 2(1/0.9 - 1/2) = 1.22
    (1, 0, 2.0, 3.0, 2, 0, FAILS),     # tau > p is never sufficient
    (2, 0, 2.0, 1.0, 3, 1, FAILS),     # 2 = (3-1)(1 - 1/2) * 2
    (2, 1.5, 2.0, 1.0, 3, 1, HOLDS),   # 0.5 < 1
])
def test_truth_table_examples(m, a, p, tau, d, delta, outcome):
    assert decide_embedding(m, a, p, tau, d, delta).outcome == outcome


def test_smoothness_guard():
    # m must exceed sigma_{tau,2} = d(1/min(1,tau) - 1): guard decides Fails
    v = decide_embedding(1, 0, 2.0, 0.5, 2, 0)   # sigma = 2 >= m
    assert v.outcome == FAILS
    assert "sigma" in v.trigger


def test_verdict_carries_condition_values():
    v = decide_embedding(1, 0.5, 2.0, 1.0, 2, 0)
    cv = v.condition_values
    assert cv["m_minus_a"] == 0.5
    assert cv["bound"] == pytest.approx(1.0)


@given(m=st.integers(1, 3), a=st.floats(-1, 3), p=st.floats(1.1, 4),
       tau=st.floats(0.8, 4), d=st.sampled_from([2, 3]),
       delta=st.sampled_from([0, 1]))
@settings(max_examples=120, deadline=None)
def test_monotone_in_a(m, a, p, tau, d, delta):
    # increasing the weight parameter a can only help the embedding
    if m <= sigma(tau, 2.0, d):
        return
    if decide_embedding(m, a, p, tau, d, delta).outcome == HOLDS:
        assert decide_embedding(m, a + 0.5, p, tau, d,
                                delta).outcome == HOLDS


@given(m=st.integers(1, 3), a=st.floats(-1, 3), p=st.floats(1.1, 4),
       d=st.sampled_from([2, 3]), delta=st.sampled_from([0, 1]))
@settings(max_examples=80, deadline=None)
def test_tau_above_p_always_fails(m, a, p, d, delta):
    tau = p + 0.3
    if m <= sigma(tau, 2.0, d):
        return
    assert decide_embedding(m, a, p, tau, d, delta).outcome == FAILS


# --- Hoelder route ---

def test_holder_route_holds_inside_the_window():
    # m/d = 1/3 sits in (1/tau - 1, 1/p) and the weight gap closes
    v = decide_embedding_holder_route(1, 0.5, 2.5, 1.0, 3, 0)
    assert v.outcome == HOLDS
    assert v.condition_values["r"] > 0


def test_holder_route_window_failure_is_undetermined():
    # printed inapplicable case: window 0.5 < 1/4 is false
    v = decide_embedding_holder_route(1, 0.5, 4.0, 1.5, 2, 0)
    assert v.outcome == UNDETERMINED


def test_holder_route_improved_branch_and_exponents():
    # the main gap 4/3 - 0.2 < 2(1 - 1/1.9) fails; the improved gap and
    # window 0 < 1/2 < 1/1.9 hold
    m, a, p, tau, d, ell = 1, 0.2, 1.9, 1.0, 3, 1
    v = decide_embedding_holder_route(m, a, p, tau, d, ell)
    assert v.outcome == HOLDS and v.trigger.startswith("improved route")
    values = v.condition_values
    assert values["eta"] == pytest.approx(1 / (m / d + 1 / tau - 1 / p),
                                          rel=1e-15)
    assert values["r"] == pytest.approx(1 / (1 / tau - 1 / p), rel=1e-15)


@pytest.mark.parametrize("decide", [decide_embedding,
                                    decide_reverse_embedding,
                                    decide_embedding_holder_route])
@pytest.mark.parametrize("m,p,tau,d,delta", [
    (1.5, 2.0, 1.0, 2, 0),             # m not an integer
    (0, 2.0, 1.0, 2, 0),               # m < 1
    (1, 1.0, 0.5, 2, 0),               # p <= 1
    (1, 2.0, 0.0, 2, 0),               # tau <= 0
    (1, 2.0, 1.0, 2, 2),               # delta = d
    (1, 2.0, 1.0, 2, -1),              # delta < 0
])
def test_decisions_reject_the_same_tuples(decide, m, p, tau, d, delta):
    with pytest.raises(InvalidParams):
        decide(m, 0.0, p, tau, d, delta)


def test_check_params_messages():
    with pytest.raises(InvalidParams, match="m must be a positive integer"):
        check_params(1.5, 2)
    with pytest.raises(InvalidParams, match="0 <= ell < d, got ell = 3"):
        check_params(1, 3, 3, name="ell")
    check_params(2.0, 2, 1, p=float("inf"), tau=0.1)


def test_holder_route_rejects_tau_ge_p():
    with pytest.raises(InvalidParams):
        decide_embedding_holder_route(2, 2, 2.0, 3.0, 2, 0)


# --- reverse embedding ---

@pytest.mark.parametrize("m,a,p,tau,d,delta,outcome", [
    (1, 1, 2.0, 2.0, 2, 0, HOLDS),     # tau = p and a <= m
    (1, 0, 2.0, 3.0, 2, 0, HOLDS),     # tau > p and m - a > bound
    (1, 2, 2.0, 3.0, 2, 0, FAILS),     # weight too strong
])
def test_reverse_examples(m, a, p, tau, d, delta, outcome):
    assert decide_reverse_embedding(m, a, p, tau, d,
                                    delta).outcome == outcome


# --- the boundary rule: one tolerance for every printed inequality ---

def test_compare_has_one_absolute_tolerance():
    assert compare(1.0, 1.0 + BOUNDARY_TOL / 2) == 0
    assert compare(1.0, 1.0 + 4 * BOUNDARY_TOL) == -1
    assert compare(2.0, 1.0) == 1


@pytest.mark.parametrize("decide,args,trigger", [
    # m - a = 3/5 = 2(4/5 - 1/2) exactly; the float bound is 0.6000000000000001
    (decide_embedding, (1, 0.4, 2.0, 1.25, 2, 0), "necessity"),
    # sigma_{3/4,2} = 3(4/3 - 1) = 1 = m exactly; the float sigma is
    # 0.9999999999999998
    (decide_embedding, (1, 5.0, 2.0, 0.75, 3, 0), "sigma"),
    # m - a = -2/5 = bound exactly, with a > m
    (decide_reverse_embedding, (1, 1.4, 2.5, 5.0, 2, 0), "a > m"),
])
def test_on_line_tuples_take_the_equality_rule(decide, args, trigger):
    v = decide(*args)
    assert v.outcome == FAILS and trigger in v.trigger
    assert v.condition_values["boundaryCase"] is True


def test_off_line_verdicts_are_no_boundary_case():
    assert decide_embedding(1, 0.5, 2.0, 1.0, 2,
                            0).condition_values["boundaryCase"] is False
    v = decide_embedding_holder_route(1, 0.5, 2.5, 1.0, 3, 0)
    assert v.condition_values["boundaryCase"] is False


def exact_embedding(m, a, p, tau, d, delta):
    """decide_embedding's rule in rational arithmetic."""
    one = Fraction(1)
    if m <= d * (one / min(one, tau) - 1):
        return FAILS
    if tau != p:
        return HOLDS if tau < p and m - a < (d - delta) * (
            one / tau - one / p) else FAILS
    return HOLDS if m <= a else FAILS


def exact_reverse(m, a, p, tau, d, delta):
    """decide_reverse_embedding's rule in rational arithmetic."""
    if tau <= p:
        return HOLDS if tau == p and a <= m else FAILS
    gap = m - a - (d - delta) * (Fraction(1) / tau - Fraction(1) / p)
    if gap:
        return HOLDS if gap > 0 else FAILS
    return FAILS if a > m else UNDETERMINED


@st.composite
def on_line_tuples(draw):
    """(m, a, p, tau, d, delta) in tenths or quarters, forced onto one
    critical line of either decision, or left off all of them."""
    den = draw(st.sampled_from([4, 10]))
    frac = lambda lo, hi: Fraction(draw(st.integers(lo * den, hi * den)), den)
    m, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    delta = draw(st.integers(0, d - 1))
    p, tau, a = frac(1, 5), frac(0, 5), frac(-1, 3)
    p, tau = max(p, Fraction(den + 1, den)), max(tau, Fraction(1, den))
    line = draw(st.sampled_from(["sigma", "tau=p", "m=a", "gap", "off"]))
    if line == "sigma":
        tau = Fraction(d, m + d)          # d(1/tau - 1) = m
    if line in ("tau=p", "m=a"):
        tau = p
    if line == "m=a":
        a = Fraction(m)
    if line == "gap":
        a = m - (d - delta) * (1 / tau - 1 / p)
    return m, a, p, tau, d, delta


@given(on_line_tuples())
@settings(max_examples=400, deadline=None)
def test_float_verdicts_equal_the_exact_rational_verdicts(t):
    m, a, p, tau, d, delta = t
    floats = (m, float(a), float(p), float(tau), d, delta)
    assert decide_embedding(*floats).outcome == exact_embedding(*t)
    assert decide_reverse_embedding(*floats).outcome == exact_reverse(*t)


# --- PDE regularity scale and adaptivity ---

def test_pde_tau_printed_example():
    assert pde_regularity_tau(1, 0, 2, 0) == pytest.approx(1.0)


def test_pde_tau_formula():
    # tau* = ((m - a)/(d - delta) + 1/2)^-1
    assert pde_regularity_tau(2, 0.5, 2, 0) == pytest.approx(
        1.0 / (1.5 / 2 + 0.5))


def test_pde_tau_checks_a_against_a_bar_and_m():
    # with a_bar: |a| < min(a_bar, m), strictly
    assert pde_regularity_tau(1, 0.5, 2, 0, a_bar=0.6) == pytest.approx(
        1.0 / (0.25 + 0.5))
    with pytest.raises(InvalidParams, match="a_bar"):
        pde_regularity_tau(1, 0.5, 2, 0, a_bar=0.5)
    # without: |a| <= m
    assert pde_regularity_tau(1, -1.0, 2, 0) == pytest.approx(1.0 / 1.5)
    with pytest.raises(InvalidParams, match=r"\|a\| <= m"):
        pde_regularity_tau(1, 1.5, 2, 0)


def test_reverse_equality_case_is_undetermined():
    # tau - p = 5e-12 decides tau > p, and m - a = 0 equals the bound
    # -3.1e-13 within BOUNDARY_TOL; a = m leaves the paper silent
    v = decide_reverse_embedding(1, 1, 4.0, 4.0 + 5e-12, 2, 1)
    assert v.outcome == UNDETERMINED
    assert v.condition_values["boundaryCase"] is True


def test_adaptivity_scale():
    # tau = (m/d + 1/2)^-1
    assert adaptivity_scale(2, 1) == pytest.approx(1.0)
    assert adaptivity_scale(2, 2) == pytest.approx(1.0 / 1.5)


def test_technical_threshold_vacuous_for_large_tau():
    out = technical_threshold_a(0, 2, 2.0, 2.0)
    assert out["vacuous"]


def test_technical_threshold_value():
    out = technical_threshold_a(0, 2, 0.8, 2.0)
    # a > ell(1/tau - 1/p) + d(1/p - 1)
    assert out["threshold"] == pytest.approx(0 * (1.25 - 0.5)
                                             + 2 * (0.5 - 1.0))
    assert not out["vacuous"]
