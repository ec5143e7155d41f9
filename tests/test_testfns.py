"""Closed test-function family and its membership oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab.errors import InvalidParams, UndeterminedByPaper
from klab.geometry import ModelDomain, regularized_distance
from klab.jets import Jet, multi_indices, squared_norm_jet
from klab.profiles import CAP, CUTOFF, WINDOW
from klab.testfns import (Sample, f_space_membership_radial,
                          kondratiev_membership, make_test_function)


@pytest.fixture(scope="module")
def dom():
    return ModelDomain(2, 0)


def test_values_match_closed_form(dom):
    u = make_test_function(1.2, -0.7, 1.0, dom)
    # inside the plateau of the cutoff and below the distance cap the value
    # is exactly rho^beta (1 + |log rho|)^lambda with rho = |x|
    x = np.array([[0.03], [0.04]])
    r = 0.05
    expected = r ** 1.2 * (1 - math.log(r)) ** -0.7
    assert float(u(x)[0]) == pytest.approx(expected, rel=1e-12)


def test_cutoff_vanishes_far_away(dom):
    u = make_test_function(0.5, 0.0, 1.0, dom)
    x = np.array([[2.5], [0.0]])
    assert float(u(x)[0]) == 0.0


def test_jet_matches_finite_difference(dom):
    u = make_test_function(1.5, -0.7, 1.0, dom)
    x0 = np.array([0.21, -0.13])
    jet = u.jet(x0.reshape(2, 1), order=2)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (u((x0 + e).reshape(2, 1))[0]
              - u((x0 - e).reshape(2, 1))[0]) / (2 * h)
        alpha = tuple(1 if q == i else 0 for q in range(2))
        assert float(jet.derivative(alpha)[0]) == pytest.approx(
            float(fd), rel=1e-6, abs=1e-8)


def _assert_singular_point_raises(dom):
    from klab.errors import SingularPoint
    from klab.geometry import regularized_distance
    from klab.jets import Jet
    from klab.testfns import Sample
    from klab.verify import PulledBackFunction
    u = make_test_function(0.5, 0.0, 1.0, dom)
    pulled = PulledBackFunction(u, [[1.0, 1.0], [1.0, 1.0]])
    for domain in (dom, ModelDomain(2, 1), ModelDomain(3, 1)):
        v = make_test_function(0.5, 0.0, 1.0, domain)
        with pytest.raises(SingularPoint):
            v(np.zeros((domain.d, 1)))
        with pytest.raises(SingularPoint):
            regularized_distance(np.zeros((domain.d, 1)), domain)
        with pytest.raises(SingularPoint):
            v.jet(np.zeros((domain.d, 1)), order=2)
    with pytest.raises(SingularPoint):
        pulled.jet_from_sample(Sample(
            Jet.variables(np.array([[0.5, 0.3], [-0.5, 0.2]]), 2), dom))


def test_points_are_columns_whatever_their_count(dom):
    # a (2, 2) array holds two points as columns, as a (2, 3) array holds
    # three; rows are refused (next test), since with n = d no guess from
    # the shape can tell rows from columns
    u = make_test_function(1.2, -0.7, 1.0, dom)
    three = np.array([[0.1, 0.3, 0.5], [0.2, 0.1, -0.4]])
    for evaluate in (dom.distance, lambda x: regularized_distance(x, dom), u):
        np.testing.assert_allclose(evaluate(three[:, :2]),
                                   evaluate(three)[:2], rtol=1e-14)


@pytest.mark.parametrize("x", [np.full((3, 2), 0.3), np.array([0.3, 0.2])])
def test_rows_and_single_points_raise(dom, x):
    u = make_test_function(1.2, -0.7, 1.0, dom)
    for evaluate in (dom.distance, lambda x: regularized_distance(x, dom), u):
        with pytest.raises(InvalidParams):
            evaluate(x)


def test_singular_point_raises(dom):
    # the origin lies on every singular set, and the cutoff jet needs no
    # patch there: the distance jet raises first, also for a pullback that
    # maps a node to the origin
    _assert_singular_point_raises(dom)


def test_singular_point_raises_before_any_float_error(dom):
    # the singular set is tested on |x''|^2 before the root, so no numpy
    # warning (here: error) comes before SingularPoint
    with np.errstate(all="raise"):
        _assert_singular_point_raises(dom)


# --- Kondratiev membership oracle: rho^beta (1+|log rho|)^lam in K^m_{a,p} ---

@pytest.mark.parametrize("beta,lam,m,a,p,member", [
    (1.0, 0.0, 1, 0.5, 2.0, True),    # (beta-a)p + d = 3 > 0
    (0.5, 0.0, 1, 1.5, 2.0, False),   # exponent 0 at the boundary, lam = 0
    (0.5, -0.7, 1, 1.5, 2.0, True),   # boundary, lam p = -1.4 < -1
    (0.5, -0.4, 1, 1.5, 2.0, False),  # boundary, lam p = -0.8 >= -1
    (0.2, 0.0, 2, 2.0, 2.0, False),   # (beta-a)p + d = -1.6 < 0
    (2.0, 3.0, 1, 1.0, 2.0, True),    # positive exponent beats any log
])
def test_kondratiev_membership_table(beta, lam, m, a, p, member, dom):
    u = make_test_function(beta, lam, 1.0, dom)
    v = kondratiev_membership(u, m, a, p)
    assert v.member is member


def test_membership_uses_worst_log_power(dom):
    # derivatives lower the log power: boundary case governed by lam - 0
    u = make_test_function(1.0, -0.3, 1.0, dom)
    v = kondratiev_membership(u, 1, 2.0, 2.0)  # exponent (1-2)*2+2 = 0
    assert v.boundary_case
    assert not v.member  # -0.3 * 2 = -0.6 >= -1


def test_membership_rejects_negative_order(dom):
    u = make_test_function(1.0, 0.0, 1.0, dom)
    with pytest.raises(InvalidParams, match="m must be nonnegative"):
        kondratiev_membership(u, -1, 0.0, 2.0)


@given(beta=st.floats(0.1, 3.0), a=st.floats(-1.0, 3.0),
       p=st.floats(1.1, 4.0))
@settings(max_examples=80, deadline=None)
def test_membership_monotone_in_weight(beta, a, p):
    # shrinking the weight parameter a never destroys membership
    u = make_test_function(beta, 0.0, 1.0, ModelDomain(2, 0))
    if kondratiev_membership(u, 1, a, p).member:
        assert kondratiev_membership(u, 1, a - 0.5, p).member


# --- radial F-space rule: s < (d - ell)/p + beta (Prop-style) ---

@pytest.mark.parametrize("beta,gamma,s,p,ell,d,member", [
    (0.5, 0.0, 1.0, 2.0, 0, 2, True),    # 1 < 1 + 0.5
    (0.0, 0.0, 1.0, 2.0, 0, 2, False),   # boundary with gamma = 0
    (0.0, 0.0, 2.0, 2.0, 0, 2, False),   # 2 > 1
    (1.0, 0.0, 1.0, 2.0, 1, 2, True),    # 1 < 0.5 + 1
])
def test_f_radial_rule(beta, gamma, s, p, ell, d, member):
    v = f_space_membership_radial(beta, gamma, s, p, ell, d)
    assert v.member is member
    assert v.critical_exponent == (d - ell) / p + beta - s


def test_f_radial_boundary_negative_log_is_undetermined():
    with pytest.raises(UndeterminedByPaper):
        f_space_membership_radial(0.0, -0.7, 1.0, 2.0, 0, 2)


def test_to_json_round_trip(dom):
    u = make_test_function(1.2, -0.7, 0.5, dom)
    j = u.to_json()
    v = make_test_function(j["beta"], j["lambda"], j["R"],
                           ModelDomain(j["d"], j["ell"]))
    x = np.array([[0.05], [0.02]])
    assert float(v(x)[0]) == float(u(x)[0])


def _chain_jet(u, x, order):
    """u's jet from the chain in the coordinates, the reference for the
    one-variable factors of `Sample`: |x''| and |x| as coordinate jets of
    their own, rho = eta(|x''|), zeta(|x|/R), the powers and the products
    all in the coordinates, rho^0 the constant jet one."""
    coords = Jet.variables(x, order)
    dist = squared_norm_jet(coords[u.domain.ell:]).sqrt()
    rho = dist.compose(CAP.derivs(dist.value, order))
    v = rho.power(u.beta)
    if u.lam != 0.0:
        v = v * (-rho.log() + 1.0).power(u.lam)
    t = squared_norm_jet(coords).sqrt() * (1.0 / u.R)
    return v * t.compose(CUTOFF.derivs(t.value, order))


def _window_chain_jet(u, j, x, order):
    """The reference of WindowedFunction(u, j): w(log2(1/|x|) - j) u with
    the window in the coordinates."""
    t = (squared_norm_jet(Jet.variables(x, order)).sqrt().log()
         * (-1.0 / math.log(2.0))) - float(j)
    return t.compose(WINDOW.derivs(t.value, order)) * _chain_jet(u, x, order)


DERIVATIVE_TOL = 1e-12   # of the largest |slot| of the reference
DOMAINS = [(d, ell) for d in (1, 2, 3) for ell in range(d)]


def _assert_rounding_only(got, want, values_equal=True):
    """Value slots equal (when values_equal), and every slot within
    DERIVATIVE_TOL times the reference slot's largest magnitude."""
    if values_equal:
        assert np.array_equal(got.value, want.value)
    for g, w in zip(got.coeffs, want.coeffs, strict=True):
        assert np.max(np.abs(np.subtract(g, w))) \
            <= DERIVATIVE_TOL * np.max(np.abs(w))


def _family(domain):
    return [make_test_function(b, l, R, domain) for b in (0.0, 0.5, 1.2)
            for l in (0.0, -0.7) for R in (1.0, 0.7)]


def _points(d):
    return np.random.default_rng(3).uniform(-2.5, 2.5, (d, 400))


@pytest.mark.parametrize("d,ell", DOMAINS)
def test_sample_jets_equal_separate_norm_jets(d, ell):
    # the members' one-variable factors, composed once, against the chain
    # in the coordinates: values equal, derivatives equal up to rounding;
    # one shared sample gives every member the jet a fresh sample gives it,
    # and leaving out a factor of one changes no slot
    domain = ModelDomain(d, ell)
    x = _points(d)
    for order in range(5):
        sample = Sample(Jet.variables(x, order), domain)
        assert (sample.norm() is sample.distance()) == (ell == 0)
        for u in _family(domain):
            got = u.jet_from_sample(sample)
            _assert_rounding_only(got, _chain_jet(u, x, order))
            fresh = u.jet_from_sample(Sample(Jet.variables(x, order), domain))
            ones = sample.rho_power(u.beta) * sample.log_power(u.lam)
            full = sample.radial(ones, sample.cutoff(u.R))
            for other in (fresh, full):
                assert all(np.array_equal(g, w) for g, w
                           in zip(got.coeffs, other.coeffs, strict=True))


@pytest.mark.parametrize("d,ell", DOMAINS)
def test_windowed_and_derivative_jets_equal_the_chain(d, ell):
    # the window is a one-variable jet in |x|^2 composed like u's factors;
    # every d^alpha u, read from u's composed jet, is the chain's up to
    # rounding (the derivative-mapping check reads its terms so)
    from klab.verify import WindowedFunction
    domain = ModelDomain(d, ell)
    x = _points(d)
    for order in range(5):
        for u in _family(domain)[::3]:
            sample = Sample(Jet.variables(x, order), domain)
            for j in (0, 2):
                _assert_rounding_only(
                    WindowedFunction(u, j).jet_from_sample(sample),
                    _window_chain_jet(u, j, x, order))
            got, chain = u.jet_from_sample(sample), _chain_jet(u, x, order)
            for alpha in multi_indices(d, order):
                want = chain.derivative(alpha)
                assert np.max(np.abs(got.derivative(alpha) - want)) \
                    <= DERIVATIVE_TOL * np.max(np.abs(want))
