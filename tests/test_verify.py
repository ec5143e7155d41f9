"""Experiment harness: light configurations of every check."""

import math
from dataclasses import replace

import numpy as np
import pytest

from klab import norms, testfns, verify, wavelets
from klab.embeddings import FAILS, HOLDS
from klab.errors import EmptyFamily, InvalidParams
from klab.geometry import ModelDomain, PartitionOfUnity, regularized_distance
from klab.jets import multi_indices
from klab.norms import SpaceParams
from klab.testfns import make_test_function
from klab.verify import (DIFFEO_CATALOG, EXPERIMENTS, check_classification_grid,
                         check_cone_localization,
                         check_counterexample_divergence,
                         check_derivative_mapping, check_diffeo_invariance,
                         check_dual_route, check_embedding_ratio,
                         check_localization, check_norm_equivalence_Kmm,
                         check_partition_diagnostics,
                         check_rho_power_isomorphism, check_scaling_homogeneity,
                         check_sharp_norm, check_truth_table, default_family,
                         standard_cover, _sector_cover)


@pytest.fixture(scope="module")
def dom():
    return ModelDomain(2, 0)


@pytest.fixture(scope="module")
def cover(dom):
    return standard_cover(dom, radius=2, j_max=10)


@pytest.fixture(scope="module")
def fam(dom):
    return default_family(dom, betas=(0.8, 1.2, 2.0), lambdas=(0.0,))


def test_truth_table_no_mismatches():
    out = check_truth_table(n=60, seed=1)
    assert out["passed"] and out["tuples"] == 60


def test_truth_table_literal_at_tau_equal_p(monkeypatch):
    # no seeded draw lands on tau = p; a generator whose tau draw (the
    # uniform on [0.5, 4)) repeats the p drawn just before it reaches the
    # literal's tau = p branch on both of its sides
    default_rng = np.random.default_rng

    class TiedRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def uniform(self, lo, hi):
            if lo != 0.5:
                self.last = self.rng.uniform(lo, hi)
            return self.last

    monkeypatch.setattr(np.random, "default_rng", TiedRng)
    out = check_truth_table(n=20, seed=1)
    assert all(r["tau"] == r["p"] for r in out["rows"])
    assert {r["literal"] for r in out["rows"]} == {HOLDS, FAILS}
    assert out["passed"]


def test_norm_equivalence(fam, dom, cover):
    r = check_norm_equivalence_Kmm(fam, 1, 2.0, dom, cover)
    assert r.passed and r.spread < 50


def test_one_jet_per_slice_for_all_norms_of_a_member(dom, monkeypatch):
    # a member's norms come from one pass over the cover, so its jet is
    # built once per slice, not once per norm (three norms, and two beside
    # the wavelet route); the cover evaluates it by jet_from_sample
    cover = standard_cover(dom, radius=2, j_max=6)
    monkeypatch.setattr(norms, "SLICE_NODES", 1000)
    nodes = sum(len(ks) for ks in cover.levels.values()) * 4 ** 2
    slices = -(-nodes // 1000)
    ladder, jet = norms.integral_ladder, testfns.TestFunction.jet_from_sample
    depth, calls = [], []

    def counted_ladder(*args, **kwargs):
        depth.append(1)
        try:
            return ladder(*args, **kwargs)
        finally:
            depth.pop()

    def counted_jet(self, *args, **kwargs):
        calls.extend(depth)
        return jet(self, *args, **kwargs)

    monkeypatch.setattr(norms, "integral_ladder", counted_ladder)
    monkeypatch.setattr(testfns.TestFunction, "jet_from_sample", counted_jet)
    u = make_test_function(1.5, 0.0, 1.0, dom)
    check_norm_equivalence_Kmm([u], 1, 2.0, dom, cover, nodes_per_dim=4)
    assert len(calls) == slices > 1
    calls.clear()
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    check_embedding_ratio(params, [u], cover=cover, J=5, nodes_per_dim=4)
    assert len(calls) == slices


def test_embedding_ratio_above_one_takes_the_sobolev_route(dom, cover):
    # tau > 1: the smoothness term is the W^m_tau norm, no wavelets
    params = SpaceParams(m=1, a=1.0, p=2.0, d=2, ell=0, tau=1.5)
    fam = default_family(dom, betas=(1.2, 1.5, 2.0), lambdas=(0.0,))
    r = check_embedding_ratio(params, fam, cover=cover)
    assert r.passed and len(r.ratios) == 3
    assert all(np.isfinite(x) for x in r.ratios)
    assert "tailShares" not in r.notes and "waveletOrder" not in r.notes


def test_wavelet_route_looks_the_transforms_up_at_call_time(dom, cover,
                                                            monkeypatch):
    # one transform and one square function per kept member, found on the
    # module when the check runs, so a wrapper set there (as perfbench's
    # tracer sets one) sees each call
    calls = {"wavelet_coefficients": 0, "f_sequence_norm": 0}

    def counting(name):
        inner = getattr(wavelets, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(wavelets, name, counting(name))
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    fam = default_family(dom, betas=(1.2, 2.0), lambdas=(0.0,))
    r = check_embedding_ratio(params, fam, cover=cover, J=4, nodes_per_dim=2)
    assert len(r.ratios) == 2
    assert calls == {"wavelet_coefficients": 2, "f_sequence_norm": 2}
    calls.update(dict.fromkeys(calls, 0))
    # the dual route adds the cutoff's Parseval transform
    r = check_dual_route(J=4, j_max=5, nodes_per_dim=2, parseval_J=4)
    kept = len(r.ratios)
    assert kept > 1
    assert calls == {"wavelet_coefficients": kept + 1,
                     "f_sequence_norm": kept}


@pytest.mark.parametrize("nodes, error, passed", [(1, 0.0144, False),
                                                  (2, 0.0083, True)])
def test_dual_route_fails_on_the_parseval_bound(nodes, error, passed):
    # the cutoff's Parseval error lies either side of 0.01 on one and two
    # nodes per dimension, while the ratio spread passes on both
    r = check_dual_route(J=4, j_max=5, nodes_per_dim=nodes, parseval_J=4)
    assert r.spread < r.spread_bound
    assert r.notes["parsevalRelativeError"] == pytest.approx(error, rel=1e-2)
    assert r.passed is passed


def test_norm_equivalence_fails_when_doubling_moves_the_spread(monkeypatch):
    # doubling the nodes moves criterion 2's spread by 9.0e-10
    for tol, passed in ((1e-9, True), (8e-10, False)):
        monkeypatch.setattr(verify, "DOUBLING_TOL", tol)
        r = EXPERIMENTS["norm-equivalence"]()
        assert r.notes["doublingChange"] == pytest.approx(9.0e-10, rel=1e-2)
        assert r.passed is passed


def test_dual_route_takes_all_cover_norms_from_one_pass(monkeypatch):
    # the Sobolev norms of every kept member of the default family and the
    # cutoff's L_2 norm come from one integral ladder
    ladder, calls = norms.integral_ladder, []

    def counted_ladder(*args, **kwargs):
        calls.append(1)
        return ladder(*args, **kwargs)

    monkeypatch.setattr(norms, "integral_ladder", counted_ladder)
    report = check_dual_route(J=4, j_max=5, nodes_per_dim=2, parseval_J=4)
    assert len(report.ratios) > 1
    assert len(calls) == 1


def test_sharp_norm(fam, dom, cover):
    r = check_sharp_norm(fam, 1, 0.5, 2.0, dom, cover)
    assert r.passed


def test_sharp_norm_weight_grid(fam, dom, cover):
    for a in (0.0, 0.5, 1.0):
        r = check_sharp_norm(fam, 1, a, 2.0, dom, cover)
        assert r.spread < 50


def test_localization(fam, dom):
    cov = standard_cover(dom, radius=2, j_max=7)
    pou = PartitionOfUnity(cov)
    r = check_localization(fam[:2], 1, 0.5, 2.0, cov, pou)
    assert r.passed


def test_localization_repeats_on_a_kept_partition(dom):
    # the second check multiplies the phi the first kept on the pou; a
    # fresh pou evaluates phi anew: the ratios are equal, bit for bit
    cov = standard_cover(dom, radius=2, j_max=5)
    fam14, pou = default_family(dom), PartitionOfUnity(cov)
    first = check_localization(fam14, 1, 0.5, 2.0, cov, pou, 4)
    again = check_localization(fam14, 1, 0.5, 2.0, cov, pou, 4)
    fresh = check_localization(fam14, 1, 0.5, 2.0, cov,
                               PartitionOfUnity(cov), 4)
    assert len(first.ratios) == 14
    assert again.ratios == first.ratios and fresh.ratios == first.ratios


def test_localization_evaluates_psi_once_per_slice(dom, monkeypatch):
    cov = standard_cover(dom, radius=2, j_max=5)
    pou = PartitionOfUnity(cov)
    # three 16-node cubes per slice, so levels take several slices
    monkeypatch.setattr(norms, "SLICE_NODES", 3 * 16)
    slices = sum(-(-len(ks) // 3) for ks in cov.levels.values())
    calls, psi_jet = [], PartitionOfUnity.psi_jet

    def counted(self, x, order):
        calls.append(x.shape[1])
        return psi_jet(self, x, order)

    monkeypatch.setattr(PartitionOfUnity, "psi_jet", counted)
    fam14 = default_family(dom)
    check_localization(fam14, 1, 0.5, 2.0, cov, pou, 4)
    assert len(fam14) == 14 and len(calls) == slices > len(cov.counts)
    calls.clear()
    check_localization(fam14, 1, 0.5, 2.0, cov, pou, 4)
    assert calls == []


def test_rho_power_isomorphism(fam, dom, cover):
    r = check_rho_power_isomorphism(fam, 1, 0.5, 1.0, 2.0, dom, cover)
    assert r.passed and r.spread < 2.0


def test_empty_family_raises(dom, cover):
    bad = default_family(dom, betas=(-3.0,), lambdas=(0.0,))
    with pytest.raises(EmptyFamily):
        check_norm_equivalence_Kmm(bad, 1, 2.0, dom, cover)
    with pytest.raises(EmptyFamily):
        check_localization(bad, 1, 0.5, 2.0, cover, PartitionOfUnity(cover))
    # the oracle admits no member of these: EmptyFamily, not a ValueError
    # from sizing the wavelet box over an empty list
    bad = default_family(dom, betas=(-1.5,), lambdas=(0.0,))
    params = SpaceParams(m=2, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    with pytest.raises(EmptyFamily):
        check_embedding_ratio(params, bad, cover=cover, J=4)
    with pytest.raises(EmptyFamily):
        check_dual_route(bad)
    # only None means the default family
    with pytest.raises(EmptyFamily):
        check_dual_route([])


def test_embedding_ratio_rejects_params_off_the_family_domain(dom, cover):
    # the verdict is decided on the family's (d, ell): params naming
    # another domain are an error, not silently replaced
    u = make_test_function(2.0, 0.0, 1.0, dom)
    for d, ell in ((3, 1), (3, 0), (2, 1)):
        params = SpaceParams(m=2, a=1.0, p=2.0, d=d, ell=ell, tau=0.9)
        with pytest.raises(InvalidParams, match="family lives on"):
            check_embedding_ratio(params, [u], cover=cover, J=4)


def test_divergence_log_case():
    r = check_counterexample_divergence(1, 0.0, 2.0, 1.0, 2, 0, -0.7)
    assert r.passed
    assert r.fitted_exponent == pytest.approx(0.3, abs=0.05)
    assert r.kondratiev_cauchy


def test_divergence_power_case():
    # lam = 0 at the critical line: pure log divergence of exponent 1
    r = check_counterexample_divergence(1, 0.0, 2.0, 1.0, 2, 0, 0.0)
    assert r.fitted_exponent == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.7, 1.4])
def test_divergence_critical_line_with_rounded_exponent(m, tau):
    # a = m - d(1/tau - 1/p) with d = 3: recomputed from beta, the radial
    # exponent came out as -0.9999999999999996; it is -1 by construction
    d, p, lam = 3, 2.0, -0.7
    r = check_counterexample_divergence(m, m - d * (1 / tau - 1 / p), p, tau,
                                        d, 0, lam)
    assert r.notes["radialExponent"] == -1.0 and "flag" not in r.notes
    assert r.passed
    assert r.fitted_exponent == pytest.approx(1.0 + lam * tau, abs=1e-4)


@pytest.mark.parametrize("lam", [0.0, -0.7])
def test_divergence_critical_line_at_large_tau(lam):
    # m = 4, tau = 1e4, d = 3: recomputing the radial exponent from beta
    # gave -1.89e-12, off the line by more than BOUNDARY_TOL, and a
    # vacuous eps^{-c} fit; on the line lam = 0 is the log law of exponent
    # 1, and lam tau = -7000 < -1 makes the weighted power finite.  The
    # weight a = 0 is off the line a = 5.4997, so the check fails and says so
    m, tau, d = 4, 1e4, 3
    r = check_counterexample_divergence(m, 0.0, 2.0, tau, d, 0, lam)
    assert r.notes["radialExponent"] == -1.0
    if lam == 0.0:
        assert not r.passed and "the line's a = 5.4997" in r.notes["flag"]
        assert r.predicted_exponent == 1.0
        assert r.fitted_exponent == pytest.approx(1.0, abs=1e-4)
    else:
        assert "flag" in r.notes and not r.passed


@pytest.mark.parametrize("d,delta", [(3, 1), (2, 1), (3, 2)])
def test_divergence_critical_line_with_singular_dimension(d, delta):
    # u = rho^{m - (d-delta)/tau}: with delta > 0 the exponent must use the
    # codimension d - delta, or the radial exponent misses the critical line
    m, p, tau, lam = 1, 2.0, 1.0, -0.7
    a = m - (d - delta) * (1 / tau - 1 / p)
    r = check_counterexample_divergence(m, a, p, tau, d, delta, lam)
    assert r.notes["radialExponent"] == -1.0 and r.notes["kondratievMember"]
    assert r.passed
    assert r.fitted_exponent == pytest.approx(1.0 + lam * tau, abs=1e-4)


def test_divergence_kondratiev_ladder_matches_closed_form():
    # Kondratiev side int_eps^1 t^{-1/2} dt = 2(1 - sqrt(eps)), down to
    # eps = 2^-32; a single quad from eps misses it by 2.4e-4 at 2^-24
    r = check_counterexample_divergence(1, -0.25, 2.0, 1.0, 2, 0, 0.0)
    rungs = r.notes["kondratievLadder"]
    assert r.kondratiev_cauchy and len(rungs) >= 8
    assert [e for e, _ in rungs] == [2.0 ** -k for k in
                                     range(4, 4 * len(rungs) + 1, 4)]
    for eps, power in rungs:
        assert power == pytest.approx(2 * (1 - np.sqrt(eps)), rel=1e-12)


def test_divergence_cauchy_loop_integrates_one_shell_per_call(monkeypatch):
    import klab.verify as verify
    calls = []
    original = verify.radial_reference_integral

    def spy(e, g, R=1.0, eps=0.0):
        calls.append((g, R, eps))
        return original(e, g, R, eps)

    monkeypatch.setattr(verify, "radial_reference_integral", spy)
    r = check_counterexample_divergence(1, 0.0, 2.0, 1.0, 2, 0, -0.7)
    # the fitted ladder integrates t^e (1+|log t|)^(lam tau), the Cauchy
    # loop the same power with log power lam p
    shells = [(R, eps) for g, R, eps in calls if g != r.notes["logPower"]]
    assert len(shells) == len(r.notes["kondratievLadder"]) > 30
    assert shells[0] == (1.0, 2.0 ** -4)
    assert all(R == 16 * eps for R, eps in shells[1:])


def test_divergence_not_a_counterexample_flag():
    # lam tau < -1: the weighted power converges; flagged, not passed
    r = check_counterexample_divergence(1, 0.0, 2.0, 1.0, 2, 0, -1.5)
    assert not r.passed
    assert "flag" in r.notes


def test_derivative_mapping(fam, dom, cover):
    r = check_derivative_mapping(fam, 2, (1, 0), 2.0, dom, cover)
    assert r.passed


def _derivative_mapping_reference(u, m, alpha, p, cover, nodes_per_dim):
    """The derivative-mapping ratio from an independent ladder of u's own
    jet: rows sum_{gamma >= alpha, |gamma| <= m} |d^gamma u|^p,
    |rho^-(m-|alpha|) d^alpha u|^p, sum_{|gamma| <= m} |d^gamma u|^p and
    |rho^-m u|^p, each rooted at its finest rung."""
    k = sum(alpha)
    gammas = multi_indices(len(alpha), m)

    def integrand(x):
        jet = u.jet(x, m)
        rho = regularized_distance(x, u.domain)
        powers = {g: np.abs(jet.derivative(g)) ** p for g in gammas}
        return np.array([
            sum(v for g, v in powers.items()
                if all(i >= j for i, j in zip(g, alpha))),
            np.abs(rho ** (k - m) * jet.derivative(alpha)) ** p,
            sum(powers.values()),
            np.abs(rho ** -m * jet.value) ** p])

    num_s, num_w, den_s, den_w = (
        ladder[-1][1] ** (1.0 / p) for ladder
        in norms.integral_ladder(cover, integrand, nodes_per_dim))
    return (num_s + num_w) / (den_s + den_w)


@pytest.mark.parametrize("m, alpha, betas", [(2, (1, 0), (1.2, 2.0)),
                                             (3, (0, 2), (2.5,))])
def test_derivative_mapping_matches_an_independent_ladder(dom, m, alpha,
                                                          betas):
    # d^gamma d^alpha u read from u's own jet: the ratios equal those of
    # the sums over gamma >= alpha taken from u.jet(x, m) directly
    cover = standard_cover(dom, radius=2, j_max=6)
    fam = default_family(dom, betas=betas, lambdas=(0.0, -0.7))
    r = check_derivative_mapping(fam, m, alpha, 2.0, dom, cover,
                                 nodes_per_dim=4)
    assert len(r.ratios) == 2 * len(betas)
    for u, ratio in zip(fam, r.ratios):
        want = _derivative_mapping_reference(u, m, alpha, 2.0, cover, 4)
        assert ratio == pytest.approx(want, rel=1e-12)


def test_derivative_mapping_of_alpha_zero_is_the_identity(fam, dom):
    cover = standard_cover(dom, radius=2, j_max=6)
    r = check_derivative_mapping(fam, 2, (0, 0), 2.0, dom, cover,
                                 nodes_per_dim=4)
    assert len(r.ratios) > 1 and r.ratios == [1.0] * len(r.ratios)
    assert r.passed


def test_derivative_mapping_evaluates_u_once_per_slice(dom, monkeypatch):
    # d^alpha u takes u's jet from the cover's sample, the one u's own
    # terms use, so the cap runs once per slice and member; the ratios are
    # the ones the separate evaluation of d^alpha u gave
    from klab.profiles import CAP
    cover = standard_cover(dom, radius=2, j_max=8)
    fam = default_family(dom, betas=(1.2, 2.0), lambdas=(0.0,))
    monkeypatch.setattr(norms, "SLICE_NODES", 4096)
    slices = -(-sum(len(ks) for ks in cover.levels.values()) * 16 // 4096)
    calls, derivs = [], CAP.derivs
    monkeypatch.setattr(CAP, "derivs",
                        lambda t, order: calls.append(order) or derivs(t, order))
    r = check_derivative_mapping(fam, 2, (1, 0), 2.0, dom, cover,
                                 nodes_per_dim=4)
    assert calls == [2] * (slices * len(fam)) and slices > 1
    assert r.ratios == [0.7980217673601244, 0.8304541143679786]


def test_diffeo_catalog(dom, cover):
    u = make_test_function(1.2, 0.0, 1.0, dom)
    for name in DIFFEO_CATALOG:
        r = check_diffeo_invariance(u, name, 1, 2.0, cover)
        assert r.passed, name
    # isometries leave the weighted term exactly invariant
    r = check_diffeo_invariance(u, "rotation", 1, 2.0, cover)
    assert r.notes["weightedTermRatio"] == pytest.approx(1.0, abs=1e-8)


def test_diffeo_unknown_name(dom, cover):
    u = make_test_function(1.2, 0.0, 1.0, dom)
    with pytest.raises(InvalidParams):
        check_diffeo_invariance(u, "squeeze", 1, 2.0, cover)
    # the catalog's maps act on the plane with the vertex removed: in 3D
    # they do not fit, and a rotation moves the singular line of (2, 1)
    for other in (ModelDomain(3, 0), ModelDomain(2, 1)):
        v = make_test_function(1.2, 0.0, 1.0, other)
        with pytest.raises(InvalidParams):
            check_diffeo_invariance(v, "rotation", 1, 2.0, cover)


def test_cone_localization():
    cov = _sector_cover(j_max=7)
    u = make_test_function(1.2, 0.0, 1.0, cov.domain)
    r = check_cone_localization(u, 1, 0.5, 2.0, cover=cov)
    assert r.passed
    shares = r.notes["annulusShares"]
    assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)


def test_scaling_homogeneity_exact(dom):
    u = make_test_function(2.5, 0.0, 1.0, dom)
    cov = standard_cover(dom, radius=2, j_max=9)
    out = check_scaling_homogeneity(u, 1, 2.0, 3, cover=cov)
    assert out["passed"] and out["relativeError"] <= 1e-10


def test_partition_diagnostics_point():
    out = check_partition_diagnostics(ModelDomain(2, 0), j_max=7,
                                      n_points=3000)
    assert out["passed"]


def test_partition_diagnostics_fail_when_points_are_uncovered(monkeypatch):
    # every point uncovered: each point off the collar of the singular set
    # lies in a selected cube and counts as a partition sum of 0
    monkeypatch.setattr(verify, "PSI_FLOOR", float("inf"))
    out = check_partition_diagnostics(ModelDomain(2, 0), j_max=7,
                                      n_points=300)
    assert out["coveredFraction"] == 0.0
    assert out["partitionSumError"] == 1.0 and not out["passed"]


def _cover_without_level_0(monkeypatch, c2=None):
    """Make the check build its cover with no level-0 cubes, and with the
    upper certificate constant c2 if given."""
    whitney_cover = verify.whitney_cover

    def cover_without_level_0(*args):
        cover = whitney_cover(*args)
        levels, dists = dict(cover.levels), dict(cover.dists)
        levels[0], dists[0] = levels[0][:0], dists[0][:0]
        return replace(cover, c2=c2 or cover.c2, levels=levels, dists=dists)

    monkeypatch.setattr(verify, "whitney_cover", cover_without_level_0)


def test_partition_certificates_check_the_upper_bound(monkeypatch):
    # each level j >= 1 has distances from 1.5 to 3.54 times 2^-j: with
    # c2 = 2 every such level breaks the upper certificate, and the guard
    # j >= 1 must let the check see them.  Level 0's distances reach 3.54
    # too, so the patched cover has no level 0: only a level j >= 1 can
    # break the bound
    _cover_without_level_0(monkeypatch, c2=2.0)
    out = check_partition_diagnostics(ModelDomain(2, 0), j_max=7,
                                      n_points=300)
    assert out["certificatesExact"] is False and not out["passed"]


def test_partition_certificates_hold_without_level_0(monkeypatch):
    # the control of the test above: with the cover's own c2 the same
    # cover keeps every certificate
    _cover_without_level_0(monkeypatch)
    out = check_partition_diagnostics(ModelDomain(2, 0), j_max=7,
                                      n_points=300)
    assert out["certificatesExact"] is True


@pytest.mark.parametrize("d, ell", [(2, 0), (3, 1)])
def test_growth_rates_start_at_level_2(d, ell):
    # at j_max 3 only the counts of levels 2 and 3 give a rate; the
    # coarse levels 0 and 1 give none
    out = check_partition_diagnostics(ModelDomain(d, ell), j_max=3,
                                      n_points=300)
    counts = out["levelCounts"]
    assert out["growthRates"] == [math.log2(counts[3] / counts[2])]


@pytest.mark.parametrize("d, ell", [(2, 0), (3, 1)])
def test_partition_diagnostics_certify_level_0_cubes(monkeypatch, d, ell):
    out = check_partition_diagnostics(ModelDomain(d, ell), j_max=4,
                                      n_points=300)
    assert out["levelCounts"].get(0, 0) > 0 and out["passed"]
    # a level-0 lower bound that no level-0 cube meets breaks the check
    monkeypatch.setattr(verify, "C0_LEVEL0", 100.0)
    out = check_partition_diagnostics(ModelDomain(d, ell), j_max=4,
                                      n_points=300)
    assert out["certificatesExact"] is False and not out["passed"]


def test_spread_is_inf_unless_all_ratios_are_finite_and_positive():
    assert verify._spread([2.0, 0.5]) == 4.0
    for ratios in ([], [1.0, 0.0], [1.0, float("inf")], [1.0, -2.0]):
        assert verify._spread(ratios) == float("inf")


def test_classification_grid_small():
    out = check_classification_grid(betas=(0.0, 1.0, 2.0),
                                    a_values=(0.0, 1.0, 1.5), j_max=14)
    assert out["passed"]


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {
        "truth-table", "norm-equivalence", "localization", "divergence",
        "embedding-ratio", "scaling", "geometry", "classification-grid",
        "dual-route"}


def test_cone_localization_builds_one_u_per_slice(monkeypatch):
    # the 18 windows and u share one sample per slice: its |x|, and u's
    # jet, whose rho is the one the cap builds; the ratio is the one the
    # separate evaluation of every window gave
    from klab.profiles import CAP
    cov = _sector_cover(j_max=7)
    u = make_test_function(1.2, 0.0, 1.0, cov.domain)
    monkeypatch.setattr(norms, "SLICE_NODES", 4096)
    slices = -(-sum(len(ks) for ks in cov.levels.values()) * 64 // 4096)
    calls, derivs = [], CAP.derivs
    monkeypatch.setattr(CAP, "derivs",
                        lambda t, order: calls.append(order) or derivs(t, order))
    r = check_cone_localization(u, 1, 0.5, 2.0, cover=cov)
    assert calls == [1] * slices and slices > 1
    monkeypatch.undo()
    assert check_cone_localization(u, 1, 0.5, 2.0, cover=cov).ratios == [
        0.5311816392744827]


def test_dual_route_parseval_error_is_unchanged(fam):
    # the plateau cutoff (beta = lam = 0) is sampled without rho; its
    # Parseval error is the one the constant factor rho^0 gave
    r = check_dual_route(family=fam[:2], J=6, j_max=6, parseval_J=6)
    assert r.notes["parsevalRelativeError"] == 0.0006174708783332563
