"""Graded quadrature norms against independent 1D radial references."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from klab import norms
from klab.errors import InvalidParams, OutsideCover, Unsupported
from klab.geometry import (ModelDomain, PartitionOfUnity,
                           regularized_distance, whitney_cover)
from klab.jets import multi_indices
from klab.norms import (DIVERGENT, FINITE, SpaceParams, cover_norms,
                        kondratiev_piece_power, kondratiev_terms,
                        multiply_by_rho_power, radial_reference_integral,
                        rloc_norm_localized, rloc_weighted_terms, sharp_terms,
                        sobolev_terms, weighted_lp_terms)
from klab.testfns import (classify_radial_exponent, kondratiev_membership,
                          make_test_function)


@pytest.fixture(scope="module")
def dom():
    return ModelDomain(2, 0)


@pytest.fixture(scope="module")
def cover(dom):
    return whitney_cover(dom, ((-2, -2), (2, 2)), 12)


def reference_lp_power(u, w_exp, p, eps=2.0 ** -12, R_out=2.2):
    """2D polar-coordinate reference for int |rho^w u|^p via scipy quad,
    independent of the Whitney/Gauss machinery (rho is the regularized
    distance, capped at 1)."""
    from klab.geometry import regularized_distance

    def g(r):
        x = np.array([[r], [0.0]])
        rho = float(np.atleast_1d(
            regularized_distance(np.array([[r], [0.0]]), u.domain))[0])
        return abs(float(u(x)[0])) ** p * rho ** (w_exp * p) * 2 * math.pi * r

    val, err = quad(g, eps, R_out, limit=400)
    return val, err


def test_weighted_l2_matches_polar_reference(dom, cover):
    u = make_test_function(1.0, 0.0, 1.0, dom)
    nv, = cover_norms([weighted_lp_terms(u, 0.0, 2.0)], cover, oracles=[True])
    ref, _ = reference_lp_power(u, 0.0, 2.0)
    assert nv.value ** 2 == pytest.approx(ref, rel=1e-6)
    assert nv.classification == FINITE


def test_cover_norms_needs_one_oracle_per_norm(dom, cover):
    # zip would drop the second norm without a value
    u = make_test_function(1.0, 0.0, 1.0, dom)
    with pytest.raises(InvalidParams):
        cover_norms([weighted_lp_terms(u, 0.0, 2.0)] * 2, cover,
                    oracles=[True])


def test_weighted_norm_with_negative_weight(dom, cover):
    u = make_test_function(1.5, 0.0, 1.0, dom)
    nv, = cover_norms([weighted_lp_terms(u, -1.0, 2.0)], cover,
                      oracles=[True])
    ref, _ = reference_lp_power(u, -1.0, 2.0)
    assert nv.value ** 2 == pytest.approx(ref, rel=1e-6)


def test_divergent_classification_requires_oracle(dom, cover):
    # rho^0.2 with weight -1 at p=2: exponent (0.2-1)*2+2 = 0.4 > 0 finite;
    # weight -1.3 gives exponent -0.2 < 0 divergent
    u = make_test_function(0.2, 0.0, 1.0, dom)
    nv, = cover_norms([weighted_lp_terms(u, -1.3, 2.0)], cover,
                      oracles=[False])
    assert nv.classification == DIVERGENT
    assert nv.truncations[-1][1] > nv.truncations[0][1]


def test_kondratiev_norm_classification_matches_oracle(dom, cover):
    params = SpaceParams(m=1, a=0.5, p=2.0, d=2, ell=0)
    for beta, member in ((1.0, True), (0.2, True), (-0.6, False)):
        u = make_test_function(beta, 0.0, 1.0, dom)
        assert kondratiev_membership(u, 1, 0.5, 2.0).member is member
        nv, = cover_norms([kondratiev_terms(u, params)], cover,
                          oracles=[member])
        assert (nv.classification == FINITE) is member


def test_kondratiev_norm_monotone_in_truncation(dom, cover):
    u = make_test_function(1.0, 0.0, 1.0, dom)
    params = SpaceParams(m=1, a=0.0, p=2.0, d=2, ell=0)
    nv, = cover_norms([kondratiev_terms(u, params)], cover)
    vals = [v for _, v in nv.truncations]
    assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))


def _per_level_ladder(cover, integrand, nodes):
    """The ladder summed one level at a time, one integrand call each."""
    ladder, running = [], 0.0
    for j in sorted(cover.levels):
        pts, wts = norms.level_nodes(cover, j, nodes)
        running += float(np.sum(integrand(pts)[0] * wts)) if wts.size else 0.0
        if j >= norms.TRUNCATION_K_MIN:
            ladder.append((2.0 ** -j, running))
    return ladder


def test_integral_ladder_equals_per_level_sums(monkeypatch):
    # levels 0 and 1 are empty, the others hold 32 to 512 cubes of 16
    # nodes; 48-node slices split every level and straddle the boundaries
    cov = whitney_cover(ModelDomain(2, 1), ((-1, -1), (1, 1)), 6)
    assert not len(cov.levels[0])
    u = make_test_function(1.2, -0.7, 1.0, cov.domain)
    sizes = []

    def integrand(x):
        sizes.append(x.shape[1])
        jet = u.jet(x, order=1)
        rho = regularized_distance(x, cov.domain)
        return sum(rho ** (2 * sum(al) - 1) * jet.derivative(al) ** 2
                   for al in multi_indices(2, 1))[None]

    def second(x):
        return np.abs(u(x))[None] ** 1.5

    want = _per_level_ladder(cov, integrand, 4)
    sizes.clear()
    monkeypatch.setattr(norms, "SLICE_NODES", 3 * 16)
    got = norms.integral_ladder(cov, integrand, 4)
    assert got == [want]
    total = 16 * sum(len(ks) for ks in cov.levels.values())
    assert sizes[:-1] == [48] * (total // 48) and sum(sizes) == total
    # an integrand of two rows gives the two one-row ladders, bit for bit
    rows = norms.integral_ladder(
        cov, lambda x: np.concatenate([integrand(x), second(x)]), 4)
    assert rows == got + norms.integral_ladder(cov, second, 4)


def test_cover_norms_equal_one_norm_each(monkeypatch):
    # one pass with one jet per slice at the highest order (2) gives every
    # norm bit for bit as a pass of its own does, the order-0 and the
    # rho^{m-a} u terms included; 3,000-node slices split the levels
    dom = ModelDomain(3, 1)
    cov = whitney_cover(dom, ((-1,) * 3, (1,) * 3), 5)
    u = make_test_function(2.0, -0.7, 1.0, dom)
    params = SpaceParams(m=2, a=0.5, p=2.0, d=3, ell=1, tau=1.5)
    monkeypatch.setattr(norms, "SLICE_NODES", 3000)
    # the lowest orders come first, so u's jet order is their maximum
    each = [weighted_lp_terms(u, 0.0, 2.0), sobolev_terms(u, 1, 3.0),
            kondratiev_terms(u, params), rloc_weighted_terms(u, params),
            sharp_terms(u, params)]
    got = cover_norms(each, cov, 2)
    for nv, terms in zip(got, each, strict=True):
        want, = cover_norms([terms], cov, 2)
        assert nv.truncations == want.truncations
        assert nv.classification == want.classification


def test_integral_ladder_split_levels_match_whole(dom, cover, monkeypatch):
    # 3,072 nodes per level; 1,000-node slices split each level
    u = make_test_function(1.2, 0.0, 1.0, dom)
    params = SpaceParams(m=2, a=0.5, p=2.0, d=2, ell=0)
    whole = cover_norms([kondratiev_terms(u, params)], cover)[0].truncations
    monkeypatch.setattr(norms, "SLICE_NODES", 1000)
    split = cover_norms([kondratiev_terms(u, params)], cover)[0].truncations
    assert [e for e, _ in split] == [e for e, _ in whole]
    assert [v for _, v in split] == pytest.approx([v for _, v in whole],
                                                  rel=1e-15)


def test_sobolev_norm_of_smooth_bump(dom, cover):
    # the plateau cutoff is smooth: W^1_2 norm is finite and stable
    u = make_test_function(0.0, 0.0, 1.0, dom)
    nv8, = cover_norms([sobolev_terms(u, 1, 2.0)], cover, 8)
    nv12, = cover_norms([sobolev_terms(u, 1, 2.0)], cover, 12)
    assert nv8.value == pytest.approx(nv12.value, rel=1e-6)


def test_sharp_norm_equivalent(dom, cover):
    params = SpaceParams(m=1, a=0.5, p=2.0, d=2, ell=0)
    u = make_test_function(1.2, 0.0, 1.0, dom)
    sharp, full = cover_norms([sharp_terms(u, params),
                               kondratiev_terms(u, params)], cover)
    assert 0.02 < sharp.value / full.value < 50


def test_rho_power_multiplication(dom, cover):
    # || rho^{-0.5} u ||_{L_2, weight 0} == || u ||_{L_2, weight -0.5}
    u = make_test_function(1.2, 0.0, 1.0, dom)
    v = multiply_by_rho_power(u, -0.5)
    a, b = cover_norms([weighted_lp_terms(v, 0.0, 2.0),
                        weighted_lp_terms(u, -0.5, 2.0)], cover)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_tau_defaults_to_p():
    assert SpaceParams(m=1, a=0.5, p=2.5, d=2, ell=0, tau=None).tau == 2.5
    assert SpaceParams(m=1, a=0.5, p=2.5, d=2, ell=0).tau == 2.5
    assert SpaceParams(m=1, a=0.5, p=2.5, d=2, ell=0, tau=1.5).tau == 1.5


def test_rloc_weighted_vs_localized(dom):
    cov = whitney_cover(dom, ((-2, -2), (2, 2)), 8)
    pou = PartitionOfUnity(cov)
    params = SpaceParams(m=1, a=1.0, p=2.0, d=2, ell=0, tau=2.0)
    u = make_test_function(1.0, 0.0, 1.0, dom)
    w, = cover_norms([rloc_weighted_terms(u, params)], cov)
    loc = rloc_norm_localized(u, params, pou)
    assert 1 / 50 < loc.value / w.value < 50


def test_norm_terms_reject_negative_order_and_empty_rules(dom):
    u = make_test_function(1.0, 0.0, 1.0, dom)
    params = SpaceParams(m=-1, a=0.5, p=2.0, d=2, ell=0)
    for build in (lambda: kondratiev_terms(u, params),
                  lambda: sobolev_terms(u, -1, 2.0),
                  lambda: sharp_terms(u, params)):
        with pytest.raises(InvalidParams, match="m must be nonnegative"):
            build()
    with pytest.raises(InvalidParams, match="one node per dimension"):
        norms.level_nodes(whitney_cover(dom, ((-2, -2), (2, 2)), 4), 2, 0)


def test_tail_share_of_a_zero_ladder_is_zero():
    assert norms.tail_share([0.0, 0.0, 0.0, 0.0, 0.0]) == 0.0
    assert norms.tail_share([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(0.6)


@pytest.mark.parametrize("tail, classification", [
    (0.045, norms.INCONCLUSIVE), (0.01, FINITE)])
def test_rloc_localized_flips_a_heavy_tail_to_inconclusive(monkeypatch, tail,
                                                           classification):
    # at tau = 100 the rooted ladder passes the Cauchy test although the
    # last three levels carry 3 tail / (1 + 3 tail) of the integral: 11.9 %
    # at tail = 0.045, above TAIL_SHARE_LIMIT; 2.9 % at 0.01, below it
    per_level = {j: 1.0 if j == 0 else (tail if j > 6 else 1e-9)
                 for j in range(10)}
    monkeypatch.setattr(norms, "_piece_power_sum",
                        lambda u, pou, j, *rest: per_level[j])
    pou = SimpleNamespace(cover=SimpleNamespace(levels=per_level))
    params = SpaceParams(m=1, a=0.0, p=100.0, d=2, ell=0)
    assert norms.classify_truncations(
        rloc_norm_localized(None, params, pou).truncations) == FINITE
    assert rloc_norm_localized(None, params, pou).classification \
        == classification


def test_rloc_localized_rejects_small_tau(dom):
    cov = whitney_cover(dom, ((-2, -2), (2, 2)), 6)
    pou = PartitionOfUnity(cov)
    params = SpaceParams(m=1, a=1.0, p=2.0, d=2, ell=0, tau=0.9)
    u = make_test_function(1.0, 0.0, 1.0, dom)
    with pytest.raises(Unsupported):
        rloc_norm_localized(u, params, pou)


def test_piece_powers_sum_to_global(dom):
    cov = whitney_cover(dom, ((-2, -2), (2, 2)), 6)
    pou = PartitionOfUnity(cov)
    u = make_test_function(1.0, 0.0, 1.0, dom)
    params = SpaceParams(m=1, a=0.5, p=2.0, d=2, ell=0)
    glob = cover_norms([kondratiev_terms(u, params)], cov)[0].value ** 2
    total = sum(kondratiev_piece_power(u, pou, j, ks, 1, 0.5, 2.0)
                for j, ks in cov.levels.items() if len(ks))
    assert 1 / 50 < glob / total < 50


def _small_pou(d, ell, j_max, lo=-1):
    dom = ModelDomain(d, ell)
    return PartitionOfUnity(whitney_cover(dom, ((lo,) * d, (1,) * d), j_max))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d,ell", [(2, 0), (2, 1), (3, 1)])
def test_level_piece_power_equals_single_cube_sum(d, ell, m):
    # d = 3 on [0, 1]^3 keeps the single-cube loop short
    lo, j_max, nodes = (-1, 4, 4) if d == 2 else (0, 3, 2)
    pou = _small_pou(d, ell, j_max, lo)
    u = make_test_function(1.2, 0.0, 1.0, pou.cover.domain)
    for j, ks in pou.cover.levels.items():
        if not len(ks):
            continue
        level = kondratiev_piece_power(u, pou, j, ks, m, 0.5, 2.0, nodes)
        single = sum(kondratiev_piece_power(u, pou, j, k[None], m, 0.5, 2.0,
                                            nodes) for k in ks)
        assert level == pytest.approx(single, rel=1e-12)


def test_piece_power_slices_match_unsliced(monkeypatch):
    pou = _small_pou(2, 1, 4)
    u = make_test_function(1.2, 0.0, 1.0, pou.cover.domain)
    levels = [(j, ks) for j, ks in pou.cover.levels.items() if len(ks)]
    whole = [kondratiev_piece_power(u, pou, j, ks, 2, 0.5, 2.0)
             for j, ks in levels]
    # three 64-node cubes per slice, so every level takes several slices
    monkeypatch.setattr(norms, "SLICE_NODES", 3 * 64)
    sliced = [kondratiev_piece_power(u, pou, j, ks, 2, 0.5, 2.0)
              for j, ks in levels]
    assert sliced == pytest.approx(whole, rel=1e-12)


def test_kept_piece_arrays_are_read_only():
    pou = _small_pou(2, 0, 4)
    u = make_test_function(1.2, 0.0, 1.0, pou.cover.domain)
    j = min(j for j, ks in pou.cover.levels.items() if len(ks))
    kondratiev_piece_power(u, pou, j, pou.cover.levels[j], 1, 0.5, 2.0, 4)
    (pts, w, phi), = pou.pieces.values()
    for arr in (pts, w, *phi.coeffs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_outside_cover_keeps_nothing():
    pou = _small_pou(2, 0, 4)
    u = make_test_function(1.2, 0.0, 1.0, pou.cover.domain)
    # a level-2 cube far outside the box: no bump reaches its nodes
    for _ in range(2):
        with pytest.raises(OutsideCover):
            kondratiev_piece_power(u, pou, 2, np.array([[40, 40]]), 1, 0.5,
                                   2.0, 4)
        assert pou.pieces == {}


def test_rloc_localized_matches_per_cube_reference():
    pou = _small_pou(2, 0, 4)
    cov = pou.cover
    u = make_test_function(1.2, 0.0, 1.0, cov.domain)
    m, tau, nodes = 1, 1.5, 4
    params = SpaceParams(m=m, a=1.0, p=2.0, d=2, ell=0, tau=tau)
    unit, wts = norms._tensor_rule(2, nodes)
    total = 0.0
    for j, ks in cov.levels.items():
        side = 2.0 ** -j
        for k in ks:
            pts = ((k - 0.5) * side)[:, None] + 2.0 * side * unit
            phi = pou.bump_jet(j, k, pts, order=m) / pou.psi_jet(pts, order=m)
            piece = phi * u.jet(pts, order=m)
            total += sum(np.sum(np.abs(piece.derivative(al)) ** tau
                                * wts * (2.0 * side) ** 2)
                         for al in multi_indices(2, m))
    value = rloc_norm_localized(u, params, pou, nodes).value
    assert value == pytest.approx(total ** (1.0 / tau), rel=1e-12)


# --- radial integral classifier against closed forms ---

@pytest.mark.parametrize("e,g,cls", [
    (0.5, 0.0, FINITE), (0.0, 0.0, FINITE), (-1.0 + 1e-9, 0.0, FINITE),
    (-1.0, 0.0, DIVERGENT), (-1.0, -0.5, DIVERGENT), (-1.0, -1.5, FINITE),
    (-1.0, -1.0, DIVERGENT), (-2.0, -3.0, DIVERGENT), (-1.5, 2.0, DIVERGENT),
    # 1-ulp-scale noise around e = -1 is the equality case
    (-0.9999999999999996, -1.4, FINITE), (-0.9999999999999996, 0.0, DIVERGENT),
])
def test_classify_radial_integral(e, g, cls):
    # int_0^R t^e (1+|log t|)^g dt is the radial rule's integral at e + 1
    assert classify_radial_exponent(e + 1.0, g).member == (cls == FINITE)


def test_radial_reference_matches_closed_form():
    # int_eps^1 t^{-1}(1 - log t)^{-1.4} dt = ((1-log eps)^{-0.4}-1)/(-0.4)
    eps = 2.0 ** -10
    got = radial_reference_integral(-1.0, -1.4, 1.0, eps)
    want = ((1 - math.log(eps)) ** -0.4 - 1) / -0.4
    assert got == pytest.approx(want, rel=1e-9)


def test_radial_reference_power_law():
    eps = 1e-3
    got = radial_reference_integral(-1.5, 0.0, 1.0, eps)
    want = (eps ** -0.5 - 1.0) / 0.5
    assert got == pytest.approx(want, rel=1e-9)


def _count_cap_calls(monkeypatch):
    from klab.profiles import CAP
    calls, derivs = [], CAP.derivs

    def counted(t, order):
        calls.append(order)
        return derivs(t, order)

    monkeypatch.setattr(CAP, "derivs", counted)
    return calls


def test_cap_runs_once_per_slice_and_order(monkeypatch):
    # one Sample per slice, of the highest order any term needs: its rho
    # serves every member and the density, so the cap runs once per slice,
    # however many members, norms and term orders the pass has
    dom = ModelDomain(2, 0)
    cov = whitney_cover(dom, ((-2, -2), (2, 2)), 6)
    monkeypatch.setattr(norms, "SLICE_NODES", 1000)
    slices = -(-sum(len(ks) for ks in cov.levels.values()) * 16 // 1000)
    fam = [make_test_function(b, l, 1.0, dom)
           for b in (0.0, 1.2, 2.0) for l in (0.0, -0.7)]
    params = SpaceParams(m=2, a=0.5, p=2.0, d=2, ell=0, tau=1.5)
    calls = _count_cap_calls(monkeypatch)
    cover_norms([kondratiev_terms(u, params) for u in fam]
                + [rloc_weighted_terms(u, params) for u in fam], cov, 4)
    assert calls == [2] * slices and slices > 1
    calls.clear()
    # a second member whose terms stop at order 0 takes the same sample
    v = make_test_function(0.5, -0.7, 1.0, dom)
    cover_norms([kondratiev_terms(fam[2], params),
                 weighted_lp_terms(v, 0.0, 2.0)], cov, 4)
    assert calls == [2] * slices
    calls.clear()
    # the pieces of one level: one sample per slice of cubes
    pou = PartitionOfUnity(cov)
    j, ks = 4, cov.levels[4]
    monkeypatch.setattr(norms, "SLICE_NODES", 3 * 64)
    kondratiev_piece_power(fam[2], pou, j, ks, 1, 0.5, 2.0)
    assert calls == [1] * -(-len(ks) // 3) and len(ks) > 3


def test_members_together_equal_one_at_a_time():
    # members that share samples give the ladders each gives alone, bit
    # for bit: two jet orders, beta = 0 and lam != 0 among them
    dom = ModelDomain(2, 0)
    cov = whitney_cover(dom, ((-2, -2), (2, 2)), 8)
    fam = [make_test_function(b, l, R, dom) for b in (0.0, 0.8, 2.0)
           for l in (0.0, -0.7) for R in (1.0, 0.6)]
    params = SpaceParams(m=1, a=0.5, p=2.0, d=2, ell=0, tau=1.5)
    each = ([kondratiev_terms(u, params) for u in fam]
            + [weighted_lp_terms(make_test_function(b, -0.7, 0.8, dom), -1.0,
                                 1.5) for b in (0.0, 1.2)])
    together = cover_norms(each, cov, 4)
    for nv, terms in zip(together, each, strict=True):
        alone, = cover_norms([terms], cov, 4)
        assert np.array_equal(nv.truncations, alone.truncations)
