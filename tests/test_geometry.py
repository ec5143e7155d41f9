"""Whitney covers, partitions of unity, and the regularized distance."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab import geometry
from klab.errors import CoverageGap, InvalidParams, OutsideCover
from klab.geometry import (C1, C2_FACTOR, ModelDomain, PartitionOfUnity,
                           PSI_FLOOR, regularized_distance, whitney_cover)
from klab.jets import multi_indices


@pytest.fixture(scope="module")
def cover2d():
    return whitney_cover(ModelDomain(2, 0), ((-2, -2), (2, 2)), 8)


@pytest.fixture(scope="module")
def pou2d(cover2d):
    return PartitionOfUnity(cover2d)


def test_cover_is_a_partition_of_the_box(cover2d):
    # selected cubes are pairwise disjoint and fill the box up to the collar
    total = cover2d.total_volume()
    assert total <= cover2d.box_volume() + 1e-12
    collar = cover2d.box_volume() - total
    # uncovered region sits inside a ball of radius ~ c2 2^-j_max
    r = C2_FACTOR * math.sqrt(2) * 2.0 ** -8 * 4
    assert 0 < collar < math.pi * r ** 2


def test_certificates(cover2d):
    dom = cover2d.domain
    for j, ks in cover2d.levels.items():
        if not len(ks):
            continue
        h = 2.0 ** (-j)
        dist = dom.cube_distance(ks * h - 0.5 * h, ks * h + 1.5 * h)
        assert np.array_equal(dist, cover2d.dists[j])
        if j >= 1:
            assert np.all(dist >= C1 * h)
            assert np.all(dist <= C2_FACTOR * math.sqrt(2) * h)


def test_upper_certificate_is_enforced_below_level_0(monkeypatch):
    # the box holds no level-0 cube, and level 1 has distances up to
    # 3.54 * 2^-1: an upper certificate shrunk to c2 = sqrt(2) must raise
    monkeypatch.setattr(geometry, "C2_FACTOR", 1.0)
    with pytest.raises(CoverageGap, match="upper Whitney certificate"):
        whitney_cover(ModelDomain(2, 0), ((-2, -2), (2, 2)), 4)


@pytest.mark.parametrize("d,ell", [(2, 0), (2, 1), (3, 1)])
def test_level_count_growth(d, ell):
    cover = whitney_cover(ModelDomain(d, ell), ((-2,) * d, (2,) * d), 8)
    counts = cover.counts
    rates = [math.log2(counts[j + 1] / counts[j]) for j in range(4, 7)]
    for r in rates:
        assert abs(r - ell) <= 0.2


def test_invalid_box_rejected():
    with pytest.raises(InvalidParams):
        whitney_cover(ModelDomain(2, 0), ((-1.5, 0), (1, 1)), 6)
    with pytest.raises(InvalidParams):
        whitney_cover(ModelDomain(2, 0), ((0, 0), (1, 1)), 1)


def test_partition_sums_to_one(pou2d):
    rng = np.random.default_rng(7)
    pts = (rng.random((2, 2000)) - 0.5) * 4.0
    psi = pou2d.psi_jet(pts, order=0).value
    covered = psi > PSI_FLOOR
    total = np.zeros(pts.shape[1])
    for j, kk, ixs in pou2d._neighbor_batches(pts):
        total[ixs] += pou2d.bump_jet(j, kk, pts[:, ixs], order=0).value \
            / psi[ixs]
    assert np.max(np.abs(total[covered] - 1.0)) < 1e-10


def _psi_batch_by_batch(pou, x, order):
    """The sum of bumps with one `bump_jet` call per neighbour batch."""
    total = [np.zeros(x.shape[1]) for _ in multi_indices(pou.d, order)]
    for j, kk, ixs in pou._neighbor_batches(x):
        piece = pou.bump_jet(j, kk, x[:, ixs], order)
        for m, c in enumerate(piece.coeffs):
            np.add.at(total[m], ixs, c)
    return total


@pytest.mark.parametrize("d,ell", [(2, 0), (2, 1), (3, 1)])
def test_psi_jet_is_the_batch_by_batch_sum_bit_for_bit(d, ell, monkeypatch):
    cover = whitney_cover(ModelDomain(d, ell), ((-2,) * d, (2,) * d), 5)
    pou = PartitionOfUnity(cover)
    rng = np.random.default_rng(17)
    # random points, and the corners, centres and doubled-cube corners of
    # the finest cubes, where the bumps sit on their knees near S
    j = max(cover.counts)
    ks = cover.levels[j][rng.choice(len(cover.levels[j]), 30, replace=False)]
    nodes = [(ks + off) * 2.0 ** -j for off in (-0.5, 0.0, 0.5, 1.0, 1.5)]
    x = np.concatenate([rng.uniform(-2.0, 2.0, (d, 400))]
                       + [n.T for n in nodes], axis=1)
    nonempty = {jj for jj, _, _ in pou._neighbor_batches(x)}
    for order in range(5):
        expected = _psi_batch_by_batch(pou, x, order)
        calls = Counter()
        bump_jet = pou.bump_jet

        def spy(jj, *args, **kwargs):
            calls[jj] += 1
            return bump_jet(jj, *args, **kwargs)

        monkeypatch.setattr(pou, "bump_jet", spy)
        got = pou.psi_jet(x, order).coeffs
        monkeypatch.undo()
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.tobytes() == e.tobytes(), order
        # one bump evaluation per non-empty level
        assert set(calls) == nonempty and set(calls.values()) == {1}


@pytest.mark.parametrize("d,ell", [(2, 0), (2, 1), (3, 1)])
def test_windowed_search_equals_a_full_scan(d, ell):
    # each level is searched only on the points its |x''| window admits; a
    # full scan searches every level on every point, and both give the same
    # triples in the same order
    j_max = 5
    cover = whitney_cover(ModelDomain(d, ell), ((-2,) * d, (2,) * d), j_max)
    pou = PartitionOfUnity(cover)
    rng = np.random.default_rng(29)
    # random points; points in the 2^-j_max collar of S; points at
    # |x''| = 1, the level-0 bound, exactly on the axes and to rounding off
    # them
    dirs = rng.normal(size=(d - ell, 300))
    dirs /= np.linalg.norm(dirs, axis=0)
    radii = np.r_[rng.uniform(0.0, 2.0 ** -j_max, 150), np.ones(150)]
    axes = np.concatenate([np.eye(d - ell), -np.eye(d - ell)], axis=1)
    inner = np.concatenate([dirs * radii, axes], axis=1)
    x = np.concatenate(
        [rng.uniform(-2.0, 2.0, (d, 600)),
         np.concatenate([rng.uniform(-2.0, 2.0, (ell, inner.shape[1])),
                         inner])], axis=1)
    full = [(j, kk, ixs) for j in pou._tables
            for kk, ixs in pou._level_batches(j, x)]
    got = list(pou._neighbor_batches(x))
    assert len(got) == len(full)
    for (j, kk, ixs), (fj, fkk, fixs) in zip(got, full):
        assert j == fj
        assert np.array_equal(kk, fkk) and np.array_equal(ixs, fixs)
    # the windows do leave points out
    r = cover.domain.distance(x)
    searched = sum(np.count_nonzero((r >= lo) & (r <= hi))
                   for lo, hi in map(pou._window, pou._tables))
    assert searched < len(pou._tables) * x.shape[1]


def test_overlap_count_bounded():
    # the partition diagnostics report the most bumps nonzero at a point:
    # in general position a point lies in 2^d doubled cubes of its level,
    # and in at most the neighbors within its level and an adjacent one
    from klab.verify import check_partition_diagnostics
    out = check_partition_diagnostics(ModelDomain(2, 0), j_max=6,
                                      n_points=500)
    assert 2 ** 2 <= out["maxOverlap"] <= 3 ** 2 * 2


def test_phi_jet_matches_finite_difference(pou2d, cover2d):
    j = 2
    k = tuple(cover2d.levels[j][0])
    x0 = (np.array(k, dtype=float) + 0.4) * 2.0 ** -j
    jet = pou2d.phi_jet(j, np.array(k), x0.reshape(2, 1), order=2)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fp = pou2d.phi_jet(j, np.array(k), (x0 + e).reshape(2, 1), 0).value
        fm = pou2d.phi_jet(j, np.array(k), (x0 - e).reshape(2, 1), 0).value
        alpha = tuple(1 if q == i else 0 for q in range(2))
        assert float(jet.derivative(alpha)[0]) == pytest.approx(
            float((fp[0] - fm[0]) / (2 * h)), abs=1e-6, rel=1e-5)


def test_outside_cover_raises(pou2d):
    with pytest.raises(OutsideCover):
        pou2d.phi_jet(0, np.array((0, 0)), np.array([[0.0], [0.0]]), 0)


def test_regularized_distance_bounds():
    dom = ModelDomain(2, 0)
    rng = np.random.default_rng(5)
    pts = (rng.random((1000, 2)) - 0.5) * 6
    # and points at radii 1e-3 .. 0.04 around the vertex, which none of
    # the uniform draws comes near
    r = np.geomspace(1e-3, 0.04, 16)
    t = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    pts = np.concatenate([pts, np.stack([r * np.cos(t), r * np.sin(t)], 1)])
    rho = regularized_distance(pts.T, dom)
    dist = dom.distance(pts.T)
    assert rho.shape == dist.shape == (len(pts),)
    assert np.all(rho > 0)
    assert np.all(rho <= 1.0 + 1e-15)
    near = dist < 0.05
    assert near.sum() > 0
    # rho equals the true distance well below the cap knee
    assert np.allclose(rho[near], dist[near])
    far = dist > 2.0
    assert np.all(rho[far] > 0.9)


@pytest.mark.parametrize("alpha,bound", [((1, 0), 1.2), ((0, 1), 1.2),
                                         ((2, 0), 3.5), ((1, 1), 3.5),
                                         ((2, 2), 60.0)])
def test_rho_derivative_bound(alpha, bound):
    # |d^alpha rho| <= A_alpha rho^(1-|alpha|); constants frozen after fit
    from klab.jets import Jet
    from klab.testfns import Sample
    dom = ModelDomain(2, 0)
    rng = np.random.default_rng(11)
    pts = 10.0 ** rng.uniform(-3, 0.5, size=(200, 1)) \
        * rng.standard_normal((200, 2))
    pts = pts[dom.distance(pts.T) > 1e-6]
    order = sum(alpha)
    for p in pts[:120]:
        s = Sample(Jet.variables(p.reshape(2, 1), order), dom)
        jet = s.squared_distance().compose(s.radial_rho().derivatives())
        rho = float(np.atleast_1d(jet.value)[0])
        da = float(np.atleast_1d(jet.derivative(alpha))[0])
        assert abs(da) <= bound * rho ** (1 - order) + 1e-12


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_cube_acceptance_is_scale_consistent(kx, ky, j):
    # the same geometric cube at finer indexing keeps its certificate
    dom = ModelDomain(2, 0)
    h = 2.0 ** -j
    lo = np.array([[kx * h - 0.5 * h, ky * h - 0.5 * h]])
    hi = np.array([[kx * h + 1.5 * h, ky * h + 1.5 * h]])
    d1 = dom.cube_distance(lo, hi)[0]
    d2 = dom.cube_distance(lo * 2, hi * 2)[0]   # parent scale
    assert d2 == pytest.approx(2 * d1, rel=1e-12, abs=1e-15)
