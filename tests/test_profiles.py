"""The distance cap eta against its defining slope, its knees and its exact
rational form, piece by piece; the smoothstep and the profiles built from
it against full evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from klab import profiles
from klab.profiles import (BUMP, CAP, CUTOFF, MAX_ORDER, WINDOW, smoothstep,
                           smoothstep_derivs)


def slope(t):
    """eta' on the transition: a(1-S)^2 + b(1-S)^5 at u = (t-1/2)/(3/2)."""
    w = 1.0 - smoothstep((np.asarray(t) - CAP.LO) / 1.5)
    a = float(CAP._A)
    return a * w ** 2 + (1.0 - a) * w ** 5


def integral_of_slope(t):
    """int_{1/2}^t eta' by a 24-node Gauss-Legendre rule, exact for the
    degree-45 slope."""
    x, w = np.polynomial.legendre.leggauss(24)
    half = 0.5 * (t - CAP.LO)
    return half * float(np.sum(w * slope(CAP.LO + half * (x + 1.0))))


# the inner ends of the cap's pieces, and points 1e-12 either side of them
PIECE_ENDS = [CAP.LO + (CAP.HI - CAP.LO) * j / CAP.PIECES
              for j in range(1, CAP.PIECES)]
NEAR_PIECE_ENDS = [t + e for t in PIECE_ENDS for e in (-1e-12, 0.0, 1e-12)]


@pytest.mark.parametrize("t", [0.5001, 0.7, 1.0, 1.3, 1.9, 1.9999]
                         + NEAR_PIECE_ENDS)
def test_cap_is_the_integral_of_its_slope(t):
    val, d1 = CAP.derivs(np.array([t]), order=1)
    assert val[0] == pytest.approx(CAP.LO + integral_of_slope(t), abs=1e-14)
    assert d1[0] == pytest.approx(slope(t), abs=1e-14)


def test_cap_reaches_one_at_the_upper_knee():
    assert CAP.LO + integral_of_slope(CAP.HI) == pytest.approx(1.0, abs=1e-14)
    assert CAP.derivs(np.array([CAP.HI - 1e-12]), 0)[0][0] \
        == pytest.approx(1.0, abs=1e-14)


def test_cap_derivatives_match_finite_differences():
    t = np.concatenate([np.linspace(0.55, 1.95, 29), NEAR_PIECE_ENDS])
    h = 1e-6
    lo, hi = CAP.derivs(t - h, MAX_ORDER), CAP.derivs(t + h, MAX_ORDER)
    mid = CAP.derivs(t, MAX_ORDER)
    for k in range(1, MAX_ORDER + 1):
        fd = (hi[k - 1] - lo[k - 1]) / (2 * h)
        assert np.allclose(fd, mid[k], rtol=1e-6, atol=1e-5 * 10 ** k), k


def test_cap_is_c4_across_both_knees():
    # the slope meets 1 and 0 to fifth order in u, so at distance eps inside
    # a knee the k-th derivative is within O(eps^(6-k)) of the outer branch
    eps = 1e-3
    t = np.array([CAP.LO + eps, CAP.HI - eps])
    got = CAP.derivs(t, MAX_ORDER)
    outer = [np.array([t[0], 1.0]), np.array([1.0, 0.0])] \
        + [np.zeros(2)] * (MAX_ORDER - 1)
    for k in range(MAX_ORDER + 1):
        assert np.allclose(got[k], outer[k], rtol=0,
                           atol=1e4 * eps ** (6 - k) + 1e-13), k


def test_cap_is_exact_outside_the_transition():
    t = np.array([0.0, 1e-9, 0.25, 0.5, 2.0, 3.0, 1e6])
    val, d1, d2 = CAP.derivs(t, order=2)
    assert np.array_equal(val, np.where(t <= 0.5, t, 1.0))
    assert np.array_equal(d1, np.where(t <= 0.5, 1.0, 0.0))
    assert not d2.any()
    assert float(CAP.derivs(np.float64(0.3), 0)[0]) == 0.3


def _exact_cap(k, t):
    """eta^(k) at the points t of the transition, in rational arithmetic
    and rounded once."""
    eta = CAP._eta_in_u()
    for _ in range(k):
        eta = np.polynomial.polynomial.polyder(eta) * Fraction(2, 3)
    out = []
    for s in t:
        u = (Fraction(s) - Fraction(CAP.LO)) / Fraction(CAP.HI - CAP.LO)
        val = Fraction(0)
        for c in eta[::-1]:
            val = val * u + c
        out.append(float(val))
    return np.array(out)


def _cap_scale():
    """max |eta^(k)| on the transition, order by order."""
    got = CAP.derivs(np.linspace(CAP.LO, CAP.HI, 20001)[1:-1], MAX_ORDER)
    return [float(np.abs(g).max()) for g in got]


def test_cap_pieces_match_exact_rational_eta():
    # nine dyadic points per piece, both ends included, through derivs and
    # through each piece's own series at x = -1 and x = 1
    scale = _cap_scale()
    p, width = CAP.PIECES, CAP.HI - CAP.LO
    t = np.array([CAP.LO + width * (j + m / 8) / p
                  for j in range(p) for m in range(9)])
    got = CAP.derivs(t, MAX_ORDER)
    for k in range(MAX_ORDER + 1):
        exact = _exact_cap(k, t)
        assert np.max(np.abs(got[k] - exact)) <= 3e-15 * scale[k], k
        ends = np.polynomial.chebyshev.chebval(
            np.array([-1.0, 1.0]), CAP._table[k])          # (pieces, 2)
        exact_ends = exact.reshape(p, 9)[:, [0, 8]]
        assert np.max(np.abs(ends - exact_ends)) <= 3e-15 * scale[k], k


def test_cap_piece_table_is_a_direct_fraction_taylor_shift():
    # piece j in rationals: Taylor shift of eta(u) to u = (j + v)/PIECES,
    # substitute v = (1 + x)/2, differentiate in t, convert x^l to
    # 2^-l sum_i C(l, i) T_|l - 2i| and round the first DEGS[k] + 1 terms
    j, p = 11, CAP.PIECES
    eta = CAP._eta_in_u()
    n = len(eta)
    v = [sum(eta[k] * math.comb(k, i) * j ** (k - i) / Fraction(p) ** k
             for k in range(i, n)) for i in range(n)]
    x = [sum(v[l] * math.comb(l, i) / Fraction(2) ** l for l in range(i, n))
         for i in range(n)]
    dxdt = Fraction(2 * p) / Fraction(CAP.HI - CAP.LO)
    for k in range(MAX_ORDER + 1):
        if k:
            x = [x[i] * i * dxdt for i in range(1, len(x))]
        cheb = [Fraction(0)] * len(x)
        for l, a in enumerate(x):
            for i in range(l + 1):
                cheb[abs(l - 2 * i)] += a * math.comb(l, i) / Fraction(2) ** l
        expected = np.array([float(c) for c in cheb[:CAP.DEGS[k] + 1]])
        assert CAP._table[k][:, j].tobytes() == expected.tobytes(), k


def test_cap_blocks_match_one_pass():
    # over two blocks of transition points, in a Fortran-ordered array and
    # a strided view of it, against one recurrence over all of them
    t = np.asfortranarray(np.random.default_rng(29).uniform(
        0.0, 2.5, (3, profiles.BLOCK + 7)))
    for arr in (t, t[:, ::2]):
        got = CAP.derivs(arr, MAX_ORDER)
        mid = (arr > CAP.LO) & (arr < CAP.HI)
        whole = CAP._clenshaw(arr[mid], MAX_ORDER)
        for k in range(MAX_ORDER + 1):
            expected = np.where(arr <= CAP.LO, arr if k == 0 else
                                float(k == 1), float(k == 0))
            expected[mid] = whole[k]
            assert _same_bits([got[k]], [expected]), k


def _clenshaw_by_expressions(t, order):
    """The cap's Clenshaw recurrence with a fresh array per step, each
    coefficient gathered by fancy indexing: b_n = c_n + 2x b_n+1 - b_n+2."""
    s = (t - CAP.LO) * (CAP.PIECES / (CAP.HI - CAP.LO))
    idx = np.minimum(s.astype(np.intp), CAP.PIECES - 1)
    x = 2.0 * (s - idx) - 1.0
    x2 = 2.0 * x
    out = []
    for c in CAP._table[:order + 1]:
        b1, b2 = c[-1][idx], 0.0
        for n in range(len(c) - 2, 0, -1):
            b1, b2 = c[n][idx] + x2 * b1 - b2, b1
        out.append(c[0][idx] + x * b1 - b2)
    return out


@pytest.mark.parametrize("size", [profiles.BLOCK] + list(range(1, 101)))
def test_cap_clenshaw_in_place_matches_expression_form(size):
    # transition points, led by the piece boundaries nudged toward 1 (so
    # both knees' inner neighbours)
    t = np.random.default_rng(size).uniform(CAP.LO, CAP.HI, size)
    edges = np.nextafter(np.linspace(CAP.LO, CAP.HI, CAP.PIECES + 1), 1.0)
    t[:len(edges)] = edges[:size]
    got = CAP._clenshaw(t, MAX_ORDER)
    expected = _clenshaw_by_expressions(t, MAX_ORDER)
    assert len(got) == MAX_ORDER + 1
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))
    assert all(np.array_equal(g, e) for g, e in zip(
        CAP._clenshaw(t, 2), expected[:3]))


def _smoothstep_full_then_mask(t, order):
    """S and its derivatives by `polyval` over every point, masked after."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tin = np.where(inside, t, 0.5)
    out = []
    for k, c in enumerate(profiles._S_DERIV_COEFS[:order + 1]):
        base = np.zeros(t.shape) if k else np.where(t >= 1.0, 1.0, 0.0)
        out.append(np.where(inside, np.polynomial.polynomial.polyval(tin, c),
                            base))
    return out


def _knee_points(knees=(0.0, 1.0)):
    """Random points, each knee exactly and one ulp either side, 0-d input."""
    rng = np.random.default_rng(23)
    at = [np.nextafter(a, a + s) for a in knees for s in (-1, 0, 1)]
    return [rng.uniform(-0.5, 1.5, 2000), np.array(at), np.float64(0.3),
            np.float64(1.0)]


def _same_bits(got, expected):
    return len(got) == len(expected) and all(
        g.shape == e.shape and g.tobytes() == e.tobytes()
        for g, e in zip(got, expected))


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_smoothstep_is_polynomial_on_its_transition_only(order, monkeypatch):
    horner = profiles._horner
    seen = []

    def spy(t, c):
        seen.append(np.asarray(t))
        return horner(t, c)

    for t in _knee_points():
        expected = _smoothstep_full_then_mask(t, order)
        monkeypatch.setattr(profiles, "_horner", spy)
        got = smoothstep_derivs(t, order)
        monkeypatch.undo()
        assert _same_bits(got, expected)
    assert len(seen) == 3 * (order + 1)          # three inputs reach (0, 1)
    assert all(np.all((s > 0.0) & (s < 1.0)) for s in seen)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_horner_in_place_is_polyval_bit_for_bit(order):
    # inside, at the ends of and outside [0, 1]: the kernel alone, and
    # smoothstep_derivs against polyval over every point, masked after
    c = profiles._S_DERIV_COEFS[order]
    ends = [np.nextafter(a, a + s) for a in (0.0, 1.0) for s in (-1, 0, 1)]
    x = np.concatenate([np.linspace(-2.0, 3.0, 5001), ends,
                        np.random.default_rng(37).uniform(0.0, 1.0, 3001)])
    assert np.array_equal(profiles._horner(x, c),
                          np.polynomial.polynomial.polyval(x, c))
    for t in (x, x.reshape(2, -1)[:, ::3], np.float64(0.25)):
        got = smoothstep_derivs(t, order)
        expected = _smoothstep_full_then_mask(t, order)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


@pytest.mark.parametrize("profile", [BUMP, CUTOFF, WINDOW])
def test_profiles_match_full_smoothstep_evaluation(profile, monkeypatch):
    for order in range(MAX_ORDER + 1):
        for t in _knee_points((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)) \
                + [np.linspace(-2.0, 3.0, 4001)]:
            got = profile.derivs(t, order)
            monkeypatch.setattr(profiles, "smoothstep_derivs",
                                _smoothstep_full_then_mask)
            expected = profile.derivs(t, order)
            monkeypatch.undo()
            assert _same_bits(got, expected), order


def _bump_full_then_where(t, order):
    """The bump with both smoothsteps over every point, one kept by
    `np.where`."""
    t = np.asarray(t, dtype=float)
    up = smoothstep_derivs(2.0 * t + 1.0, order)
    down = smoothstep_derivs(2.0 * t - 2.0, order)
    rising = t < 0.5
    out = [np.where(rising, up[0], 1.0 - down[0])]
    for k in range(1, order + 1):
        out.append(np.where(rising, up[k], -down[k]) * 2.0 ** k)
    return out


def _cutoff_one_minus_step(t, order):
    """The cutoff as 1 - S(t - 1)."""
    s = smoothstep_derivs(np.asarray(t, dtype=float) - 1.0, order)
    return [1.0 - s[0]] + [-v for v in s[1:]]


def _window_difference(t, order):
    """The window as S(t + 1) - S(t)."""
    t = np.asarray(t, dtype=float)
    up, down = smoothstep_derivs(t + 1.0, order), smoothstep_derivs(t, order)
    return [u - d for u, d in zip(up, down)]


# each plateau against a formula with a smoothstep per branch; the bump's
# cases keep their bare order as id
PLATEAU_CASES = [pytest.param(BUMP, _bump_full_then_where, k, id=str(k))
                 for k in range(MAX_ORDER + 1)] + [
    pytest.param(profile, formula, k, id=f"{name}-{k}")
    for name, profile, formula in (("cutoff", CUTOFF, _cutoff_one_minus_step),
                                   ("window", WINDOW, _window_difference))
    for k in range(MAX_ORDER + 1)]


@pytest.mark.parametrize("profile,formula,order", PLATEAU_CASES)
def test_bump_evaluates_one_smoothstep_per_point(profile, formula, order,
                                                 monkeypatch):
    step = profiles.smoothstep_derivs
    seen = []

    def spy(t, order):
        seen.append(np.size(t))
        return step(t, order)

    # the window differs from its formula in zero signs, and is 1, not 0,
    # at NaN, which its callers never pass
    window = profile is WINDOW
    edge = np.array([-0.0, np.inf, -np.inf] + ([] if window else [np.nan]))
    for t in _knee_points((-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)) \
            + [np.linspace(-2.0, 3.0, 3000).reshape(3, 1000), edge]:
        expected = formula(t, order)
        seen.clear()
        monkeypatch.setattr(profiles, "smoothstep_derivs", spy)
        got = profile.derivs(t, order)
        monkeypatch.undo()
        if window:
            assert len(got) == len(expected) and all(
                np.array_equal(g, e) for g, e in zip(got, expected))
        else:
            assert _same_bits(got, expected)
        assert sum(seen) == np.size(t)


def test_smoothstep_blocks_match_one_pass():
    # over several blocks of transition points, in a Fortran-ordered array
    # and a strided view of it, against polyval over every point
    t = np.asfortranarray(np.random.default_rng(31).uniform(
        -0.5, 1.5, (3, 2 * profiles.BLOCK + 7)))
    for arr in (t, t[:, ::2]):
        assert np.count_nonzero((arr > 0.0) & (arr < 1.0)) > profiles.BLOCK
        assert _same_bits(smoothstep_derivs(arr, MAX_ORDER),
                          _smoothstep_full_then_mask(arr, MAX_ORDER))
