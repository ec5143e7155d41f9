"""Truncated-Taylor jet engine against finite differences and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from klab.jets import Jet, multi_indices, squared_norm_jet


def fd_derivative(f, x, alpha, h=1e-5):
    """Central finite difference for a mixed partial d^alpha f at x (d,)."""
    x = np.asarray(x, dtype=float)
    if sum(alpha) == 0:
        return f(x)
    i = next(k for k, a in enumerate(alpha) if a > 0)
    lower = tuple(a - (1 if k == i else 0) for k, a in enumerate(alpha))
    e = np.zeros_like(x)
    e[i] = h
    return (fd_derivative(f, x + e, lower, h)
            - fd_derivative(f, x - e, lower, h)) / (2 * h)


def eval_jet(fjet, x, alpha, order=4):
    pts = np.asarray(x, dtype=float).reshape(-1, 1)
    return float(fjet(pts, order).derivative(alpha)[0])


def test_multi_indices_counts():
    # number of monomials of degree <= r in d variables is C(d+r, r)
    assert len(multi_indices(2, 4)) == math.comb(6, 4)
    assert len(multi_indices(3, 3)) == math.comb(6, 3)
    assert set(multi_indices(2, 1)) == {(0, 0), (1, 0), (0, 1)}
    assert list(multi_indices(2, 1))[0] == (0, 0)
    assert multi_indices(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1),
                                   (2, 0))


def test_polynomial_derivatives_exact():
    # f(x, y) = x^2 y + 3 x y^3: all derivatives are exact rationals
    def fjet(pts, order):
        x, y = Jet.variables(pts, order)
        return x * x * y + x * y * y * y * 3.0

    x0 = (1.5, -2.0)
    assert eval_jet(fjet, x0, (0, 0)) == 1.5 ** 2 * -2.0 + 3 * 1.5 * (-8.0)
    assert eval_jet(fjet, x0, (1, 0)) == 2 * 1.5 * -2.0 + 3 * (-8.0)
    assert eval_jet(fjet, x0, (1, 1)) == 2 * 1.5 + 9 * 4.0
    assert eval_jet(fjet, x0, (0, 3)) == 18 * 1.5


@pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0),
                                   (2, 1), (0, 3)])
def test_transcendental_against_finite_differences(alpha):
    def f(x):
        return math.exp(0.3 * x[0]) * math.log(2.0 + x[1]) \
            + math.sqrt(4.0 + x[0] * x[1])

    def fjet(pts, order):
        x, y = Jet.variables(pts, order)
        t = x * 0.3
        exp_t = t.compose([np.exp(t.value)] * (order + 1))
        return exp_t * (y + 2.0).log() + (x * y + 4.0).sqrt()

    x0 = (0.7, 0.4)
    got = eval_jet(fjet, x0, alpha)
    h = 1e-5 if sum(alpha) <= 2 else 5e-3
    ref = fd_derivative(f, x0, alpha, h=h)
    assert got == pytest.approx(ref, rel=2e-4, abs=2e-4)


def test_reciprocal_and_power():
    pts = np.array([[0.8], [0.3]])
    x, y = Jet.variables(pts, 4)
    r = squared_norm_jet([x, y]).sqrt()
    # |x|^-2 derivative oracle: d/dx (x^2+y^2)^-1 = -2x (x^2+y^2)^-2
    inv = (x * x + y * y).reciprocal()
    s = 0.8 ** 2 + 0.3 ** 2
    assert float(inv.derivative((1, 0))[0]) == pytest.approx(
        -2 * 0.8 / s ** 2, rel=1e-12)
    # r = sqrt(x^2+y^2); r.power(3) third derivative vs closed form in 1D cut
    p = r.power(1.5)
    assert float(p.value[0]) == pytest.approx(s ** 0.75, rel=1e-12)


def test_compose_chain_rule():
    # h(t) = sin(t) composed with t(x,y) = x*y at (0.6, 0.9)
    pts = np.array([[0.6], [0.9]])
    x, y = Jet.variables(pts, 3)
    t = x * y
    derivs = [np.sin(t.value), np.cos(t.value), -np.sin(t.value),
              -np.cos(t.value)]
    h = t.compose(derivs)
    # d^2/dxdy sin(xy) = cos(xy) - xy sin(xy)
    v = 0.54
    assert float(h.derivative((1, 1))[0]) == pytest.approx(
        math.cos(v) - v * math.sin(v), rel=1e-12)


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-2, 2))
@settings(max_examples=50, deadline=None)
def test_product_rule_property(a, b, c, e):
    # (fg)' = f'g + fg' for arbitrary quadratics, all derivatives to order 2
    pts = np.array([[0.3], [-0.7]])
    x, y = Jet.variables(pts, 2)
    f = x * a + y * b + 1.0
    g = x * c + y * e + 2.0
    fg = f * g
    for alpha in [(1, 0), (0, 1)]:
        lhs = float(fg.derivative(alpha)[0])
        rhs = float(f.derivative(alpha)[0]) * float(g.value[0]) \
            + float(f.value[0]) * float(g.derivative(alpha)[0])
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_vectorized_matches_scalar_loop():
    pts = np.linspace(0.1, 1.9, 7).reshape(1, -1)
    x, = Jet.variables(pts, 4)
    f = (x * x + 1.0).log()
    for i in range(7):
        xi, = Jet.variables(pts[:, i:i + 1], 4)
        fi = (xi * xi + 1.0).log()
        assert float(fi.derivative((3,))[0]) == pytest.approx(
            float(f.derivative((3,))[i]), rel=1e-13)


# --- jets are immutable values: shared slots, no writes into operands ---

def read_only_points(d, n, seed):
    pts = 0.5 + np.random.default_rng(seed).random((d, n))
    pts.setflags(write=False)
    return pts


def test_operations_leave_operands_unchanged():
    pts = read_only_points(3, 9, 11)
    x, y, z = Jet.variables(pts, 3)
    f = x * y + z
    g = (x * x + 1.0).sqrt()
    operands = [x, y, z, f, g]
    before = [[np.copy(c) for c in j.coeffs] for j in operands]
    results = [f + g, f + 2.0, 2.0 + f, f - g, f - 0.5, -f, f * g, f * 3.0,
               f / g, f / 4.0, g.compose([g.value ** 2, 2 * g.value,
                                          2.0 + 0 * g.value, 0 * g.value]),
               f.power(-1.5), f.power(0), g.log(), f.sqrt(),
               squared_norm_jet([x, y, z])]
    for jet, old in zip(operands, before):
        for c, c0 in zip(jet.coeffs, old):
            assert np.array_equal(c, c0)
    assert all(np.all(np.isfinite(c)) for r in results for c in r.coeffs)


def test_order_zero_is_elementwise():
    pts = read_only_points(2, 1000, 12)
    x, y = Jet.variables(pts, 0)
    a, b = pts
    assert np.array_equal((x * y).value, a * b)
    assert np.array_equal((x + y).value, a + b)
    assert np.array_equal((x + 1.5).value, a + 1.5)
    assert np.array_equal(x.compose([np.exp(a)]).value, np.exp(a))
    assert np.array_equal(x.power(-0.7).value, a ** -0.7)
    assert np.array_equal(x.log().value, np.log(a))
    assert np.array_equal((-y.log() + 1.0).power(0.3).value,
                          (1.0 - np.log(b)) ** 0.3)


def test_compose_cube_equals_products():
    pts = read_only_points(3, 50, 13)
    x, y, z = Jet.variables(pts, 4)
    t = x * y + z.log() * x + 0.3
    v = t.value
    cube = t.compose([v ** 3, 3 * v ** 2, 6 * v, 6.0 + 0 * v, 0 * v])
    prod = t * t * t
    for c, p in zip(cube.coeffs, prod.coeffs):
        assert np.max(np.abs(c - p)) <= 1e-14 * np.max(np.abs(p))


# --- the float-slot rule against a dense reference ---
#
# The reference holds every slot as an array of the batch shape and makes
# every product of the multiplication table, as the jets did before float
# slots.  Skipped products only drop terms that are exactly +-0.0 and
# pass-throughs only drop factors of exactly 1.0, so the two agree under ==
# (which counts -0.0 equal to 0.0).

def dense(jet):
    shape = np.shape(jet.value)
    return [np.array(np.broadcast_to(c, shape), dtype=float)
            for c in jet.coeffs]


def dense_mul(a, b, dim, order):
    idx = multi_indices(dim, order)
    pos = {al: n for n, al in enumerate(idx)}
    out = [np.zeros_like(a[0]) for _ in idx]
    for i, al in enumerate(idx):
        for j, be in enumerate(idx):
            ga = tuple(x + y for x, y in zip(al, be))
            if sum(ga) <= order:
                out[pos[ga]] = out[pos[ga]] + a[i] * b[j]
    return out


def dense_compose(a, derivs, dim, order):
    g = [derivs[k] / math.factorial(k) for k in range(1, order + 1)]
    delta = [np.zeros_like(a[0])] + a[1:]
    tail = [np.zeros_like(a[0])] + [c * g[-1] for c in a[1:]]
    for gk in reversed(g[:-1]):
        tail = dense_mul(delta, [tail[0] + gk] + tail[1:], dim, order)
    return [derivs[0]] + tail[1:]


def power_derivs(v, e, order):
    out, c = [], 1.0
    for k in range(order + 1):
        out.append(c * v ** (e - k))
        c *= e - k
    return out


def log_derivs(v, order):
    return [np.log(v)] + [(-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k
                          for k in range(1, order + 1)]


def catalogue(d, order, seed):
    """Jets with float slots of every kind (0.0, 1.0, -1.0, other floats)
    and array slots, all with positive values, at points in [0.5, 1.5)."""
    xs = Jet.variables(read_only_points(d, 7, seed), order)
    x0, xl = xs[0], xs[-1]
    sq = squared_norm_jet(xs)
    return [*xs, x0 * xl, x0 * 0.5 + 1.0, -x0 + 2.0, sq, (x0 + 1.5).log(),
            sq.power(-0.5) * x0]


def assert_equal_slots(jet, reference):
    got = dense(jet)
    assert len(got) == len(reference)
    for c, r in zip(got, reference):
        assert np.all(c == r)


CASES = [(d, order) for d in (1, 2, 3) for order in range(5)]


@pytest.mark.parametrize("d, order", CASES)
def test_products_equal_the_dense_reference(d, order):
    jets = catalogue(d, order, 100 * d + order)
    for a in jets:
        for b in jets:
            assert_equal_slots(a * b, dense_mul(dense(a), dense(b), d, order))


@pytest.mark.parametrize("d, order", CASES)
def test_compositions_equal_the_dense_reference(d, order):
    rng = np.random.default_rng(7 * d + order)
    for a in catalogue(d, order, 200 * d + order):
        v = a.value
        derivs = [rng.standard_normal(v.shape) for _ in range(order + 1)]
        assert_equal_slots(a.compose(derivs),
                           dense_compose(dense(a), derivs, d, order))
        assert_equal_slots(a.power(-1.3), dense_compose(
            dense(a), power_derivs(v, -1.3, order), d, order))
        assert_equal_slots(a.log(), dense_compose(
            dense(a), log_derivs(v, order), d, order))
        recip = [(-1.0) ** k * math.factorial(k) / v ** (k + 1)
                 for k in range(order + 1)]
        assert_equal_slots(a.reciprocal(),
                           dense_compose(dense(a), recip, d, order))


@pytest.mark.parametrize("d, order", CASES)
def test_derivatives_are_batch_arrays_equal_to_the_dense_reference(d, order):
    idx = multi_indices(d, order)
    for a in catalogue(d, order, 300 * d + order):
        ref = dense(a)
        assert isinstance(a.value, np.ndarray) and a.value.shape == (7,)
        for n, alpha in enumerate(idx):
            got = a.derivative(alpha)
            fac = float(np.prod([math.factorial(k) for k in alpha]))
            assert isinstance(got, np.ndarray) and got.shape == (7,)
            assert np.all(got == ref[n] * fac)


def test_coordinate_jets_hold_float_structure():
    x, y = Jet.variables(read_only_points(2, 5, 14), 3)
    assert x.coeffs[1:] == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    # structurally zero derivatives are read-only zero arrays
    d = x.derivative((0, 2))
    assert d.shape == (5,) and not d.flags.writeable and np.all(d == 0.0)
    # times 1.0 passes every slot through, times 0.0 keeps an array value
    f = x * y + 1.0
    for c, c1 in zip((f * 1.0).coeffs, f.coeffs):
        assert c is c1 if isinstance(c1, np.ndarray) else c == c1
    z = f * 0.0
    assert isinstance(z.value, np.ndarray) and np.all(z.value == 0.0)


@pytest.mark.parametrize("d, order", CASES)
def test_read_only_operands_are_never_written(d, order):
    jets = [j.freeze() for j in catalogue(d, order, 400 * d + order)]
    before = [dense(j) for j in jets]
    x0 = jets[0]
    for a in jets:
        for b in jets:
            a * b
        # the first term of each x0-slot of a * x0 is a's slot itself,
        # passed through by x0's 1.0; the next term must not add into it
        a * x0
        a.compose([a.value] * (order + 1))
        a.power(0.5), a.log(), a.reciprocal()
    for jet, old in zip(jets, before):
        assert_equal_slots(jet, old)


def test_frozen_slots_raise_on_in_place_writes():
    x, y = Jet.variables(0.5 + np.random.default_rng(15).random((2, 4)), 2)
    f = (x * y + 1.0).freeze()
    arrays = [c for c in f.coeffs if isinstance(c, np.ndarray)]
    assert 1 < len(arrays) < len(f.coeffs)
    for c in arrays:
        with pytest.raises(ValueError):
            c += 1.0


@pytest.mark.parametrize("d, order", CASES)
def test_sums_share_array_slots_beside_float_zeros(d, order):
    # a sum slot whose other operand is the float 0.0 is the array slot
    # itself, not a copy; later operations on the sums write into no
    # frozen operand
    jets = [j.freeze() for j in catalogue(d, order, 500 * d + order)]
    before = [dense(j) for j in jets]
    for a in jets:
        for b in jets:
            s = a + b
            for x, y, z in zip(a.coeffs, b.coeffs, s.coeffs):
                if isinstance(x, np.ndarray) and not isinstance(y, np.ndarray) \
                        and y == 0.0:
                    assert z is x
                if isinstance(y, np.ndarray) and not isinstance(x, np.ndarray) \
                        and x == 0.0:
                    assert z is y
            assert_equal_slots(s, [p + q for p, q in zip(dense(a), dense(b))])
            s * s, s * a, (s + 1.0).log(), s.compose([s.value] * (order + 1))
        assert (a + 0.0).value is a.value
    for jet, old in zip(jets, before):
        assert_equal_slots(jet, old)


def test_one_variable_derivatives_are_compose_input():
    # f^(k) = k! c_k; the value and first-order slots are the jet's own,
    # and composing a coordinate jet with them is the one-variable chain
    t = Jet.variable(read_only_points(1, 6, 17)[0], 0, 1, 4)
    f = t.log() * t
    derivs = f.derivatives()
    assert derivs[0] is f.coeffs[0] and derivs[1] is f.coeffs[1]
    assert all(np.all(g == c * math.factorial(k))
               for k, (g, c) in enumerate(zip(derivs, f.coeffs)))
    assert Jet.variable(np.ones(3), 0, 1, 2).derivatives()[1:] == [1.0, 0.0]
    x, y = Jet.variables(read_only_points(2, 6, 18), 4)
    sq = squared_norm_jet([x, y])
    s = Jet.variable(sq.value, 0, 1, 4)
    got = sq.compose((s.log() * s).derivatives())
    want = sq.log() * sq
    for g, w in zip(got.coeffs, want.coeffs):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))
