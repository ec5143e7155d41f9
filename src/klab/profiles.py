"""Fixed C^4 one-dimensional profiles.

All smooth transitions are built from a single ninth-degree smoothstep
with four vanishing derivatives at both ends, so every profile here is
piecewise polynomial and C^4 across its knees:

* ``smoothstep``     S: 0 -> 1 on [0, 1]
* ``DistanceCap``    eta: identity below 1/2, constant 1 above 2, strictly
                     monotone in between, where it is evaluated as 32
                     Chebyshev pieces of degree 9 to 11 built exactly at
                     import
* ``Plateau``        S(a t + b_rise) below a split, 1 - S(a t + b_fall) from
                     it on.  ``CUTOFF`` zeta (a = 1, b_fall = -1, no rise):
                     1 on [0, 1], 0 on [2, inf).  ``BUMP`` (a = 2, b_rise = 1,
                     b_fall = -2, split 1/2): 1 on [0, 1], supported in
                     (-1/2, 3/2).  ``WINDOW`` (a = 1, b_rise = 1, b_fall = 0,
                     split 0): supported in (-1, 1), translates sum to 1 on
                     the line (log-annuli partitions)

Each profile exposes ``derivs(t, order)`` returning the function value and
derivatives 0..order at an array of points, the format consumed by
:meth:`klab.jets.Jet.compose`.
"""

import math
from fractions import Fraction

import numpy as np

MAX_ORDER = 4

# S and its derivatives up to order MAX_ORDER, coefficient arrays in
# ascending powers, built once.
_S_COEF = np.array([0, 0, 0, 0, 0, 126, -420, 540, -315, 70], dtype=float)
_S_DERIV_COEFS = [_S_COEF]
for _ in range(MAX_ORDER):
    _S_DERIV_COEFS.append(np.polynomial.polynomial.polyder(_S_DERIV_COEFS[-1]))


# transition points per polynomial pass: small enough for the pass's
# temporaries to stay in cache, which on millions of points halves the time
BLOCK = 2 ** 14


def _on_transition(t, lo, hi, outer, inner, order):
    """outer(x, k) for derivative k off the open interval (lo, hi),
    overwritten on it by inner(x, order), which is applied to BLOCK points
    at a time; x runs over the points of t in C order."""
    x = t.ravel()
    out = [outer(x, k) for k in range(order + 1)]
    idx = np.flatnonzero((x > lo) & (x < hi))
    for i in range(0, idx.size, BLOCK):
        block = idx[i:i + BLOCK]
        for val, v in zip(out, inner(x[block], order)):
            val[block] = v
    return [val.reshape(t.shape) for val in out]


def _horner(x, c):
    """sum_k c[k] x^k by Horner's scheme in one array updated in place:
    numpy's polyval step y = c_k + y x with its addition commuted, so the
    same bits."""
    y = np.full_like(x, c[-1])
    for c_k in c[-2::-1]:
        y *= x
        y += c_k
    return y


def smoothstep_derivs(t, order=MAX_ORDER):
    """S and derivatives; S=0 below 0 and S=1 above 1, C^4 at the knees."""
    t = np.asarray(t, dtype=float)
    # 1 above the transition, 0 below it; polynomial on it only
    return _on_transition(
        t, 0.0, 1.0,
        lambda x, k: np.zeros(x.shape) if k else np.where(x >= 1.0, 1.0, 0.0),
        lambda tin, order: [_horner(tin, c)
                            for c in _S_DERIV_COEFS[:order + 1]],
        order)


def smoothstep(t):
    return smoothstep_derivs(t, order=0)[0]


def _chebyshev_in_x(a, m, s):
    """Integer Chebyshev coefficients c of the polynomial sum_k a[k] u^k with
    integer a and u = (m + x)/s:  sum_k a[k] u^k = sum_n c[n] T_n(x) /
    (2s)^(len(a) - 1).  Horner's scheme in the Chebyshev basis, scaled by 2s
    per step to stay in integers: as 2x T_n = T_n+1 + T_|n-1|, the n-th
    coefficient of 2(m + x) sum c_n T_n is 2m c_n + c_n-1 + c_n+1, with c_0
    counted twice at n = 1."""
    c = [a[-1]]
    for a_k in a[-2::-1]:
        c = [2 * m * v + lo + hi for v, lo, hi
             in zip(c + [0], [0, 2 * c[0]] + c[1:], c[1:] + [0, 0])]
        c[0] += a_k * (2 * s) ** (len(c) - 1)
    return c


def _chebyshev_derivative(c):
    """Integer D with d/dx sum_n c[n] T_n = sum_n D[n] T_n / 2: the exact
    recurrence d_n-1 = d_n+1 + 2n c_n with d_0 halved, doubled to stay in
    integers."""
    d = [0] * (len(c) + 1)
    for n in range(len(c) - 1, 1, -1):
        d[n - 1] = d[n + 1] + 4 * n * c[n]
    d[0] = d[2] // 2 + 2 * c[1]
    return d[:len(c) - 1]


class DistanceCap:
    """Monotone C^4 cap eta with eta(t)=t for t<=1/2 and eta(t)=1 for t>=2.

    On the transition interval the derivative is the nonnegative polynomial
    a(1-S)^2 + b(1-S)^5 in u=(t-1/2)/(3/2); the rational weights a, b are
    chosen so the cap reaches exactly 1 at t=2.  There eta is a polynomial
    of degree 46, built once in exact rational arithmetic.

    The transition is split into PIECES equal pieces.  On each, eta^(k) for
    k <= MAX_ORDER is stored as a Chebyshev series of degree DEGS[k] in the
    piece's coordinate x in [-1, 1] (the monomial form cancels
    catastrophically).  Each series is exact before it is cut: the
    rational coefficients are scaled to integers, each piece's shift and
    scale u = (2j + 1 + x)/(2 PIECES) is taken inside an integer Horner
    scheme in the Chebyshev basis, the derivatives come from the exact
    Chebyshev derivative recurrence, and only the first DEGS[k] + 1
    coefficients are rounded to float.  The dropped tails are at most
    8e-17 of max |eta^(k)|, and against the exact eta^(k) the values are
    within 3e-15 of max |eta^(k)| for every order k.  ``derivs``
    finds each transition point's piece and runs one Clenshaw recurrence
    over a block of BLOCK points at a time, gathering each point's
    coefficients per step with ``take``.  The recurrence runs in place:
    three preallocated arrays of the block's size rotate through its
    steps, and each order's value is the only array it returns.
    """

    LO, HI = 0.5, 2.0
    PIECES, DEGS = 32, (9, 10, 10, 11, 11)
    _A = Fraction(1965651386, 19083622761)

    def __init__(self):
        eta = self._eta_in_u()
        den = math.lcm(*(Fraction(v).denominator for v in eta))
        a = [int(v * den) for v in eta]
        p = self.PIECES
        table = [np.empty((deg + 1, p)) for deg in self.DEGS]
        for j in range(p):
            c = _chebyshev_in_x(a, 2 * j + 1, 2 * p)
            den_j = den * (4 * p) ** (len(a) - 1)
            for k in range(MAX_ORDER + 1):
                if k:
                    # d/dt = (4 PIECES / 3) d/dx, and D is twice d/dx
                    c = [2 * p * v for v in _chebyshev_derivative(c)]
                    den_j *= 3
                table[k][:, j] = [v / den_j for v in c[:self.DEGS[k] + 1]]
        self._table = table

    def _eta_in_u(self):
        """The exact coefficients of eta on the transition, ascending in u."""
        P = np.polynomial.polynomial
        w = np.array([1] + [-int(c) for c in _S_COEF[1:]],
                     dtype=object)                       # 1 - S
        w2 = P.polymul(w, w)                             # (1 - S)^2
        h = P.polyadd(self._A * w2,
                      (1 - self._A) * P.polymul(P.polymul(w2, w2), w))
        eta = P.polyint(h * Fraction(3, 2))              # 1/2 + 3/2 int h
        eta[0] = Fraction(1, 2)
        return eta

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        # identity below the transition, constant 1 above it
        return _on_transition(
            t, self.LO, self.HI,
            lambda x, k: np.where(x <= self.LO, x if k == 0 else float(k == 1),
                                  float(k == 0)),
            self._clenshaw, order)

    def _clenshaw(self, t, order):
        """eta^(k)(t), k = 0..order, at points t inside the transition.

        Each step b_n = c_n + 2x b_n+1 - b_n+2 is computed in place, as
        (2x b_n+1 + c_n) - b_n+2, into the array that held b_n+3: three
        arrays rotate, and a fourth takes each step's gathered c_n."""
        # each point's piece and its coordinate x in the piece
        s = (t - self.LO) * (self.PIECES / (self.HI - self.LO))
        idx = np.minimum(s.astype(np.intp), self.PIECES - 1)
        x = 2.0 * (s - idx) - 1.0
        x2 = 2.0 * x
        c_n, b0, b1, b2 = (np.empty_like(x) for _ in range(4))
        out = []
        for c in self._table[:order + 1]:
            # idx is in range: mode "clip" spares the copy of `out` that
            # take makes under its default mode "raise"
            c[-1].take(idx, out=b1, mode="clip")
            b2.fill(0.0)
            for n in range(len(c) - 2, 0, -1):
                np.multiply(x2, b1, out=b0)
                b0 += c[n].take(idx, out=c_n, mode="clip")
                b0 -= b2
                b0, b1, b2 = b2, b0, b1
            val = x * b1
            val += c[0].take(idx, out=c_n, mode="clip")
            val -= b2
            out.append(val)
        return out


class Plateau:
    """S(a t + b_rise) for t < split, 1 - S(a t + b_fall) from split on; with
    no split, only the fall.  Derivative k is s_k a^k on the rise and
    -s_k a^k on the fall, where s_k is S^(k) at the point's one argument."""

    def __init__(self, a, b_fall, b_rise=None, split=None):
        self.a, self.b_fall, self.split = a, b_fall, split
        self.b_rise = b_fall if b_rise is None else b_rise  # no split: unused

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        x = t.ravel()       # 1-D, so that 1 - s_0 and -s_k are arrays to copy to
        rising = False if self.split is None else x < self.split
        # one argument per point: numpy adds the offsets into x * a in place
        s = smoothstep_derivs(
            x * self.a + np.where(rising, self.b_rise, self.b_fall), order)
        # the fall, 1 - s_0 and -s_k a^k, with the rise s_k a^k copied in
        out = [1.0 - s[0]]
        for k in range(1, order + 1):
            s[k] *= self.a ** k
            out.append(-s[k])
        for val, v in zip(out, s):
            np.copyto(val, v, where=rising)
        return [val.reshape(t.shape) for val in out]


CAP = DistanceCap()
CUTOFF = Plateau(1.0, -1.0)
BUMP = Plateau(2.0, -2.0, 1.0, 0.5)
WINDOW = Plateau(1.0, 0.0, 1.0, 0.0)
