"""Fixed C^4 one-dimensional profiles.

All smooth transitions are built from a single ninth-degree smoothstep
with four vanishing derivatives at both ends, so every profile here is
piecewise polynomial and C^4 across its knees:

* ``smoothstep``     S: 0 -> 1 on [0, 1]
* ``DistanceCap``    eta: identity below 1/2, constant 1 above 2, strictly
                     monotone in between
* ``RadialCutoff``   zeta: 1 on [0, 1], 0 on [2, inf)
* ``BumpProfile``    1 on [0, 1], supported in (-1/2, 3/2)
* ``DyadicWindow``   translates sum to 1 on the line (log-annuli partitions)

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


def smoothstep_derivs(t, order=MAX_ORDER):
    """S and derivatives; S=0 below 0 and S=1 above 1, C^4 at the knees."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tin = t[inside]
    out = []
    for k, c in enumerate(_S_DERIV_COEFS[:order + 1]):
        # 1 above the transition, 0 below it; polynomial on it only
        val = np.zeros(t.shape) if k else np.where(t >= 1.0, 1.0, 0.0)
        val[inside] = np.polynomial.polynomial.polyval(tin, c)
        out.append(val)
    return out


def smoothstep(t):
    return smoothstep_derivs(t, order=0)[0]


def _chebyshev_in_x(eta):
    """Chebyshev coefficients in x of the exact polynomial sum_k eta[k] u^k,
    u = (1 + x)/2: Horner's scheme in the Chebyshev basis, with
    x T_k = (T_k+1 + T_|k-1|)/2, scaled by 4 per step to stay in integers."""
    den = math.lcm(*(Fraction(a).denominator for a in eta))
    c = []
    for step, a in enumerate(eta[::-1], start=1):
        xc = [0] * (len(c) + 1)
        for k, v in enumerate(c):
            xc[k + 1] += v
            xc[abs(k - 1)] += v
        c = [2 * v + xv for v, xv in zip(c + [0], xc)]
        c[0] += int(a * den) * 4 ** step
    return np.array([Fraction(v, den * 4 ** len(eta)) for v in c], dtype=float)


class DistanceCap:
    """Monotone C^4 cap eta with eta(t)=t for t<=1/2 and eta(t)=1 for t>=2.

    On the transition interval the derivative is the nonnegative polynomial
    a(1-S)^2 + b(1-S)^5 in u=(t-1/2)/(3/2); the rational weights a, b are
    chosen so the cap reaches exactly 1 at t=2.  There eta and its
    derivatives are polynomials of degree <= 46, built once in exact
    rational arithmetic and stored as Chebyshev series in x = 2u - 1 (the
    monomial form cancels catastrophically); Clenshaw's recurrence evaluates
    them on the transition points only.
    """

    LO, HI = 0.5, 2.0
    _A = Fraction(1965651386, 19083622761)

    def __init__(self):
        P = np.polynomial.polynomial
        w = np.array([1] + [-int(c) for c in _S_COEF[1:]],
                     dtype=object)                       # 1 - S
        w2 = P.polymul(w, w)                             # (1 - S)^2
        h = P.polyadd(self._A * w2,
                      (1 - self._A) * P.polymul(P.polymul(w2, w2), w))
        eta = P.polyint(h * Fraction(3, 2))              # 1/2 + 3/2 int h
        eta[0] = Fraction(1, 2)
        self._series = []
        for _ in range(MAX_ORDER + 1):
            self._series.append(_chebyshev_in_x(eta))
            eta = P.polyder(eta) * Fraction(2, 3)        # d/dt = 2/3 d/du

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        lo = self.LO
        mid = (t > lo) & (t < self.HI)
        x = (t[mid] - lo) * (4.0 / 3.0) - 1.0
        out = []
        for k in range(order + 1):
            # identity below the transition, constant 1 above it
            val = np.where(t <= lo, t if k == 0 else float(k == 1),
                           float(k == 0))
            val[mid] = np.polynomial.chebyshev.chebval(x, self._series[k])
            out.append(val)
        return out

    def __call__(self, t):
        return self.derivs(t, order=0)[0]


class RadialCutoff:
    """zeta(t): 1 on [0,1], falls to 0 on [1,2] via the smoothstep."""

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        s = smoothstep_derivs(t - 1.0, order)
        out = [1.0 - s[0]]
        for k in range(1, order + 1):
            out.append(-s[k])
        return out


class BumpProfile:
    """Reference bump for the unit cube: 1 on [0,1], support in (-1/2, 3/2).

    Rises as S(2t+1) on [-1/2, 0] and falls as 1 - S(2t-2) on [1, 3/2].
    """

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        up = smoothstep_derivs(2.0 * t + 1.0, order)
        down = smoothstep_derivs(2.0 * t - 2.0, order)
        rising = t < 0.5
        out = [np.where(rising, up[0], 1.0 - down[0])]
        for k in range(1, order + 1):
            scale = 2.0 ** k
            out.append(np.where(rising, up[k], -down[k]) * scale)
        return out


class DyadicWindow:
    """w with supp w subset (-1,1) and sum_j w(t - j) = 1 on the line."""

    def derivs(self, t, order=MAX_ORDER):
        t = np.asarray(t, dtype=float)
        up = smoothstep_derivs(t + 1.0, order)
        down = smoothstep_derivs(t, order)
        out = [up[0] - down[0]]
        for k in range(1, order + 1):
            out.append(up[k] - down[k])
        return out


CAP = DistanceCap()
CUTOFF = RadialCutoff()
BUMP = BumpProfile()
WINDOW = DyadicWindow()
