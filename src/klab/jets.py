"""Truncated multivariate Taylor arithmetic (forward jets).

A :class:`Jet` carries the Taylor coefficients c_alpha = d^alpha f / alpha!
of a function at a batch of points, truncated at a fixed total order.  A
coefficient slot is a numpy array of the batch shape, so a single jet
evaluates a whole batch of points at once, or a Python float that is the
same at every point.  Composition with univariate outer functions (powers,
log, piecewise polynomials) is done by truncated series substitution, which
is exact at the carried order.

Float slots carry the structure of a jet: a coordinate jet's off-axis slots
are 0.0 and its unit slot 1.0.  A product of two slots with a 0.0 factor is
0.0, not computed, and with a 1.0 factor it is the other slot itself, as
is a sum with a 0.0 term; a slot that receives no term stays 0.0.
Skipping these products and sums changes no value beyond the sign of a
zero.  Float slots stay inside this module: the value slot is always an
array, :meth:`Jet.derivative` broadcasts a float slot to a read-only array
of the batch shape, and :meth:`Jet.freeze` marks a jet's array slots
read-only.

A jet is an immutable value.  Its slot arrays may be shared with other
jets, with the caller's points and with the outer derivative arrays handed
to :meth:`Jet.compose`, so no operation copies an operand.  The rule that
makes the sharing safe: an operation writes in place only into arrays it
allocated itself (the accumulators of ``__mul__``, the totals of
``PartitionOfUnity.psi_jet``).  An accumulator that holds an operand's slot,
passed through by a 1.0 factor, is therefore replaced, not added to.  The
phi jets a partition of unity keeps for its pieces
(``PartitionOfUnity.pieces``) are shared by every later call that
integrates the same slice of cubes; they are frozen, so an in-place write
to one raises instead of corrupting later pieces.  At order 0 every
operation reduces to the elementwise numpy expression on the values.
"""

from functools import lru_cache
from itertools import product
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def multi_indices(dim, order):
    """All multi-indices of length `dim` with total degree <= `order`,
    sorted by (degree, lexicographic)."""
    return tuple(sorted((a for a in product(range(order + 1), repeat=dim)
                         if sum(a) <= order), key=lambda a: (sum(a), a)))


@lru_cache(maxsize=None)
def _mul_table(dim, order):
    """Pairs (i, j, k): index_i + index_j = index_k with |index_k| <= order."""
    idx = multi_indices(dim, order)
    pos = {a: n for n, a in enumerate(idx)}
    table = []
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            c = tuple(x + y for x, y in zip(a, b))
            if sum(c) <= order:
                table.append((i, j, pos[c]))
    return table


def _zero(x):
    """True for a float slot 0.0 (or -0.0); an array slot is never zero."""
    return not isinstance(x, np.ndarray) and x == 0.0


def _plus(x, y):
    """The sum of two slots (or of a slot and a scalar): the other one itself
    when either is a float 0.0."""
    if _zero(x):
        return y
    if _zero(y):
        return x
    return x + y


def _times(x, y):
    """The product of two slots (or of a slot and a scalar): 0.0 when either
    is a float 0.0, the other one itself when either is a float 1.0."""
    if _zero(x) or _zero(y):
        return 0.0
    if not isinstance(x, np.ndarray) and x == 1.0:
        return y
    if not isinstance(y, np.ndarray) and y == 1.0:
        return x
    return x * y


class Jet:
    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs):
        self.dim = dim
        self.order = order
        self.coeffs = coeffs  # ndarrays or floats, aligned with multi_indices

    # -- constructors ---------------------------------------------------
    @classmethod
    def constant(cls, value, dim, order, shape=()):
        coeffs = [np.zeros(shape) for _ in multi_indices(dim, order)]
        coeffs[0] += value
        return cls(dim, order, coeffs)

    @classmethod
    def variable(cls, values, i, dim, order):
        values = np.asarray(values, dtype=float)
        idx = multi_indices(dim, order)
        coeffs = [values] + [0.0] * (len(idx) - 1)
        if order >= 1:
            unit = tuple(1 if j == i else 0 for j in range(dim))
            coeffs[idx.index(unit)] = 1.0
        return cls(dim, order, coeffs)

    @classmethod
    def variables(cls, points, order):
        """Coordinate jets for points of shape (dim, npts)."""
        points = np.asarray(points, dtype=float)
        dim = points.shape[0]
        return [cls.variable(points[i], i, dim, order) for i in range(dim)]

    # -- basic queries ---------------------------------------------------
    @property
    def value(self):
        return self.coeffs[0]

    def derivative(self, alpha):
        """Partial derivative d^alpha f (not the Taylor coefficient), an
        array of the batch shape; read-only where the slot is a float."""
        idx = multi_indices(self.dim, self.order)
        fac = float(np.prod([factorial(k) for k in alpha]))
        c = self.coeffs[idx.index(tuple(alpha))] * fac
        if isinstance(c, np.ndarray):
            return c
        return np.broadcast_to(c, np.shape(self.value))

    def derivatives(self):
        """f^(k) at the points, k = 0..order, of a one-variable jet: the
        outer derivatives :meth:`compose` takes.  Float slots stay floats,
        and the value and first-order slots are the jet's own."""
        return [_times(c, float(factorial(k)))
                for k, c in enumerate(self.coeffs)]

    def freeze(self):
        """Mark the array slots read-only, so that an in-place write to a
        jet shared by later calls raises; returns the jet."""
        for c in self.coeffs:
            if isinstance(c, np.ndarray):
                c.setflags(write=False)
        return self

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order,
                       [_plus(self.coeffs[0], other)] + self.coeffs[1:])
        return Jet(self.dim, self.order,
                   [_plus(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            out = [_times(a, other) for a in self.coeffs]
            if _zero(other):   # the value slot stays an array
                out[0] = self.coeffs[0] * other
            return Jet(self.dim, self.order, out)
        a, b = self.coeffs, other.coeffs
        out = [0.0] * len(b)
        own = set()   # the slots whose array this product allocated
        for i, j, k in _mul_table(self.dim, self.order):
            term = _times(a[i], b[j])
            if _zero(term):
                continue
            if k in own:
                out[k] += term
                continue
            acc = term if _zero(out[k]) else out[k] + term
            if isinstance(acc, np.ndarray) and acc is not a[i] \
                    and acc is not b[j]:
                own.add(k)
            out[k] = acc
        return Jet(self.dim, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    # -- univariate composition -------------------------------------------
    def compose(self, outer_derivs):
        """Substitute this jet into an outer univariate function.

        `outer_derivs[k]` must hold the k-th derivative of the outer
        function evaluated at `self.value`, for k = 0..order.  With
        delta = self - self.value, the result is Horner's rule
        g_0 + delta (g_1 + delta (g_2 + ... + delta g_n)), g_k =
        outer_derivs[k] / k!; delta has no constant term, so the result's
        value is g_0 itself.
        """
        n = self.order
        g = [outer_derivs[k] / factorial(k) for k in range(1, n + 1)]
        delta = Jet(self.dim, n, [0.0] + self.coeffs[1:])
        # delta g_n from delta's non-constant slots: at order 0 there are
        # none, and nothing beyond g_0 is computed
        tail = Jet(self.dim, n,
                   [0.0] + [_times(c, g[-1]) for c in self.coeffs[1:]])
        for gk in reversed(g[:-1]):
            tail = delta * (tail + gk)
        return Jet(self.dim, n, [outer_derivs[0]] + tail.coeffs[1:])

    def reciprocal(self):
        v = self.value
        derivs = [(-1.0) ** k * factorial(k) / v ** (k + 1)
                  for k in range(self.order + 1)]
        return self.compose(derivs)

    def power(self, exponent):
        """self ** exponent for real exponent; base must be positive."""
        if exponent == 0:
            return Jet.constant(1.0, self.dim, self.order,
                                np.shape(self.coeffs[0]))
        v = self.value
        derivs = []
        c = 1.0
        for k in range(self.order + 1):
            derivs.append(_times(c, v ** (exponent - k)))
            c *= (exponent - k)
        return self.compose(derivs)

    def sqrt(self):
        return self.power(0.5)

    def log(self):
        v = self.value
        derivs = [np.log(v)]
        for k in range(1, self.order + 1):
            derivs.append((-1.0) ** (k - 1) * factorial(k - 1) / v ** k)
        return self.compose(derivs)


def squared_norm_jet(coord_jets):
    """Jet of the squared Euclidean norm of the given coordinate jets."""
    sq = coord_jets[0] * coord_jets[0]
    for c in coord_jets[1:]:
        sq = sq + c * c
    return sq

