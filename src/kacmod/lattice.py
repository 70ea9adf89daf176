"""Exact model of the ambient space F_f + R.delta + R.gamma and its bilinear form.

Weights are stored in type-I coordinates: an eps-vector (coefficients of the
orthonormal basis eps_1..eps_l), a delta coefficient and a Lambda0 coefficient,
where Lambda0 = 2*gamma is the type-I basic weight.  The form satisfies

    (eps_i, eps_j) = delta_ij,   (delta, delta) = (Lambda0, Lambda0) = 0,
    (delta, Lambda0) = 2,        (eps_i, delta) = (eps_i, Lambda0) = 0.

A weight is held on integers: the numerators `nums` = (eps_1..eps_l, delta,
Lambda0) over one positive denominator `den`, with gcd(nums, den) = 1.  That
form is unique, so equality and hashing compare int tuples and the linear
structure and the form are integer arithmetic; `.eps`, `.delta` and
`.lambda0` read the coefficients back as exact Fractions.  Only exact
rationals enter a weight: the analytic layer's complex chart weights have
their own coordinates (modular module).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational

HALF = Fraction(1, 2)


def _ratio(x):
    """(numerator, denominator) of an exact rational as Python ints."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Rational):
        return int(x.numerator), int(x.denominator)
    raise TypeError(f"weight coefficients must be exact rationals, got {x!r}")


def _make(nums, den):
    """The weight nums/den, reduced; den must be positive."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
    w = object.__new__(Weight)
    _SET_NUMS(w, nums)
    _SET_DEN(w, den)
    _SET_HASH(w, None)
    return w


class Weight:
    """An element of the dual space in type-I coordinates.
    Weight(eps, delta, lambda0) takes exact rationals (ints, Fractions) and
    keeps them as integer numerators `nums` over one denominator `den`."""

    __slots__ = ("nums", "den", "_hash")

    def __new__(cls, eps, delta=0, lambda0=0):
        pairs = [_ratio(x) for x in (*eps, delta, lambda0)]
        den = math.lcm(*(d for _, d in pairs))
        return _make(tuple(n * (den // d) for n, d in pairs), den)

    @staticmethod
    def from_numerators(nums, den=1):
        """The weight with coefficients nums/den, nums = (eps_1..eps_l,
        delta, Lambda0) as integers and den a positive integer; numpy
        integers become Python ints, anything else is refused."""
        den = operator.index(den)
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        return _make(tuple(map(operator.index, nums)), den)

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    def __delattr__(self, name):
        raise AttributeError("Weight is immutable")

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nums, self.den))
            _SET_HASH(self, h)
        return h

    def __repr__(self):
        return (f"Weight(eps={self.eps!r}, delta={self.delta!r}, "
                f"lambda0={self.lambda0!r})")

    @property
    def rank(self):
        return len(self.nums) - 2

    @property
    def eps(self):
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums[:-2])

    @property
    def delta(self):
        return Fraction(self.nums[-2], self.den)

    @property
    def lambda0(self):
        return Fraction(self.nums[-1], self.den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(l):
        return _make((0,) * (l + 2), 1)

    @staticmethod
    def eps_basis(l, i):
        """eps_i, 1-based index."""
        if not 1 <= i <= l:
            raise ValueError(f"eps index {i} out of range 1..{l}")
        v = [0] * (l + 2)
        v[i - 1] = 1
        return _make(tuple(v), 1)

    @staticmethod
    def delta_weight(l):
        return _make((0,) * l + (1, 0), 1)

    @staticmethod
    def lambda0_I(l):
        return _make((0,) * l + (0, 1), 1)

    # -- linear structure ---------------------------------------------------

    def _chk(self, other):
        if len(self.nums) != len(other.nums):
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._chk(other)
        p, q = self.den, other.den
        if p == q:
            return _make(tuple(map(operator.add, self.nums, other.nums)), p)
        g = math.gcd(p, q)
        x, y = q // g, p // g
        return _make(tuple(a * x + b * y
                           for a, b in zip(self.nums, other.nums)), p * x)

    def __sub__(self, other):
        self._chk(other)
        p, q = self.den, other.den
        if p == q:
            return _make(tuple(map(operator.sub, self.nums, other.nums)), p)
        g = math.gcd(p, q)
        x, y = q // g, p // g
        return _make(tuple(a * x - b * y
                           for a, b in zip(self.nums, other.nums)), p * x)

    def __neg__(self):
        return _make(tuple(-a for a in self.nums), self.den)

    def scale(self, c):
        n, d = _ratio(c)
        return _make(tuple(n * a for a in self.nums), d * self.den)

    def __rmul__(self, c):
        return self.scale(c)

    # -- coordinates --------------------------------------------------------

    def canonical(self):
        """Representative modulo C.delta: force the delta coefficient to 0."""
        nums = self.nums
        return _make(nums[:-2] + (0, nums[-1]), self.den)

    def to_type_II_coords(self):
        """Coefficients (eps^(II) vector, delta, Lambda0^(II)) of this weight.

        Inverts eps_i^(II) = -eps_{l+1-i} + delta/2 and
        Lambda0^(II) = Lambda0^(I)/2 + (1/2) sum eps_i - (l/8) delta: they
        are the eps and delta coefficients of phi(w) and twice its Lambda0
        one.
        """
        p = phi_involution(self)
        return p.eps, p.delta, 2 * p.lambda0

    def project_finite(self, sharp):
        """Component in F_f^(sharp): kill delta and Lambda0^(sharp) parts."""
        if sharp == "I":
            return _make(self.nums[:-2] + (0, 0), self.den)
        if sharp == "II":
            p = phi_involution(self)
            return phi_involution(_make(p.nums[:-2] + (0, 0), p.den))
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")


_SET_NUMS = Weight.nums.__set__
_SET_DEN = Weight.den.__set__
_SET_HASH = Weight._hash.__set__


def phi_involution(w: Weight) -> Weight:
    """phi = t_{(eps_1+..+eps_l)/2} o w_0^{A_l} o zeta, the isometry with
    phi(eps_i^(I)) = eps_i^(II), phi(delta) = delta and
    phi(Lambda0^(I)) = 2 Lambda0^(II); an involution.  With Lambda0
    coefficient c it maps eps_i -> c - eps_{l+1-i} and
    delta -> delta + (1/2) sum eps - (l/4) c, here on numerators over
    4 den."""
    nums = w.nums
    c, l = nums[-1], len(nums) - 2
    eps = nums[:-2]
    return _make(tuple(4 * (c - e) for e in reversed(eps))
                 + (4 * nums[-2] + 2 * sum(eps) - l * c, 4 * c), 4 * w.den)


# -- bilinear form and derived quantities -----------------------------------

def inner(a: Weight, b: Weight):
    """The nondegenerate symmetric form; (delta, Lambda0^(I)) = 2."""
    a._chk(b)
    x, y = a.nums, b.nums
    s = sum(p * q for p, q in zip(x[:-2], y[:-2]))
    return Fraction(s + 2 * (x[-2] * y[-1] + x[-1] * y[-2]), a.den * b.den)


def level(w: Weight):
    """(delta, w); 2 * lambda0 coefficient."""
    return Fraction(2 * w.nums[-1], w.den)


def norm_sq(w: Weight):
    return inner(w, w)


# -- JSON serialization ------------------------------------------------------

def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def weight_to_json(w: Weight) -> dict:
    return {
        "eps": [frac_to_str(x) for x in w.eps],
        "delta": frac_to_str(w.delta),
        "lambda0": frac_to_str(w.lambda0),
    }
