"""Exact model of the ambient space F_f + R.delta + R.gamma and its bilinear form.

Weights are stored in type-I coordinates: an eps-vector (coefficients of the
orthonormal basis eps_1..eps_l), a delta coefficient and a Lambda0 coefficient,
where Lambda0 = 2*gamma is the type-I basic weight.  The form satisfies

    (eps_i, eps_j) = delta_ij,   (delta, delta) = (Lambda0, Lambda0) = 0,
    (delta, Lambda0) = 2,        (eps_i, delta) = (eps_i, Lambda0) = 0.

Scalars are exact ``fractions.Fraction`` throughout the algebraic layer; the
same class carries complex coefficients in the analytic layer (modular module).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

HALF = Fraction(1, 2)


def _as_scalar(x):
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    return x  # complex / float layer


@dataclass(frozen=True)
class Weight:
    """An element of the (complexified) dual space in type-I coordinates."""

    eps: tuple
    delta: object = Fraction(0)
    lambda0: object = Fraction(0)

    @property
    def rank(self):
        return len(self.eps)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(l):
        return Weight((Fraction(0),) * l)

    @staticmethod
    def eps_basis(l, i):
        """eps_i, 1-based index."""
        if not 1 <= i <= l:
            raise ValueError(f"eps index {i} out of range 1..{l}")
        v = [Fraction(0)] * l
        v[i - 1] = Fraction(1)
        return Weight(tuple(v))

    @staticmethod
    def delta_weight(l):
        return Weight((Fraction(0),) * l, Fraction(1), Fraction(0))

    @staticmethod
    def lambda0_I(l):
        return Weight((Fraction(0),) * l, Fraction(0), Fraction(1))

    @staticmethod
    def lambda0_II(l):
        # Lambda0^(II) = gamma + (eps_1+..+eps_l)/2 - (l/8) delta
        #             = Lambda0^(I)/2 + (1/2) sum eps_i - (l/8) delta.
        return Weight((HALF,) * l, -Fraction(l, 8), HALF)

    @staticmethod
    def eps_basis_II(l, i):
        """eps_i^(II) = -eps_{l+1-i} + delta/2, expressed in type-I storage."""
        if not 1 <= i <= l:
            raise ValueError(f"eps index {i} out of range 1..{l}")
        v = [Fraction(0)] * l
        v[l - i] = Fraction(-1)
        return Weight(tuple(v), HALF, Fraction(0))

    # -- linear structure ---------------------------------------------------

    def _chk(self, other):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._chk(other)
        return Weight(tuple(a + b for a, b in zip(self.eps, other.eps)),
                      self.delta + other.delta, self.lambda0 + other.lambda0)

    def __sub__(self, other):
        self._chk(other)
        return Weight(tuple(a - b for a, b in zip(self.eps, other.eps)),
                      self.delta - other.delta, self.lambda0 - other.lambda0)

    def __neg__(self):
        return Weight(tuple(-a for a in self.eps), -self.delta, -self.lambda0)

    def scale(self, c):
        c = _as_scalar(c)
        return Weight(tuple(c * a for a in self.eps), c * self.delta,
                      c * self.lambda0)

    def __rmul__(self, c):
        return self.scale(c)

    # -- coordinates --------------------------------------------------------

    def canonical(self):
        """Representative modulo C.delta: force the delta coefficient to 0."""
        return Weight(self.eps, Fraction(0), self.lambda0)

    def to_type_II_coords(self):
        """Coefficients (eps^(II) vector, delta, Lambda0^(II)) of this weight.

        Inverts eps_i^(II) = -eps_{l+1-i} + delta/2 and
        Lambda0^(II) = Lambda0^(I)/2 + (1/2) sum eps_i - (l/8) delta.
        """
        l = self.rank
        c2 = 2 * self.lambda0
        eps2 = tuple(self.lambda0 - self.eps[l - i] for i in range(1, l + 1))
        d2 = self.delta + HALF * sum(self.eps) - Fraction(l, 4) * self.lambda0
        return eps2, d2, c2

    @staticmethod
    def from_type_II_coords(l, eps2, delta2=Fraction(0), lambda02=Fraction(0)):
        w = Weight.zero(l) + _as_scalar(delta2) * Weight.delta_weight(l) \
            + _as_scalar(lambda02) * Weight.lambda0_II(l)
        for i, c in enumerate(eps2, start=1):
            w = w + _as_scalar(c) * Weight.eps_basis_II(l, i)
        return w

    def project_finite(self, sharp):
        """Component in F_f^(sharp): kill delta and Lambda0^(sharp) parts."""
        if sharp == "I":
            return Weight(self.eps)
        if sharp == "II":
            eps2, _, _ = self.to_type_II_coords()
            return Weight.from_type_II_coords(self.rank, eps2)
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")


# -- bilinear form and derived quantities -----------------------------------

def inner(a: Weight, b: Weight):
    """The nondegenerate symmetric form; (delta, Lambda0^(I)) = 2."""
    a._chk(b)
    s = sum(x * y for x, y in zip(a.eps, b.eps))
    return s + 2 * (a.delta * b.lambda0 + a.lambda0 * b.delta)


def level(w: Weight):
    """(delta, w); 2 * lambda0 coefficient."""
    return 2 * w.lambda0


def norm_sq(w: Weight):
    return inner(w, w)


def coroot(alpha: Weight) -> Weight:
    n = inner(alpha, alpha)
    if n == 0:
        raise ValueError("coroot of an isotropic vector")
    return alpha.scale(Fraction(2) / n)


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
