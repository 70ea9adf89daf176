"""The affine Weyl group W = W_f ltimes t(M) as signed permutations plus
integer translation vectors, with the sign characters epsilon and psi.

Affine elements are stored in type-I semidirect coordinates (u, gamma),
meaning u . t_gamma with gamma in the lattice M^(I) = Z eps_1 + .. + Z eps_l.
The finite Weyl groups of both numerations are exposed: W_f^(I) acts by
signed permutations of the type-I eps coordinates, W_f^(II) by signed
permutations of the type-II coordinates (its elements are genuinely affine
in type-I terms).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Weight
from .roots import RANK_CAP


@dataclass(frozen=True)
class FiniteWeylElement:
    """Signed permutation: eps_i -> signs[i] * eps_{perm[i]} (0-based)."""

    perm: tuple
    signs: tuple

    @property
    def rank(self):
        return len(self.perm)

    def apply_vec(self, vec):
        """Image coordinates of a coefficient vector."""
        l = self.rank
        out = [None] * l
        for i in range(l):
            out[self.perm[i]] = self.signs[i] * vec[i]
        return tuple(out)

    def act(self, w: Weight, sharp="I") -> Weight:
        if sharp == "I":
            return Weight(self.apply_vec(w.eps), w.delta, w.lambda0)
        eps2, d2, c2 = w.to_type_II_coords()
        return Weight.from_type_II_coords(w.rank, self.apply_vec(eps2), d2, c2)

    def compose(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        """self o other."""
        perm = tuple(self.perm[other.perm[i]] for i in range(self.rank))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]]
                      for i in range(self.rank))
        return FiniteWeylElement(perm, signs)

    def det(self):
        s = 1
        seen = [False] * self.rank
        for i in range(self.rank):
            if not seen[i]:
                j, cyc = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = self.perm[j]
                    cyc += 1
                if cyc % 2 == 0:
                    s = -s
        for x in self.signs:
            s *= 1 if x > 0 else -1
        return s

    def neg_count(self):
        return sum(1 for x in self.signs if x < 0)


@dataclass(frozen=True)
class AffineWeylElement:
    """u . t_gamma in type-I semidirect coordinates."""

    finite: FiniteWeylElement
    translation: tuple

    def act(self, w: Weight) -> Weight:
        return self.finite.act(translate(self.translation, w))


def translate(gamma, w: Weight) -> Weight:
    """t_gamma(w) = w + (w,delta) gamma - ((w,gamma) + |gamma|^2 (w,delta)/2) delta."""
    lev = 2 * w.lambda0
    pair = sum(c * g for c, g in zip(w.eps, gamma))
    nsq = sum(g * g for g in gamma)
    eps = tuple(c + lev * g for c, g in zip(w.eps, gamma))
    return Weight(eps, w.delta - pair - Fraction(nsq, 2) * lev, w.lambda0)


def epsilon(w) -> int:
    """Sign character (-1)^length; det of the signed permutation part."""
    u = w.finite if isinstance(w, AffineWeylElement) else w
    return u.det()


def psi(w) -> int:
    """The nice map: psi(s_{alpha_i^(I)}) = 1 for i < l and -1 for i = l.

    Closed form on semidirect coordinates: parity of the number of negative
    signs of u times parity of the translation coordinate sum."""
    if isinstance(w, AffineWeylElement):
        s = w.finite.neg_count() + sum(w.translation)
    else:
        s = w.neg_count()
    return -1 if s % 2 else 1


def enumerate_finite(l, sharp="I"):
    """All 2^l l! elements of W_f^(sharp) (as signed permutations of the
    sharp coordinates); deterministic order."""
    if sharp not in ("I", "II"):
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    if l > RANK_CAP:
        raise ValueError(f"rank {l} exceeds enumeration cap {RANK_CAP}")
    for perm in itertools.permutations(range(l)):
        for signs in itertools.product((1, -1), repeat=l):
            yield FiniteWeylElement(perm, signs)


def enumerate_ker_psi_finite(l):
    """W_{f;m}^(I) = W_f^(I) cap Ker psi: even number of negative signs."""
    for u in enumerate_finite(l, "I"):
        if u.neg_count() % 2 == 0:
            yield u


def finite_reflection(l, root: Weight, sharp="I") -> FiniteWeylElement:
    """s_beta for a finite root beta of Delta_f^(sharp), as a signed
    permutation of the sharp coordinates."""
    if sharp == "I":
        vec = [Fraction(c) for c in root.eps]
        if root.delta != 0 or root.lambda0 != 0:
            raise ValueError("not a finite type-I root")
    else:
        eps2, d2, c2 = root.to_type_II_coords()
        if c2 != 0:
            raise ValueError("not a finite type-II root")
        vec = [Fraction(c) for c in eps2]
    nz = [(i, c) for i, c in enumerate(vec) if c != 0]
    perm = list(range(l))
    signs = [1] * l
    if len(nz) == 1:
        i = nz[0][0]
        signs[i] = -1
    elif len(nz) == 2:
        # eps_i - eps_j reflects by a plain transposition; eps_i + eps_j by a
        # transposition with both signs flipped
        (i, ci), (j, cj) = nz
        if abs(ci) != abs(cj):
            raise ValueError("not proportional to a finite root")
        perm[i], perm[j] = j, i
        if ci * cj > 0:
            signs[i] = signs[j] = -1
    else:
        raise ValueError("not a rank-1 reflection datum")
    return FiniteWeylElement(tuple(perm), tuple(signs))
