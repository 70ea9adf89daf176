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

from .lattice import Weight, phi_involution
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
            nums = w.nums
            return Weight.from_numerators(
                self.apply_vec(nums[:-2]) + nums[-2:], w.den)
        # phi carries the type-I coordinates to the type-II ones and back
        return phi_involution(self.act(phi_involution(w)))

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
    """t_gamma(w) = w + (w,delta) gamma - ((w,gamma) + |gamma|^2 (w,delta)/2) delta.

    Computed on the numerators of w, where (w,delta) = 2c for the Lambda0
    coefficient c."""
    nums = w.nums
    eps, c = nums[:-2], nums[-1]
    pair = sum(e * g for e, g in zip(eps, gamma))
    nsq = sum(g * g for g in gamma)
    return Weight.from_numerators(
        tuple(e + 2 * c * g for e, g in zip(eps, gamma))
        + (nums[-2] - pair - nsq * c, c), w.den)


def epsilon(w: AffineWeylElement) -> int:
    """Sign character (-1)^length; det of the signed permutation part."""
    return w.finite.det()


def psi(w: AffineWeylElement) -> int:
    """The nice map: psi(s_{alpha_i^(I)}) = 1 for i < l and -1 for i = l.

    Closed form on semidirect coordinates: parity of the number of negative
    signs of u times parity of the translation coordinate sum."""
    s = w.finite.neg_count() + sum(w.translation)
    return -1 if s % 2 else 1


def check_rank(l):
    """Raise ValueError past the rank up to which W_f is enumerated."""
    if l > RANK_CAP:
        raise ValueError(f"rank {l} exceeds enumeration cap {RANK_CAP}")


def enumerate_finite(l):
    """All 2^l l! signed permutations of l coordinates, in deterministic
    order: W_f^(I) on the type-I and W_f^(II) on the type-II coordinates."""
    check_rank(l)
    for perm in itertools.permutations(range(l)):
        for signs in itertools.product((1, -1), repeat=l):
            yield FiniteWeylElement(perm, signs)

