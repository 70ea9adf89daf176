"""The finite Weyl group W_f as signed permutations, and the translations
t_gamma, gamma in the lattice M^(I) = Z eps_1 + .. + Z eps_l, that make up
the affine Weyl group W = W_f ltimes t(M).

W_f^(I) acts by signed permutations of the type-I eps coordinates.  The same
signed permutations of the type-II coordinates form W_f^(II), whose elements
are affine in type-I terms (phi u phi, phi the coordinate involution); the
W-sums built here do not need it, as both numerations split the same W.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

    def act(self, w: Weight) -> Weight:
        """The image of w, its type-I eps coordinates signed and permuted."""
        nums = w.nums
        return Weight.from_numerators(
            self.apply_vec(nums[:-2]) + nums[-2:], w.den)

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


def check_rank(l):
    """Raise ValueError past the rank up to which W_f is enumerated."""
    if l > RANK_CAP:
        raise ValueError(f"rank {l} exceeds enumeration cap {RANK_CAP}")


def enumerate_finite(l):
    """All 2^l l! signed permutations of l coordinates, W_f^(I), in
    deterministic order."""
    check_rank(l)
    for perm in itertools.permutations(range(l)):
        for signs in itertools.product((1, -1), repeat=l):
            yield FiniteWeylElement(perm, signs)

