"""The BC_l^(2) root datum: simple roots in both numerations, the positive
roots with multiplicities and super parity as height vectors, fundamental
weights and dominant-weight enumeration.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lattice import HALF, Weight, level

RANK_CAP = 6


def labels(l):
    """Marks a: delta = sum a_i alpha_i."""
    return (1,) + (2,) * l


def colabels(l):
    return (2,) * l + (1,)


def simple_roots_I(l):
    roots = [Weight.delta_weight(l) - Weight.eps_basis(l, 1).scale(2)]
    for i in range(1, l):
        roots.append(Weight.eps_basis(l, i) - Weight.eps_basis(l, i + 1))
    roots.append(Weight.eps_basis(l, l))
    return roots


def simple_roots_II(l):
    si = simple_roots_I(l)
    return [si[l - i] for i in range(l + 1)]


def positive_roots(l, q_cap, height_cap=None, super_=False):
    """The list of (height vector, multiplicity, parity) for the positive
    roots with delta offset <= q_cap and, with a height cap, total height
    <= height_cap, by increasing offset n.  A missing q cap is refused at the
    call.

    At each n: the imaginary root n delta (multiplicity l, n >= 1); for each
    eps_i and sign s the short root n delta + s eps_i (odd) and the long root
    n delta + 2s eps_i (even; at odd n only, or at every n with super_ for
    the system B^(1)(0,l)); then the middle roots n delta + s eps_i + s' eps_j
    (i < j, even).  The root n delta + sum c_i eps_i has height vector
    (n, 2n + c_1, 2n + c_1 + c_2, ..), so each finite part c is kept as its
    partial sums."""
    if q_cap is None:
        raise ValueError("positive_roots needs a q cap")
    finite = []  # (partial sums of c, their minimum and sum, parity, long)
    for i in range(l):
        for s in (1, -1):
            finite.append(_finite_part(l, {i: s}, "odd", False))
            finite.append(_finite_part(l, {i: 2 * s}, "even", True))
    for i, j in itertools.combinations(range(l), 2):
        for si in (1, -1):
            for sj in (1, -1):
                finite.append(_finite_part(l, {i: si, j: sj}, "even", False))
    top = q_cap
    if height_cap is not None:
        # the lowest root at offset n >= 1, n delta - 2 eps_1, has height
        # (2l+1) n - 2l
        top = min(q_cap, (height_cap + 2 * l) // (2 * l + 1))
    roots = []
    for n in range(top + 1):
        d, base = 2 * n, (2 * l + 1) * n
        if n and (height_cap is None or base <= height_cap):
            roots.append(((n,) + (d,) * l, l, "even"))
        for part, low, total, parity, long in finite:
            if (low + d < 0 or (long and not (super_ or n % 2))
                    or (height_cap is not None and base + total > height_cap)):
                continue
            roots.append(((n,) + tuple(d + p for p in part), 1, parity))
    return roots


def _finite_part(l, coeffs, parity, long):
    """The row of positive_roots' table for the finite part
    sum coeffs[i] eps_{i+1}."""
    part = tuple(itertools.accumulate(coeffs.get(i, 0) for i in range(l)))
    return part, min(part), sum(part), parity, long


def root_coords(w: Weight):
    """Integer coordinates (n_0..n_l) of w in the alpha-basis, or None: n_0
    is the delta coefficient and n_j = 2 n_0 + (eps_1 + .. + eps_j)."""
    nums = w.nums
    if w.den != 1 or nums[-1]:
        return None
    n0 = nums[-2]
    coords, acc = [n0], 2 * n0
    for e in nums[:-2]:
        acc += e
        coords.append(acc)
    return tuple(coords)


def from_root_coords(vec) -> Weight:
    """sum n_i alpha_i^(I) for the height vector vec = (n_0..n_l): the
    inverse of root_coords."""
    n0 = vec[0]
    eps = [b - a for a, b in zip((2 * n0, *vec[1:-1]), vec[1:])]
    return Weight.from_numerators((*eps, n0, 0))


# ---------------------------------------------------------------------------
# Fundamental weights, rho
# ---------------------------------------------------------------------------

def finite_fundamental_weight(l, i):
    """varpi_i^(I), 1 <= i <= l."""
    if i < l:
        return Weight((Fraction(1),) * i + (Fraction(0),) * (l - i))
    return Weight((HALF,) * l)


def rho_f(l, sharp="I"):
    """rho_f^(sharp) on integer numerators: eps_i coefficients
    (2(l - i) + 1)/2 in numeration I, and in II the sum of
    (l - i + 1) eps_i^(II), eps_i^(II) = -eps_{l+1-i} + delta/2: eps_j
    coefficient -j and delta coefficient l(l + 1)/4."""
    if sharp == "I":
        return Weight.from_numerators((*range(2 * l - 1, 0, -2), 0, 0), 2)
    return Weight.from_numerators(
        (*range(-4, -4 * l - 1, -4), l * (l + 1), 0), 4)


def fundamental_weight_I(l, j):
    """Lambda_j^(I), canonical representative (delta coefficient 0)."""
    if j == 0:
        return Weight.lambda0_I(l)
    if j < l:
        return (finite_fundamental_weight(l, j) + Weight.lambda0_I(l)).canonical()
    return (finite_fundamental_weight(l, l) + Weight.lambda0_I(l).scale(HALF)).canonical()


def fundamental_weights_I(l):
    return [fundamental_weight_I(l, j) for j in range(l + 1)]


def fundamental_weights_II(l):
    # Lambda_j^(II) == Lambda_{l-j}^(I) modulo C.delta; same canonical reps.
    fw = fundamental_weights_I(l)
    return [fw[l - j] for j in range(l + 1)]


def rho(l):
    """The sum of the fundamental weights Lambda_j^(I), canonical: rho_f^(I)
    at level 2l+1."""
    return Weight.from_numerators((*range(2 * l - 1, 0, -2), 0, 2 * l + 1),
                                  2)


def from_dynkin_labels(l, m):
    """sum m_j Lambda_j^(I) as a canonical weight; m has l+1 entries.  Only
    the nonzero labels' fundamental weights are built."""
    if len(m) != l + 1:
        raise ValueError(f"expected {l + 1} labels, got {len(m)}")
    w = Weight.zero(l)
    for j, mj in enumerate(m):
        if mj:
            w = w + fundamental_weight_I(l, j).scale(mj)
    return w.canonical()


def dynkin_labels(l, w: Weight):
    """Pairings (alpha_i^vee, w) in the type-I numeration: with Lambda0
    coefficient c, alpha_0^vee = delta/2 - eps_1 pairs to c - eps_1,
    alpha_i^vee = eps_i - eps_{i+1} to their difference and
    alpha_l^vee = 2 eps_l to 2 eps_l."""
    if w.rank != l:
        raise ValueError(f"rank mismatch: {l} vs {w.rank}")
    nums, den = w.nums, w.den
    eps = nums[:-2]
    marks = (nums[-1] - eps[0], *(a - b for a, b in zip(eps, eps[1:])),
             2 * eps[-1])
    return tuple(Fraction(m, den) for m in marks)


def enumerate_dominant(l, k):
    """P_{k,+} mod C.delta for even k >= 0, ordered lexicographically by the
    type-I Dynkin label vector (m_0, ..., m_l); a fresh list per call."""
    return list(_dominant(l, k))


@functools.lru_cache(maxsize=None)
def _dominant(l, k):
    """enumerate_dominant as a tuple, built once per (l, k)."""
    if k % 2 != 0 or k < 0:
        raise ValueError(f"level must be even and nonnegative, got {k}")
    return tuple(from_dynkin_labels(l, m) for m in _label_vectors(l, k))


def _label_vectors(l, k):
    # 2*(m_0 + ... + m_{l-1}) + m_l = k; descending lexicographic order in
    # (m_0, ..., m_l), so the basic weight Lambda_0 comes first at k = 2.
    # m_l follows from the head, so this is the order of the heads with
    # sum <= k // 2: the next head takes one from the last nonzero entry and
    # gives the entry after it all of k // 2 that is left
    budget = k // 2
    head = [budget] + [0] * (l - 1)
    vecs = []
    while True:
        vecs.append((*head, k - 2 * sum(head)))
        nonzero = [i for i, m in enumerate(head) if m]
        if not nonzero:
            return vecs
        i = nonzero[-1]
        head[i] -= 1
        if i + 1 < l:
            head[i + 1] = budget - sum(head[:i + 1])


# ---------------------------------------------------------------------------
# Bundled context
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootSystemCtx:
    rank: int
    simple_roots_I: tuple
    simple_roots_II: tuple
    labels: tuple
    colabels: tuple
    fund_weights_I: tuple
    fund_weights_II: tuple
    rho: Weight

    @staticmethod
    def build(l):
        if l < 1:
            raise ValueError("rank must be >= 1")
        return RootSystemCtx(
            rank=l,
            simple_roots_I=tuple(simple_roots_I(l)),
            simple_roots_II=tuple(simple_roots_II(l)),
            labels=labels(l),
            colabels=colabels(l),
            fund_weights_I=tuple(fundamental_weights_I(l)),
            fund_weights_II=tuple(fundamental_weights_II(l)),
            rho=rho(l),
        )

    def level_table(self, sharp="I"):
        fw = self.fund_weights_I if sharp == "I" else self.fund_weights_II
        return tuple(level(w) for w in fw)
