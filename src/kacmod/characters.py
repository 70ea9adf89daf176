"""Formal theta series, (twisted) Weyl anti-invariants, product-form
denominators and normalized characters.

All series live below an apex in the cone apex - Z_{>=0}.Pi.  A level-m theta
orbit has the normal form

    sum_{nu in coset + m Z^l} (sign) e^{nu + (m/2) Lambda0 - (|nu|^2/2m) delta},

independent of the delta representative of its weight.  The anti-invariants
sum such orbits over W_f^(I) in one signed loop: epsilon(u), times psi(u) =
(-1)^{#negative signs} in the twisted sum.  The two numerations split W as
W_f ltimes t(M) in two ways, but A_{lam+rho} and A^psi_{lam+rho} are the same
formal series in both (W_f^(II) lies in Ker psi, and its plain-epsilon
grouping gives the same sum), so a numeration only picks the chart `modular`
evaluates in.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import qseries as qs
from .lattice import Weight, inner, level, norm_sq
from .qseries import QSeries
from .roots import (RootSystemCtx, dynkin_labels, enumerate_dominant,
                    positive_roots, rho)
from .weyl import check_rank, enumerate_finite


def is_dominant(w: Weight) -> bool:
    return all(m.denominator == 1 and m >= 0
               for m in dynkin_labels(w.rank, w))


def theta_height_bound(l, m, base_norm_sq, depth) -> int:
    """A height cap for series built from level-m theta orbits below an apex
    with squared finite norm base_norm_sq, truncated at q-offset depth: the
    total height of any such orbit term, plus a margin of 2l + 4."""
    wnorm = math.sqrt(l * (l + 1) * (2 * l + 1) / 6)
    b = math.sqrt(float(base_norm_sq))
    r = math.sqrt(float(base_norm_sq) + 2 * m * depth)
    return math.ceil((2 * l + 1) * depth + wnorm * (b + r)) + 2 * l + 4


def default_height_cap(l, k, depth) -> int:
    m = k + 2 * l + 1
    base = max((norm_sq(lam + rho(l)) for lam in enumerate_dominant(l, k)),
               default=norm_sq(rho(l)))
    return theta_height_bound(l, m, base, depth)


# ---------------------------------------------------------------------------
# Theta orbits
# ---------------------------------------------------------------------------

def _doubled_eps(w: Weight, what):
    """Twice the eps-coefficients of w, as ints."""
    den = w.den
    out = [2 * n // den for n in w.nums[:-2]]
    if any(2 * n % den for n in w.nums[:-2]):
        raise ValueError(f"{what} finite part not in the half-integer lattice")
    return out


def _accumulate_theta(out: QSeries, coset: Weight, m: int, sign: int,
                      twisted: bool):
    """Add one level-m theta orbit (the coset of the finite part of coset)
    into out, whose apex must dominate the orbit.  Twisted orbits weight
    nu = coset + m*gamma by (-1)^(sum gamma_i).  Works in doubled integer
    coordinates."""
    apex2 = _doubled_eps(out.apex, "apex")
    cos2 = _doubled_eps(coset, "coset")
    base_nsq = sum(a * a for a in apex2)  # 4 |apex_f|^2
    hcap, qcap = out.height_cap, out.q_cap
    r2 = base_nsq + 8 * m * qcap  # 4 (|apex|^2 + 2 m qcap)
    rad = math.isqrt(r2) + 1
    # the (nu_i, gamma_i) of each coordinate with nu_i^2 <= r2, in doubled
    # coordinates nu_i = c_i + 2 m gamma_i
    axes = []
    for c in cos2:
        lo = math.ceil((-rad - c) / (2 * m))
        hi = math.floor((rad - c) / (2 * m))
        axes.append([(v, g) for g in range(lo, hi + 1)
                     if (v := c + 2 * m * g) * v <= r2])
    for point in itertools.product(*axes):
        num = sum(v * v for v, _ in point) - base_nsq
        if num < 0:
            raise AssertionError("term above apex; apex not dominant")
        x, rem = divmod(num, 8 * m)
        if rem:
            raise AssertionError("non-integral q-offset")
        if x > qcap:
            continue
        vec = [x]
        acc = 2 * x  # 2x + partial sums of (apex - nu)
        tot = x
        for a, (v, _) in zip(apex2, point):
            d2, odd = divmod(a - v, 2)
            if odd:
                raise AssertionError("non-integral finite offset")
            acc += d2
            if acc < 0:
                raise AssertionError("offset outside the positive cone")
            vec.append(acc)
            tot += acc
        if hcap is not None and tot > hcap:
            continue
        flip = twisted and sum(g for _, g in point) % 2
        out.add_term(tuple(vec), -sign if flip else sign)


# ---------------------------------------------------------------------------
# Anti-invariants
# ---------------------------------------------------------------------------

def _integrable_level(lam: Weight) -> int:
    """The level k of lam, which must be dominant of even level: the weights
    of the integrable modules whose (super-)characters are built here.  A
    dominant weight has the level 2 m_0 + 2 (m_1 + .. + m_{l-1}) + m_l >= 0
    in its Dynkin labels m_i, so k is even iff m_l is.  Raises ValueError
    otherwise."""
    if not is_dominant(lam):
        raise ValueError("lambda is not dominant")
    k = int(level(lam))
    if k % 2:
        raise ValueError("dominant weight of even nonnegative level required, "
                         f"got level {k}")
    return k


def anti_invariant(lam: Weight, sharp="I", twisted=False, depth=8,
                   height_cap=None) -> QSeries:
    """A_{lam+rho} (twisted: A^psi_{lam+rho}) as a truncated series.

    lam must be dominant of even level k >= 0; the apex is
    (lam + rho) - (|lam+rho|^2 / 2(k+2l+1)) delta with coefficient 1.  The
    series is the same in both numerations: sharp is validated, and selects
    only the chart `modular` evaluates in."""
    if sharp not in ("I", "II"):
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    lam = lam.canonical()
    l = lam.rank
    m = _integrable_level(lam) + 2 * l + 1
    base = (lam + rho(l)).canonical()
    apex = base + Weight.delta_weight(l).scale(-norm_sq(base) / (2 * m))
    out = QSeries(l, apex, {}, height_cap, depth)
    # psi(u) = (-1)^{#negative signs} on W_f^(I)
    for u in enumerate_finite(l):
        sgn = u.det() * (-1) ** u.neg_count() if twisted else u.det()
        _accumulate_theta(out, u.act(base), m, sgn, twisted)
    return out


# ---------------------------------------------------------------------------
# Product-form denominators
# ---------------------------------------------------------------------------

def denominator_product(l, twisted=False, depth=8) -> QSeries:
    """Remark-style product form of A_rho (A^psi_rho when twisted), expanded
    exactly to q-offset depth, with no height cap: e^{rho - (|rho|^2/2(2l+1))
    delta} times the infinite product over imaginary, short, middle and long
    families.  Short (odd) binomials flip sign in the twisted case."""
    r = rho(l)
    lead = r + Weight.delta_weight(l).scale(-norm_sq(r) / (2 * (2 * l + 1)))
    # high delta offset first, which keeps the partial products small
    roots = sorted(positive_roots(l, depth),
                   key=lambda root: -root[0][0])
    factors = []
    for vec, mult, parity in roots:
        sign = 1 if twisted and parity == "odd" else -1
        factors += [qs.binomial_factor(vec, sign, None, depth)] * mult
    return qs.mul(QSeries.monomial(lead, 1, None, depth), *factors)


# ---------------------------------------------------------------------------
# Normalized characters
# ---------------------------------------------------------------------------

def conformal_anomaly(Lambda: Weight) -> Fraction:
    """c_Lambda, computed on the canonical (delta-free) representatives."""
    l = Lambda.rank
    lam = Lambda.canonical()
    r = rho(l)
    top = lam + r
    return norm_sq(top) / (2 * inner(Weight.delta_weight(l), top)) \
        - norm_sq(r) / (2 * inner(Weight.delta_weight(l), r))


@dataclass
class CharacterRequest:
    """A normalized character to build.  sharp is recorded, and validated by
    `anti_invariant`; the series is the same in both numerations."""

    ctx: RootSystemCtx
    lam: Weight
    k: int
    sharp: str = "I"
    twisted: bool = False
    depth: int = 8

    def __post_init__(self):
        self.lam = self.lam.canonical()
        if self.lam.rank != self.ctx.rank:
            raise ValueError("rank mismatch between lambda and context")
        if level(self.lam) != self.k:
            raise ValueError(f"level(lambda) = {level(self.lam)} != k = {self.k}")
        _integrable_level(self.lam)


def character(req: CharacterRequest, height_cap=None) -> QSeries:
    """chi_Lambda = A_{Lambda+rho} / A_rho (twisted variants with A^psi),
    by graded series division; the output apex is Lambda - c_Lambda delta.

    chi is invariant under W_f^(I), which contains -1.  With A_j the partial
    sums of lambda's eps-coefficients, -1 sends the term at height vector
    (n0, n_1..n_l) to (n0, 2A_j + 4 n0 - n_j), and a total height h to
    2c(n0) - h about the centre c(n0) = n0 (2l+1) + sum_j A_j.  So the
    division runs only up to the window top = min(height_cap, floor(c(q
    cap))), and the terms above it are the mirrors of those below their
    centre (`_reflect`)."""
    l = req.ctx.rank
    if height_cap is None:
        height_cap = default_height_cap(l, req.k, req.depth)
    # past the W_f rank cap, or where the division's radix does not pack
    # into int64 codes, the request is refused before any series is built
    check_rank(l)
    qs.division_radix(l, height_cap, req.depth)
    two_a = list(itertools.accumulate(_doubled_eps(req.lam, "lambda")))
    top = min(height_cap, (req.depth * (4 * l + 2) + sum(two_a)) // 2)
    num = anti_invariant(req.lam, req.sharp, req.twisted, req.depth, top)
    full = _denominator(l, req.twisted, req.depth, height_cap)
    den = QSeries(l, full.apex, {v: c for v, c in full.terms.items()
                                 if sum(v) <= top}, top, req.depth)
    return _reflect(qs.divide(num, den), two_a, height_cap)


def _reflect(chi: QSeries, two_a, height_cap) -> QSeries:
    """chi, divided up to its height cap top, extended to height_cap by the
    -1 mirror v -> (v0, two_a[j] + 4 v0 - v_j) (see `character`).  Every
    term whose mirror lies in the window must find it there with the same
    coefficient; the terms come out by total height, then lexicographically,
    as `qs.divide` gives them."""
    l, top, terms = chi.rank, chi.height_cap, chi.terms
    # per q-depth v0: the mirror is base - v, and its height 2c(v0) - h
    s2 = sum(two_a)
    bases = [((2 * v0, *[a + 4 * v0 for a in two_a]), v0 * (4 * l + 2) + s2)
             for v0 in range(chi.q_cap + 1)]
    above = {}
    for vec, c in terms.items():
        base, twice_centre = bases[vec[0]]
        mirror = tuple(map(int.__sub__, base, vec))
        height = twice_centre - sum(vec)
        if height <= top:
            # the quotient's keys are nonnegative, so a found mirror is too
            if terms.get(mirror) != c:
                raise AssertionError(f"term {vec} of coefficient {c} has no "
                                     f"W_f mirror {mirror} in the quotient")
        elif height <= height_cap:
            if min(mirror) < 0:
                raise AssertionError(f"W_f mirror {mirror} of term {vec} "
                                     "outside the positive cone")
            above[mirror] = c
    for vec in sorted(above, key=lambda v: (sum(v), v)):
        terms[vec] = above[vec]
    return QSeries(l, chi.apex, terms, height_cap, chi.q_cap)


@functools.lru_cache(maxsize=32)
def _denominator(l, twisted, depth, height_cap) -> QSeries:
    """A_rho (A^psi_rho when twisted), the divisor of every character with
    these parameters in either numeration, built once; qs.divide only reads
    it, and it is never handed to a caller."""
    return anti_invariant(Weight.zero(l), "I", twisted, depth, height_cap)


def check_denominator_identity(l, depth=10, twisted=False) -> dict:
    """Coefficientwise comparison of the Weyl-sum and product routes."""
    anti = anti_invariant(Weight.zero(l), "I", twisted, depth, None)
    prod = denominator_product(l, twisted, depth)
    rep = qs.diff_report(anti, prod)
    rep.update(rank=l, depth=depth, twisted=twisted, terms=len(anti.terms))
    return rep
