"""Formal theta series, (twisted) Weyl anti-invariants, product-form
denominators and normalized characters.

All series live below an apex in the cone apex - Z_{>=0}.Pi.  A level-m theta
orbit has the normal form

    sum_{nu in coset + m Z^l} (sign) e^{nu + (m/2) Lambda0 - (|nu|^2/2m) delta},

independent of the delta representative of its weight.  The anti-invariants
sum such orbits over the finite Weyl group of either numeration in one signed
loop: epsilon(u), times psi(u) = (-1)^{#negative signs} in the twisted type-I
sum.  W_f^(II) lies in Ker psi, so the type-II route carries plain epsilon
signs; it runs through the type-II signed-permutation action and provides an
independent grouping of the same W-sum.
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
    qeff = out.q_cap if out.q_cap is not None else out.height_cap
    r2 = base_nsq + 8 * m * qeff  # 4 (|apex|^2 + 2 m qeff)
    rad = math.isqrt(r2) + 1
    # the (nu_i, gamma_i) of each coordinate with nu_i^2 <= r2, in doubled
    # coordinates nu_i = c_i + 2 m gamma_i
    axes = []
    for c in cos2:
        lo = math.ceil((-rad - c) / (2 * m))
        hi = math.floor((rad - c) / (2 * m))
        axes.append([(v, g) for g in range(lo, hi + 1)
                     if (v := c + 2 * m * g) * v <= r2])
    hcap, qcap = out.height_cap, out.q_cap
    for point in itertools.product(*axes):
        num = sum(v * v for v, _ in point) - base_nsq
        if num < 0:
            raise AssertionError("term above apex; apex not dominant")
        x, rem = divmod(num, 8 * m)
        if rem:
            raise AssertionError("non-integral q-offset")
        if qcap is not None and x > qcap:
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

def anti_invariant(lam: Weight, sharp="I", twisted=False, depth=8,
                   height_cap=None) -> QSeries:
    """A_{lam+rho} (twisted: A^psi_{lam+rho}) as a truncated series.

    lam must be dominant of even level k >= 0; the apex is
    (lam + rho) - (|lam+rho|^2 / 2(k+2l+1)) delta with coefficient 1."""
    if sharp not in ("I", "II"):
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    lam = lam.canonical()
    l = lam.rank
    k = level(lam)
    if Fraction(k).denominator != 1 or k < 0 or int(k) % 2 != 0:
        raise ValueError(f"dominant weight of even nonnegative level required, got level {k}")
    if not is_dominant(lam):
        raise ValueError("lambda is not dominant")
    m = int(k) + 2 * l + 1
    base = (lam + rho(l)).canonical()
    apex = base + Weight.delta_weight(l).scale(-norm_sq(base) / (2 * m))
    out = QSeries(l, apex, {}, height_cap, depth)

    # psi(u) = (-1)^{#negative signs} on W_f^(I); W_f^(II) lies in Ker psi
    use_psi = twisted and sharp == "I"
    for u in enumerate_finite(l):
        sgn = u.det() * (-1) ** u.neg_count() if use_psi else u.det()
        _accumulate_theta(out, u.act(base, sharp), m, sgn, twisted)
    return out


# ---------------------------------------------------------------------------
# Product-form denominators
# ---------------------------------------------------------------------------

def denominator_product(l, twisted=False, depth=8, height_cap=None) -> QSeries:
    """Remark-style product form of A_rho (A^psi_rho when twisted), expanded
    exactly: e^{rho - (|rho|^2/2(2l+1)) delta} times the infinite product
    over imaginary, short, middle and long families.  Short (odd) binomials
    flip sign in the twisted case."""
    r = rho(l)
    lead = r + Weight.delta_weight(l).scale(-norm_sq(r) / (2 * (2 * l + 1)))
    # high delta offset first, which keeps the partial products small
    roots = sorted(positive_roots(l, depth, height_cap),
                   key=lambda root: -root[0][0])
    factors = []
    for vec, mult, parity in roots:
        sign = 1 if twisted and parity == "odd" else -1
        factors += [qs.binomial_factor(vec, sign, height_cap, depth)] * mult
    return qs.mul(QSeries.monomial(lead, 1, height_cap, depth), *factors)


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
        if self.k % 2 != 0 or self.k < 0:
            raise ValueError("even nonnegative level required")
        if not is_dominant(self.lam):
            raise ValueError("lambda is not dominant")


def character(req: CharacterRequest, height_cap=None) -> QSeries:
    """chi_Lambda = A_{Lambda+rho} / A_rho (twisted variants with A^psi),
    by graded series division; the output apex is Lambda - c_Lambda delta."""
    l = req.ctx.rank
    if height_cap is None:
        height_cap = default_height_cap(l, req.k, req.depth)
    # past the W_f rank cap, or where the division's radix could outgrow
    # int64 codes, the request is refused before any series is built
    check_rank(l)
    qs.division_radix(l, height_cap, req.depth)
    num = anti_invariant(req.lam, req.sharp, req.twisted, req.depth, height_cap)
    den = _denominator(l, req.sharp, req.twisted, req.depth, height_cap)
    return qs.divide(num, den)


@functools.lru_cache(maxsize=32)
def _denominator(l, sharp, twisted, depth, height_cap) -> QSeries:
    """A_rho (A^psi_rho when twisted), the divisor of every character with
    these parameters, built once; qs.divide only reads it, and it is never
    handed to a caller."""
    return anti_invariant(Weight.zero(l), sharp, twisted, depth, height_cap)


def check_denominator_identity(l, depth=10, twisted=False) -> dict:
    """Coefficientwise comparison of the Weyl-sum and product routes."""
    anti = anti_invariant(Weight.zero(l), "I", twisted, depth, None)
    prod = denominator_product(l, twisted, depth, None)
    rep = qs.diff_report(anti, prod)
    rep.update(rank=l, depth=depth, twisted=twisted, terms=len(anti.terms))
    return rep
