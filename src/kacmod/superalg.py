"""osp(1|2) Verma modules and the affine super root datum B^(1)(0,l):
super-denominator and super-characters through an explicit product/Weyl-sum
route, independent of the theta-orbit code path, and the two checks that
compare them with the twisted theta route.

The super system shares the GCM of BC_l^(2) with odd node l; its real roots
form the non-reduced system with long roots at every delta offset, odd roots
being the short family.  osp(1|2) actions use the basis w_i = f^i/i!.v; the
odd-index e-action coefficient is the one forced by [e,f] = H.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import qseries as qs
from .characters import (CharacterRequest, _integrable_level,
                         anti_invariant, character, conformal_anomaly,
                         default_height_cap, theta_height_bound)
from .lattice import Weight, level, norm_sq
from .qseries import QSeries
from .roots import RootSystemCtx, positive_roots, rho, root_coords
from .weyl import check_rank, enumerate_finite, translate

# ---------------------------------------------------------------------------
# osp(1|2)
# ---------------------------------------------------------------------------

GENERATORS = ("E", "H", "F", "e", "f")
_SHIFT = {"H": 0, "e": -1, "f": 1, "E": -2, "F": 2}


def _coeff(g, i, lam):
    """The scalar c with g.w_i = c w_{i + _SHIFT[g]} in M(lam), lam the
    value lambda(H).

    H.w_i = (lam-2i) w_i, f.w_i = (i+1) w_{i+1},
    e.w_i = -w_{i-1} (i even), ((lam-i+1)/i) w_{i-1} (i odd), e.w_0 = 0;
    E = e^2 and F = -f^2 via the bracket relations."""
    if g == "H":
        return lam - 2 * i
    if g == "f":
        return Fraction(i + 1)
    if g == "e":
        if i == 0:
            return Fraction(0)
        return Fraction(-1) if i % 2 == 0 else (lam - i + 1) / i
    if g == "E":
        return _compose("e", "e", i, lam)
    if g == "F":
        return -_compose("f", "f", i, lam)
    raise ValueError(f"unknown generator {g!r}")


def _compose(g1, g2, i, lam):
    """The scalar of g1(g2.w_i), a multiple of w_{i + _SHIFT[g1] + _SHIFT[g2]};
    g1 is not applied to a zero image, whose index may lie below 0."""
    c = _coeff(g2, i, lam)
    return c * _coeff(g1, i + _SHIFT[g2], lam) if c else c


def osp_action(generator, i, lambda_H):
    """Action of a generator on w_i in M(lambda): list of (index, coeff),
    empty when the image is zero."""
    if i < 0:
        raise ValueError("negative basis index")
    c = _coeff(generator, i, Fraction(lambda_H))
    return [(i + _SHIFT[generator], c)] if c else []


_ODD = {"e", "f"}

# (g1, g2, expected as scalar multiple of a generator action or of identity)
BRACKET_RELATIONS = (
    ("H", "E", "E", 4),
    ("H", "F", "F", -4),
    ("E", "F", "H", 2),
    ("H", "e", "e", 2),
    ("H", "f", "f", -2),
    ("e", "f", "H", 1),
    ("e", "e", "E", 2),
    ("f", "f", "F", -2),
)


def check_bracket_relations(lambda_H, i_max=20):
    """Operator identities of the super bracket on w_0..w_{i_max}; returns
    the list of violated relations (empty = all exact), each side of one
    as the (index, coeff) it sends w_i to."""
    lam = Fraction(lambda_H)
    bad = []
    for g1, g2, target, mult in BRACKET_RELATIONS:
        # anticommutator for two odd generators, commutator otherwise
        sign = 1 if g1 in _ODD and g2 in _ODD else -1
        for i in range(i_max + 1):
            got = (i + _SHIFT[g1] + _SHIFT[g2],
                   _compose(g1, g2, i, lam) + sign * _compose(g2, g1, i, lam))
            want = (i + _SHIFT[target], mult * _coeff(target, i, lam))
            if got != want:
                bad.append((g1, g2, i, got, want))
    return bad


def singular_indices(lambda_H, i_max):
    """Indices i >= 1 with e.w_i = 0 (onset of a proper submodule)."""
    lam = Fraction(lambda_H)
    return [i for i in range(1, i_max + 1) if not _coeff("e", i, lam)]


def verma_reducible(lambda_H):
    lam = Fraction(lambda_H)
    # comfortably past the submodule onset at i = lambda(H) + 1
    i_max = 4 * max(0, int(lam)) + 8 if lam.denominator == 1 else 8
    return bool(singular_indices(lam, i_max))


def osp_irreducible_dim(N: int) -> int:
    """dim L(N alpha): the Verma module with lambda(H) = 2N is truncated at
    the first singular index."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    lam = Fraction(2 * N)
    idx = singular_indices(lam, 4 * N + 8)
    if not idx:
        raise ValueError(f"no proper submodule found for lambda(H) = {lam}")
    return idx[0]


def osp_action_matrix(generator, lambda_H, i_max):
    """Dense matrix of a generator on w_0..w_{i_max} (columns act on w_j;
    images beyond the window are dropped)."""
    mat = [[Fraction(0)] * (i_max + 1) for _ in range(i_max + 1)]
    for j in range(i_max + 1):
        for i, c in osp_action(generator, j, Fraction(lambda_H)):
            if i <= i_max:
                mat[i][j] = c
    return mat


def super_denominator(l, depth=8) -> QSeries:
    """e^rho prod_{even +}(1-e^{-a})^mult / prod_{odd +}(1-e^{-a})^mult,
    expanded from the super parity decomposition (a code path independent of
    the twisted theta route) under the level-0 default height cap.  Apex
    e^rho, no delta normalization."""
    height_cap = default_height_cap(l, 0, depth)
    return qs.mul(QSeries.monomial(rho(l), 1, height_cap, depth),
                  *_super_factors(l, depth, height_cap, "even"))


def _super_factors(l, depth, height_cap, binomial_parity):
    """(1 - e^{-a}) for the roots of one parity and (1 - e^{-a})^{-1} for
    the other, each repeated by multiplicity."""
    factors = []
    for vec, mult, par in positive_roots(l, depth, height_cap, super_=True):
        if par == binomial_parity:
            f = qs.binomial_factor(vec, -1, height_cap, depth)
        else:
            f = qs.geometric_factor(vec, height_cap, depth)
        factors += [f] * mult
    return factors


def _psi_weyl_sum(l, base: Weight, height_cap, depth) -> QSeries:
    """sum_w epsilon(w) psi(w) e^{w(base)} over the affine Weyl group, with
    w = u t_gamma for u in W_f^(I) and gamma in M^(I).  The sign splits as
    epsilon(u) psi(u) = det(u) (-1)^{#negative signs of u} times
    psi(t_gamma) = (-1)^{sum gamma}, and t_gamma(base) does not depend on u:
    each is formed once, and every pair costs one u-action."""
    m = int(level(base))
    out = QSeries(l, base, {}, height_cap, depth)
    nsq = float(norm_sq(base.project_finite("I")))
    rad = math.sqrt(nsq + 2 * m * depth) + 1.0
    ranges = []
    for c in base.eps:
        lo = math.ceil((-rad - float(c)) / m)
        hi = math.floor((rad - float(c)) / m)
        ranges.append(range(lo, hi + 1))
    translated = [(translate(g, base), -1 if sum(g) % 2 else 1)
                  for g in itertools.product(*ranges)]
    for u in enumerate_finite(l):
        sign = u.det() * (-1) ** u.neg_count()
        for img, psi_t in translated:
            off = root_coords(base - u.act(img))
            if off is None:
                raise AssertionError("Weyl image escaped the root lattice")
            if any(n < 0 for n in off):
                raise AssertionError("Weyl image above the apex")
            out.add_term(off, sign * psi_t)
    return out


def super_character(Lambda: Weight, depth=8) -> QSeries:
    """sch L(Lambda) = sum_w eps(w) psi(w) sch M(w(Lambda+rho)-rho) with
    sch M(mu) = e^mu prod_{odd}(1-e^{-a})^mult / prod_{even}(1-e^{-a})^mult.
    Apex Lambda (no conformal normalization), under the height cap of the
    orbits of Lambda + rho."""
    l = Lambda.rank
    Lambda = Lambda.canonical()
    k = _integrable_level(Lambda)
    height_cap = theta_height_bound(
        l, k + 2 * l + 1, norm_sq(Lambda + rho(l)), depth)
    base = (Lambda + rho(l)).canonical()
    return qs.mul(QSeries.monomial(-rho(l), 1, height_cap, depth),
                  _psi_weyl_sum(l, base, height_cap, depth),
                  *_super_factors(l, depth, height_cap, "odd"))


# ---------------------------------------------------------------------------
# Cross-checks against the twisted theta route
# ---------------------------------------------------------------------------

def check_super_denominator(l, depth=8) -> dict:
    """The super-denominator equals the twisted anti-invariant A^psi_rho,
    shifted by its delta normalization."""
    # the rank cap of W_f refuses a large l before the product expansion
    check_rank(l)
    sd = super_denominator(l, depth)
    anti = anti_invariant(Weight.zero(l), "I", True, depth, sd.height_cap)
    shifted = anti.shift_apex_delta(norm_sq(rho(l)) / (2 * (2 * l + 1)))
    return {"rank": l, "equal": sd == shifted, "terms": len(sd.terms)}


def check_super_character(lam: Weight, depth=8) -> dict:
    """The super-character of lam equals its normalized twisted character
    (series division of twisted anti-invariants), shifted by c_lam."""
    sch = super_character(lam, depth)
    req = CharacterRequest(RootSystemCtx.build(lam.rank), lam,
                           int(level(lam)), "I", True, depth)
    tw = character(req, height_cap=sch.height_cap)
    return {"rank": lam.rank,
            "pass": sch == tw.shift_apex_delta(conformal_anomaly(lam)),
            "terms": len(sch.terms)}
