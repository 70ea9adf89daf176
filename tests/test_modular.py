import cmath
import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kacmod import modular
from kacmod.characters import CharacterRequest, character
from kacmod.lattice import Weight, inner, norm_sq, phi_involution
from kacmod.modular import (ChartWeight, DegeneratePointError, YPoint,
                            eval_anti_invariant, eval_character, eval_qseries,
                            eval_theta, point_to_weight, poisson_check,
                            s_point, sample_points, sin_product, smatrix,
                            smatrix_entry, t_point, transition, verify_S,
                            verify_T, verify_props, verify_sl2_closure,
                            weight_to_point)
from kacmod.roots import enumerate_dominant, from_dynkin_labels, rho, rho_f
from kacmod.weyl import enumerate_finite

from conftest import eps_basis_II, lambda0_II
from test_characters import theta_formal
from test_weyl import (enumerate_ker_psi_finite, finite_act, finite_compose,
                       finite_reflection)

TOL = 1e-12
TWO_PI_I = 2j * math.pi


# -- reference loops: one lattice point / one Weyl element at a time ----------

def _reference_box(center, radius):
    ranges = []
    for c in center:
        lo = math.ceil(-radius - c)
        hi = math.floor(radius - c)
        ranges.append(range(lo, hi + 1))
    out = [()]
    for r in ranges:
        out = [v + (g,) for v in out for g in r]
    return out


def _theta_box(lam, sharp, y, tol):
    """(k, a, center, radius) of the level-k theta orbit of lam at y: the
    shift a and the box eval_theta sums over."""
    k = int(lam.lambda0 * 2)
    coords = lam.eps if sharp == "I" else lam.to_type_II_coords()[0]
    a = [float(c) / k for c in coords]
    w = [zi.imag / y.tau.imag for zi in y.z]
    decay = math.pi * k * y.tau.imag
    log_c = decay * sum(x * x for x in w)
    radius = modular._shell_radius(lam.rank, decay, log_c, tol)
    return k, a, [ai + wi for ai, wi in zip(a, w)], radius


def _reference_theta_term(k, a, y, twisted, gamma):
    """The term of the level-k theta orbit with shift a at gamma, without
    the factor e^{2 pi i k t}."""
    x = [g + ai for g, ai in zip(gamma, a)]
    expo = (1j * math.pi * k * y.tau * sum(v * v for v in x)
            + TWO_PI_I * k * sum(v * zi for v, zi in zip(x, y.z)))
    term = cmath.exp(expo)
    return -term if twisted and sum(gamma) % 2 else term


def _exact_sum(values):
    """(sum, sum |values|) of complex floats, each added exactly (fsum), so
    only the rounding of the values themselves is left."""
    return (complex(math.fsum(v.real for v in values),
                    math.fsum(v.imag for v in values)),
            math.fsum(abs(v) for v in values))


def _reference_eval_theta(lam, sharp, twisted, y, tol):
    """(theta orbit, sum |terms|) over eval_theta's box."""
    k, a, center, radius = _theta_box(lam, sharp, y, tol)
    total, abs_sum = _exact_sum([
        _reference_theta_term(k, a, y, twisted, gamma)
        for gamma in _reference_box(center, radius)])
    pre = cmath.exp(TWO_PI_I * k * y.t)
    return pre * total, abs(pre) * abs_sum


def _reference_eval_anti_invariant(lam, sharp, twisted, y, tol):
    """(A_{lam+rho}, sum |terms|): the signed sum of one theta orbit per u
    in W_f, each over the u-image of the determinant form's box |x_i| <= R
    + max |w_j| (R to tol / |W_f|, w = Im z / Im tau), which holds the
    orbit's own box; the terms are added exactly (fsum), so only their own
    rounding is left.  With it, the absolute sum of those terms."""
    l = lam.rank
    base = (lam + rho(l)).canonical()
    tol_u = tol / (2 ** l * math.factorial(l))
    w = max(abs(zi.imag / y.tau.imag) for zi in y.z)
    values = []
    for u in enumerate_finite(l):
        sgn = u.det()
        if sharp == "I" and twisted and u.neg_count() % 2:
            sgn = -sgn
        k, a, _, radius = _theta_box(finite_act(u, base, sharp), sharp, y,
                                     tol_u)
        values += [sgn * _reference_theta_term(k, a, y, twisted, g)
                   for g in _reference_box(a, radius + w)]
    pre = cmath.exp(TWO_PI_I * k * y.t)
    total, abs_sum = _exact_sum(values)
    return pre * total, abs(pre) * abs_sum


# Float rounding allowance, in units of 2^-52 times sum |terms|.  Recursive
# summation of N terms can lose (N - 1) units in the worst case; over the
# mpmath tests' points the float sums stay within 4 units, and 64 leaves room
# for sums near 1e8 at Im tau = 1/8 without hiding a missing tail term,
# which would exceed tol by many orders of magnitude.
ROUNDING_UNITS = 64


def _rounding(abs_sum):
    return ROUNDING_UNITS * 2.0 ** -52 * abs_sum


def _both_roundings(abs_sum):
    """The allowance between two float sums of the same terms, the kernel's
    and a reference's, each within _rounding of the exact sum: the terms
    themselves round differently on the two sides."""
    return 2 * _rounding(abs_sum)


def _reference_smatrix_phases(kind, k, lam, mu):
    """[(sign, r)] over u in W_f: the a^(kind)(lam, mu) sum is
    sum sign e^{-2 pi i r}, r = (u.x, y)/m mod 1 exactly."""
    l = lam.rank
    m = k + 2 * l + 1
    rfI = rho_f(l, "I")
    rfII = rho_f(l, "II")
    if kind == "aI":
        x = lam.project_finite("I") + rfI
        yv = mu.project_finite("I") + rfI
        grp, use_psi = "I", True
    elif kind == "aI_II":
        x = lam.project_finite("II") + phi_involution(rfI)
        yv = mu.project_finite("II") + rfII
        grp, use_psi = "II", False
    elif kind == "aII_I":
        x = lam.project_finite("I") + phi_involution(rfII)
        yv = mu.project_finite("I") + rfI
        grp, use_psi = "I", False
    else:
        x = lam.project_finite("II") + rfII
        yv = mu.project_finite("II") + rfII
        grp, use_psi = "II", False
    phases = []
    for u in enumerate_finite(l):
        sgn = u.det()
        if use_psi and u.neg_count() % 2:
            sgn = -sgn
        r = Fraction(inner(finite_act(u, x, grp), yv), m) % 1
        phases.append((sgn, r))
    return phases


def _reference_smatrix_entry(kind, k, lam, mu):
    total = 0.0 + 0.0j
    for sgn, r in _reference_smatrix_phases(kind, k, lam, mu):
        total += sgn * cmath.exp(-TWO_PI_I * float(r))
    return total


def _fraction_smatrix_rows(kind, k, lams, mus):
    """_smatrix_rows with every coordinate a Fraction: the same integer
    reduction over the lcm of the coordinates' own denominators, which any
    common denominator leaves the same rational."""
    l = lams[0].rank
    m = k + 2 * l + 1
    src, grp = modular._KINDS[kind]
    rf = rho_f(l, src)
    xr = modular._coords(rf if src == grp else phi_involution(rf), grp)
    yr = modular._coords(rho_f(l, grp), grp)
    c = [[Fraction(v + r) for v, r in zip(modular._coords(lam, grp), xr)]
         for lam in lams]
    g = [[Fraction(v + r) for v, r in zip(modular._coords(mu, grp), yr)]
         for mu in mus]
    den = math.lcm(*(v.denominator for row in (*c, *g) for v in row))
    ci = [[int(v * den) for v in row] for row in c]
    gi = [[int(v * den) for v in row] for row in g]
    modulus = den * den * m
    frac = np.array([[[[p * q % modulus / modulus for q in y] for p in x]
                      for y in gi] for x in ci])
    trig, (re, im) = ((np.cos, (1, 0)) if kind == "aI" else
                      (np.sin, ((1, 0), (0, -1), (-1, 0), (0, 1))[l % 4]))
    dets = 2 ** l * np.linalg.det(trig(2 * math.pi * frac))
    return [[complex(re * v + 0.0, im * v + 0.0) for v in row]
            for row in dets]


def _smatrix_tables_close(got, want, l):
    """Whether two S-matrix tables agree entry by entry to within
    _both_roundings: an entry sums |W_f| = 2^l l! terms of modulus 1."""
    allow = _both_roundings(2 ** l * math.factorial(l))
    return all(abs(g - w) <= allow
               for g_row, w_row in zip(got, want, strict=True)
               for g, w in zip(g_row, w_row, strict=True))


def smatrix_entry_via_ker_psi(k, lam, mu):
    """a^(I) through the index-2 subgroup rewriting (cross-check route)."""
    l = lam.rank
    m = k + 2 * l + 1
    rfI = rho_f(l, "I")
    x = lam.project_finite("I") + rfI
    yv = mu.project_finite("I") + rfI
    s_l = finite_reflection(l, Weight.eps_basis(l, l))
    total = 0.0 + 0.0j
    for u in enumerate_ker_psi_finite(l):
        for v in (u, finite_compose(u, s_l)):
            r = Fraction(inner(v.act(x), yv), m) % 1
            total += u.det() * cmath.exp(-TWO_PI_I * float(r))
    return total


def _gaussian_box(l, q, shift, lin, tol):
    """(center, radius) of the box _gaussian_sum sums over."""
    im_q = q.imag
    re_s = [c.real for c in shift]
    u = [(q.real * c.imag + li.imag) / im_q for c, li in zip(shift, lin)]
    center = [rs + ui for rs, ui in zip(re_s, u)]

    def real_exponent(m):
        x = [mi + ci for mi, ci in zip(m, shift)]
        e = 1j * math.pi * q * sum(v * v for v in x) \
            + TWO_PI_I * sum(li * mi for li, mi in zip(lin, m))
        return e.real
    m0 = tuple(round(-c) for c in center)
    log_c = real_exponent(m0) + math.pi * im_q * sum(
        (a + b) ** 2 for a, b in zip(m0, center))
    return center, modular._shell_radius(l, math.pi * im_q, log_c, tol) + 1


def _reference_gaussian_sum(l, q, shift, lin, tol):
    """(Gaussian sum, sum |terms|) over _gaussian_sum's box."""
    values = []
    for m in _reference_box(*_gaussian_box(l, q, shift, lin, tol)):
        x = [mi + ci for mi, ci in zip(m, shift)]
        e = 1j * math.pi * q * sum(v * v for v in x) \
            + TWO_PI_I * sum(li * mi for li, mi in zip(lin, m))
        values.append(cmath.exp(e))
    return _exact_sum(values)


def _grid_points(l, seed):
    """One point per Im(tau) in 1/8 .. 8: Re tau, z and real t drawn."""
    rng = random.Random(seed)
    for im in (1 / 8, 1 / 2, 1.0, 3.0, 8.0):
        yield YPoint(complex(rng.uniform(-0.5, 0.5), im),
                     tuple(complex(rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.25, 0.25))
                           for _ in range(l)),
                     rng.uniform(-0.2, 0.2))


def capprox(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_sl2_examples():
    y = YPoint(0.3 + 1.2j, (0.1 + 0.2j, -0.4j), 0.07)
    ty = t_point(y)
    assert ty.tau == y.tau + 1 and ty.z == y.z and ty.t == y.t
    fix = s_point(YPoint(1j, (0.0,), 0.0))
    assert capprox(fix.tau, 1j) and capprox(fix.z[0], 0) and capprox(fix.t, 0)


def test_transition_example_and_involution():
    y1 = transition(YPoint(1j, (0.5,), 0.0))
    assert capprox(y1.tau, 1j)
    assert capprox(y1.z[0], -0.5 - 0.5j)
    assert capprox(y1.t, 0.25 + 0.125j)
    y = YPoint(0.2 + 1.4j, (0.3 - 0.2j, 0.1j, 0.25), -0.3 + 0.05j)
    yy = transition(transition(y))
    assert capprox(yy.tau, y.tau, TOL) and capprox(yy.t, y.t, TOL)
    assert all(capprox(a, b, TOL) for a, b in zip(yy.z, y.z))
    assert transition(y).tau == y.tau


def test_chart_round_trip_and_domain():
    y = YPoint(0.37 + 1.13j, (0.11 + 0.07j, 0.2 - 0.1j), 0.05)
    for sharp in ("I", "II"):
        rt = weight_to_point(sharp, point_to_weight(sharp, y))
        assert capprox(rt.tau, y.tau, TOL) and capprox(rt.t, y.t, TOL)
        assert all(capprox(a, b, TOL) for a, b in zip(rt.z, y.z))
    v = point_to_weight("I", y)
    bad = ChartWeight(tuple(-e for e in v.eps), -v.delta, -v.lambda0)
    with pytest.raises(ValueError):
        weight_to_point("I", bad)


def test_pr_coefficients():
    # pr^(sharp)(y), the finite projection of the chart weight of y, has
    # eps^(sharp) coefficients 2 pi i z_i
    # (the eps^(II) coefficients of v are the eps coefficients of phi(v))
    y = YPoint(0.5 + 1.1j, (0.25 - 0.3j, 0.4 + 0.05j), 0.6)
    p = point_to_weight("I", y)
    for i, zi in enumerate(y.z):
        assert capprox(p.eps[i], 2j * math.pi * zi, TOL)
    # pr vanishes at z = 0
    p0 = point_to_weight("I", YPoint(1j, (0.0, 0.0), 0.3))
    assert all(abs(c) < TOL for c in p0.eps)
    # |pr^(II)|^2 = (2 pi i)^2 sum z_i^2 as well
    p2 = point_to_weight("II", y).phi()
    got = sum(c * c for c in p2.eps)
    want = (2j * math.pi) ** 2 * sum(c * c for c in y.z)
    assert capprox(got, want, 1e-10)
    # under the transition map, the type-I square norm picks up the basis
    # shift: |pr^(I)(transition y)|^2 = (2 pi i)^2 sum (z_i + tau/2)^2
    got_t = sum(c * c for c in point_to_weight("I", transition(y)).eps)
    want_t = (2j * math.pi) ** 2 * sum((c + y.tau / 2) ** 2 for c in y.z)
    assert capprox(got_t, want_t, 1e-10)


def test_chart_weights_match_the_exact_basis():
    # point_to_weight against the exact basis weights it combines, and
    # ChartWeight.phi against phi_involution on the same combination
    y = YPoint(0.3 + 0.9j, (0.2 - 0.4j, -0.1 + 0.3j, 0.05j), -0.2 + 0.1j)
    l = y.rank
    for sharp, lam0, basis in (
            ("I", Weight.lambda0_I(l).scale(Fraction(-1, 2)),
             Weight.eps_basis),
            ("II", -lambda0_II(l), eps_basis_II)):
        # (exact basis weight, its coefficient at y) of the chart weight
        terms = [(lam0, y.tau)] + [(basis(l, i), y.z[i - 1])
                                   for i in range(1, l + 1)]
        terms.append((Weight.delta_weight(l), y.t))
        v = point_to_weight(sharp, y)
        for got, f in ((v, lambda u: u), (v.phi(), phi_involution)):
            want = [0j] * (l + 2)
            for u, c in terms:
                fu = f(u)
                for k, x in enumerate((*fu.eps, fu.delta, fu.lambda0)):
                    want[k] += 2j * math.pi * c * float(x)
            assert all(capprox(g, x, TOL) for g, x in
                       zip((*got.eps, got.delta, got.lambda0), want)), sharp


def test_eval_theta_against_formal_series():
    lam = Weight.lambda0_I(1)
    y = YPoint(0.21 + 1.2j, (0.13 + 0.05j,), 0.02)
    for sharp in ("I", "II"):
        for tw in (False, True):
            th = theta_formal(lam, sharp, tw, 26)
            v_formal = eval_qseries(th, sharp, y)
            v_direct = eval_theta(lam, sharp, tw, y, 1e-12)
            assert abs(v_formal - v_direct) <= 1e-11, (sharp, tw)


def test_eval_theta_scalar_oracle():
    # z = 0, t = 0, l = 1: a classical one-dimensional theta value
    lam = Weight.lambda0_I(1)
    tau = 0.1 + 0.9j
    y = YPoint(tau, (0.0,), 0.0)
    k = 2
    direct = sum(cmath.exp(1j * math.pi * k * tau * g * g)
                 for g in range(-40, 41))
    alt = sum((-1) ** g * cmath.exp(1j * math.pi * k * tau * g * g)
              for g in range(-40, 41))
    assert capprox(eval_theta(lam, "I", False, y, 1e-12), direct, 1e-10)
    assert capprox(eval_theta(lam, "I", True, y, 1e-12), alt, 1e-10)


def test_eval_theta_radius_self_consistency():
    lam = Weight.lambda0_I(2)
    y = sample_points(2, 1)[0]
    rough = eval_theta(lam, "I", False, y, 1e-6)
    fine = eval_theta(lam, "I", False, y, 1e-14)
    assert abs(rough - fine) < 1e-6


def test_analytic_evaluators_reject_unknown_sharp():
    lam, y = Weight.lambda0_I(2), sample_points(2, 1)[0]
    for ev in (eval_theta, eval_anti_invariant):
        with pytest.raises(ValueError, match="sharp must be 'I' or 'II'"):
            ev(lam, "III", False, y)


def test_eval_character_trivial_and_consistency():
    l = 1
    y = YPoint(0.21 + 1.1j, (0.13 + 0.06j,), 0.04)
    assert capprox(eval_character(Weight.zero(l), "I", False, y, 1e-12), 1, 1e-10)
    from kacmod.roots import RootSystemCtx
    ctx = RootSystemCtx.build(l)
    for lam in enumerate_dominant(l, 2):
        for tw in (False, True):
            ch = character(CharacterRequest(ctx, lam, 2, "I", tw, 12))
            v_formal = eval_qseries(ch, "I", y)
            v_direct = eval_character(lam, "I", tw, y, 1e-12)
            rel = abs(v_formal - v_direct) / abs(v_direct)
            assert rel <= 1e-6, (tuple(lam.eps), tw, rel)


def test_denominator_vanishes_at_z_zero():
    # short-root factors kill A_rho on z = 0; the twisted variant survives
    # at l = 1 but vanishes for l = 2 (middle-root factors)
    generic = abs(eval_anti_invariant(Weight.zero(1), "I", False,
                                      sample_points(1, 1)[0], 1e-12))
    assert generic > 1e-3
    y1 = YPoint(1j, (0.0,), 0.03)
    assert abs(eval_anti_invariant(Weight.zero(1), "I", False, y1, 1e-12)) < 1e-9
    assert abs(eval_anti_invariant(Weight.zero(1), "I", True, y1, 1e-12)) > 1e-3
    y2 = YPoint(1j, (0.0, 0.0), 0.03)
    assert abs(eval_anti_invariant(Weight.zero(2), "I", True, y2, 1e-12)) < 1e-9
    with pytest.raises(DegeneratePointError):
        eval_character(Weight.zero(1), "I", False, y1, 1e-12)


def test_involution_compatibility():
    # a type-I invariant at transition(y) is the type-II invariant at y
    for l in (1, 2):
        y = sample_points(l, 1)[0]
        lam = enumerate_dominant(l, 2)[0]
        for tw in (False, True):
            a = eval_anti_invariant(lam, "I", tw, transition(y), 1e-12)
            b = eval_anti_invariant(lam, "II", tw, y, 1e-12)
            assert capprox(a, b, 1e-8), (l, tw)


def test_smatrix_hand_value():
    # l=1, k=2: the (2 Lambda_1, 2 Lambda_1) entry of a^(II) is a two-element
    # Weyl sum with argument (eps^(II), eps^(II))
    lam = from_dynkin_labels(1, (0, 2))
    got = smatrix_entry("aII", 2, lam, lam)
    want = cmath.exp(-2j * math.pi / 5) - cmath.exp(2j * math.pi / 5)
    assert capprox(got, want, 1e-12)
    assert capprox(got, -2j * math.sin(2 * math.pi / 5), 1e-12)


def test_smatrix_symmetry_remark():
    # a^(I),(II)(phi(lam), mu) = a^(II),(I)(phi(mu), lam), l <= 2, k <= 4
    for l in (1, 2):
        for k in (2, 4):
            lams = enumerate_dominant(l, k)
            for lam in lams:
                for mu in lams:
                    lhs = smatrix_entry("aI_II", k, phi_involution(lam), mu)
                    rhs = smatrix_entry("aII_I", k, phi_involution(mu), lam)
                    assert abs(lhs - rhs) <= 1e-12 * max(1, abs(rhs))


def test_smatrix_ker_psi_rewriting():
    for l in (1, 2):
        lams = enumerate_dominant(l, 2)
        for lam in lams:
            for mu in lams:
                a = smatrix_entry("aI", 2, lam, mu)
                b = smatrix_entry_via_ker_psi(2, lam, mu)
                assert abs(a - b) <= 1e-12 * max(1, abs(a))


def test_smatrix_table_shape():
    sm = smatrix("aI", 2, 2)
    assert len(sm.index) == 3 and len(sm.entries) == 3
    assert all(len(row) == 3 for row in sm.entries)


def test_lemma_S_and_T_sample():
    l, k = 1, 2
    y = sample_points(l, 1)[0]
    for lemma in ("4.2", "4.3", "4.4", "4.5"):
        for lam in enumerate_dominant(l, k):
            assert verify_S(lemma, lam, k, y, 1e-6, 1e-10).passed
            assert verify_T(lemma, lam, k, y, 1e-10, 1e-12).passed
        assert verify_S(lemma, Weight.zero(l), 0, y, 1e-8, 1e-12).passed


def test_t_law_phase_is_unimodular_and_expected():
    # l=1, lambda=0: phase = exp(pi i |pi^(I)(rho)|^2 / 3) = exp(pi i / 12)
    l = 1
    nsq = norm_sq(rho(l).project_finite("I"))
    assert nsq == Fraction(1, 4)
    phase = cmath.exp(1j * math.pi * float(Fraction(nsq, 2 * l + 1)))
    assert capprox(phase, cmath.exp(1j * math.pi / 12), 1e-15)
    assert abs(abs(phase) - 1) < 1e-15


def test_t_squared_composes_phases():
    # applying the T-law twice lands back in the same family with the
    # squared phase (Gamma_theta contains T^2)
    l, k = 1, 2
    lam = enumerate_dominant(l, k)[0]
    y = sample_points(l, 1)[0]
    m = k + 2 * l + 1
    nsq = norm_sq((lam + rho(l)).project_finite("II"))
    phase = cmath.exp(1j * math.pi * float(Fraction(nsq, m)))
    lhs = eval_anti_invariant(lam, "II", False, YPoint(y.tau + 2, y.z, y.t), 1e-12)
    rhs = phase * phase * eval_anti_invariant(lam, "II", False, y, 1e-12)
    assert capprox(lhs, rhs, 1e-9)


def test_fixed_point_self_consistency():
    # at tau = i, z = 0 the S-action fixes the point; for l = 2 the lemma
    # constant is -1, forcing the twisted type-I denominator to vanish there
    y2 = YPoint(1j, (0.0, 0.0), 0.11)
    val = eval_anti_invariant(Weight.zero(2), "I", True, y2, 1e-12)
    assert abs(val) < 1e-9
    # for l = 1 the constant is +1 and the value is nonzero
    y1 = YPoint(1j, (0.0,), 0.11)
    val1 = eval_anti_invariant(Weight.zero(1), "I", True, y1, 1e-12)
    assert abs(val1) > 1e-3


def test_props_sample():
    l, k = 1, 2
    y = sample_points(l, 1)[0]
    for prop in ("4.6", "4.7", "4.8", "4.9"):
        lam = enumerate_dominant(l, k)[1]
        assert verify_props(prop, lam, k, y, 1e-6, 1e-10, "S").passed
        assert verify_props(prop, lam, k, y, 1e-6, 1e-10, "T").passed


def test_law_verifiers_reject_foreign_names():
    l, k = 1, 2
    lam, y = enumerate_dominant(l, k)[0], sample_points(l, 1)[0]
    with pytest.raises(ValueError, match="unknown lemma '4.6'"):
        verify_S("4.6", lam, k, y)
    with pytest.raises(ValueError, match="unknown lemma '4.8'"):
        verify_T("4.8", lam, k, y)
    with pytest.raises(ValueError, match="unknown proposition '4.2'"):
        verify_props("4.2", lam, k, y)
    with pytest.raises(ValueError, match="law must be"):
        verify_props("4.6", lam, k, y, law="U")


def test_poisson():
    rep = poisson_check(1, (0.0,), 1j, 1e-10)
    assert rep.passed and abs(rep.lhs - rep.rhs) < 1e-10
    rep = poisson_check(2, (0.3, 0.1 + 0.2j), 0.4 + 1.3j, 1e-8)
    assert rep.passed


def test_sin_product():
    log_prod, log_closed = sin_product(4)
    assert abs(math.exp(log_prod) - 0.5) < 1e-14
    assert abs(math.exp(log_closed) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        sin_product(1)


@pytest.mark.parametrize("l,k", ((1, 4), (2, 2), (2, 4), (1, 6), (3, 2),
                                 (2, 6), (3, 4), (4, 2)))
def test_sl2_closure_full_gram_rank(l, k):
    # enough sample points for the 3*dim columns of the Gram stack, and the
    # closure's points keep every target and the stack well conditioned
    rep = verify_sl2_closure(l, k)
    assert rep["gram_rank"] == rep["expected_gram_rank"]
    assert rep["pass"]
    assert all(a["cond"] <= 1e3 for a in rep["arrows"])
    assert rep["gram_sigma_ratio"] >= 1e-6


# a wrong target family for every arrow: no S or T image lies in its span
_WRONG_ARROWS = (("S", "I", "I"), ("T", "II", "II"), ("S", "II", "I"),
                 ("T", "I", "psiII"), ("T", "psiI", "I"))


@pytest.mark.parametrize("l", (1, 2))
def test_sl2_closure_fails_on_wrong_arrows(l):
    # negative control: the least-squares residuals that pass the true
    # arrows at 1e-6 stay far above it on wrong ones (0.12-0.38 here)
    rep = verify_sl2_closure(l, 2, arrows=_WRONG_ARROWS, include_gram=False)
    assert rep["pass"] is False
    assert len(rep["arrows"]) == len(_WRONG_ARROWS)
    assert all(a["residual"] > 1e-2 and not a["pass"] for a in rep["arrows"])


def test_sl2_closure_fails_on_a_dependent_gram_column(monkeypatch):
    # negative control: at (1, 4), dim 3, the type-I family's third column
    # replaced by the sum of the other two drops the Gram rank below 3 dim
    chars = modular._eval_characters

    def dependent(lams, sharp, twisted, *args):
        rows = chars(lams, sharp, twisted, *args)
        if (sharp, twisted) == ("I", False):
            rows = [[a, b, a + b] for a, b, _ in rows]
        return rows
    monkeypatch.setattr(modular, "_eval_characters", dependent)
    rep = verify_sl2_closure(1, 4)
    assert rep["expected_gram_rank"] == 9
    assert rep["gram_rank"] < rep["expected_gram_rank"]
    assert rep["pass"] is False


def _count_batches(monkeypatch):
    """Record (weights, sharp, twisted) of every _eval_characters call, and
    every A_rho evaluation: an _eval_anti_invariants call on the zero
    weight alone."""
    batches, dens = [], []
    chars, antis = modular._eval_characters, modular._eval_anti_invariants

    def counting_chars(lams, sharp, twisted, *args):
        batches.append((tuple(lams), sharp, twisted))
        return chars(lams, sharp, twisted, *args)

    def counting_antis(lams, *args):
        if tuple(lams) == (Weight.zero(lams[0].rank),):
            dens.append(args)
        return antis(lams, *args)
    monkeypatch.setattr(modular, "_eval_characters", counting_chars)
    monkeypatch.setattr(modular, "_eval_anti_invariants", counting_antis)
    return batches, dens


def test_sl2_closure_samples_each_family_once(monkeypatch):
    # one batched call per sample, over the whole P_{2,+} and all 8 points:
    # 3 families and 6 arrows' transformed points, with one A_rho call each
    batches, dens = _count_batches(monkeypatch)
    assert verify_sl2_closure(1, 2)["pass"]
    assert len(batches) == 9 and len(dens) == 9
    assert {b[0] for b in batches} == {tuple(enumerate_dominant(1, 2))}


def test_psi_I_closure_samples_only_its_family(monkeypatch):
    # the psi^(I) arrows only target psiI, which is sampled once: one call
    # for it and one for each of the 2 arrows' transformed points
    batches, dens = _count_batches(monkeypatch)
    rep = verify_sl2_closure(1, 2, arrows=modular.PSI_I_ARROWS,
                             include_gram=False)
    assert rep["pass"]
    assert len(batches) == 3 and len(dens) == 3
    assert {b[0] for b in batches} == {tuple(enumerate_dominant(1, 2))}
    assert {b[1:] for b in batches} == {("I", True)}


@pytest.mark.parametrize("l,k", ((1, 2), (1, 4), (2, 2), (2, 4), (3, 2)))
def test_batched_closure_samples_match_one_point_calls(l, k):
    # a sample over all the closure's points is the one-point calls' values
    # bit for bit: each point keeps its own box and summing length
    lams = enumerate_dominant(l, k)
    points = modular._closure_points(l, max(3 * len(lams) + 2, 8))
    for sharp, twisted in modular._FAMILIES.values():
        for act in (lambda y: y, s_point, t_point):
            pts = [act(y) for y in points]
            batch = modular._eval_characters(lams, sharp, twisted, pts, 1e-10)
            one = [modular._eval_characters(lams, sharp, twisted, [y],
                                            1e-10)[0] for y in pts]
            assert batch == one, (sharp, twisted)


@pytest.mark.parametrize("budget", (modular._ROW_BUDGET, 1))
@pytest.mark.parametrize("l", (1, 2))
def test_batched_points_of_many_box_sides_match_one_point_calls(
        monkeypatch, l, budget):
    # boxes of 5 to 47 points a side: at l = 1 numpy sums a row pairwise
    # in blocks of 8, so a row padded past its point's own side would move
    # in its last bit; at a budget of 1 each block is one row of one point,
    # still summed over its point's side
    rng = random.Random(20 + l)
    pts = [YPoint(complex(rng.uniform(-0.5, 0.5), 0.5 * 0.04 ** (i / 15)),
                  tuple(complex(rng.uniform(-0.5, 0.5),
                                rng.uniform(-0.25, 0.25)) for _ in range(l)),
                  rng.uniform(-0.2, 0.2))
           for i in rng.sample(range(16), 16)]
    for k in (0, 2, 4):
        lams = enumerate_dominant(l, k)
        for sharp in ("I", "II"):
            for twisted in (False, True):
                one = [modular._eval_anti_invariants(lams, sharp, twisted,
                                                     [y], 1e-10)[0]
                       for y in pts]
                with monkeypatch.context() as m:
                    m.setattr(modular, "_ROW_BUDGET", budget)
                    batch = modular._eval_anti_invariants(
                        lams, sharp, twisted, pts, 1e-10)
                assert batch == one, (k, sharp, twisted)


def test_closure_is_blind_to_the_block_budget(monkeypatch):
    # one row per kernel block gives the same report as the default budget
    want = [repr(modular.verify_sl2(l, k)) for l, k in ((1, 2), (2, 2))]
    monkeypatch.setattr(modular, "_ROW_BUDGET", 1)
    assert [repr(modular.verify_sl2(l, k)) for l, k in ((1, 2), (2, 2))] \
        == want


@pytest.mark.parametrize("budget", (modular._ROW_BUDGET, 2 ** 12, 2 ** 8))
def test_row_sums_temporaries_stay_within_budget(monkeypatch, budget):
    # every exp the kernel takes is one of its largest temporaries; at
    # 2^12, below the 12,150 values of the closure's widest point, the blocks
    # must split the points' rows, and at 2^8 so must the rows of a
    # one-point call (the S-law at rank 2, level 12: 336 values in one)
    sizes = []
    monkeypatch.setattr(modular, "_ROW_BUDGET", budget)

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return np.exp(x, *args, **kwargs)
    monkeypatch.setattr(modular, "np", CountingNumpy())
    assert modular.verify_sl2(3, 4)[0]
    lam = enumerate_dominant(2, 12)[0]
    assert modular.verify_S("4.2", lam, 12, sample_points(2, 1)[0]).passed
    assert sizes and max(sizes) <= budget


def test_degenerate_sample_refuses_its_first_point_before_numerators(
        monkeypatch):
    # A_rho vanishes on z = 0: the first such point of a sample is refused
    # with its own tau, and no numerator of that sample is summed (the one
    # kernel call is A_rho's, one row at each of the 3 points)
    calls = []
    row_sums = modular._row_sums

    def recording(a, center, radius, *args, **kwargs):
        calls.append((len(a), len(radius)))
        return row_sums(a, center, radius, *args, **kwargs)
    monkeypatch.setattr(modular, "_row_sums", recording)
    good = sample_points(1, 1)[0]
    pts = [good, YPoint(0.1 + 1j, (0.0,), 0.0), YPoint(0.2 + 1j, (0.0,), 0.0)]
    with pytest.raises(DegeneratePointError, match=r"tau=\(0\.1\+1j\)"):
        modular._eval_characters(enumerate_dominant(1, 2), "I", False, pts,
                                 1e-10)
    assert calls == [(1, 3)]


# -- the batched kernels against the reference loops --------------------------

# The kernel sums one coordinate at a time and multiplies the sums (a
# product, or the determinant form of the anti-invariants), so it matches
# the point-by-point reference over the same box to within rounding of
# sum |terms|, not bit for bit.

@pytest.mark.parametrize("l", (1, 2, 3))
def test_anti_invariant_matches_reference(l):
    rng = random.Random(l)
    n = 0
    for k in (0, 2, 4):
        lams = enumerate_dominant(l, k)
        for sharp in ("I", "II"):
            for twisted in (False, True):
                for y in _grid_points(l, f"{l}{k}{sharp}{twisted}"):
                    lam = rng.choice(lams)
                    got = eval_anti_invariant(lam, sharp, twisted, y, 1e-10)
                    want, abs_sum = _reference_eval_anti_invariant(
                        lam, sharp, twisted, y, 1e-10)
                    assert abs(got - want) <= _rounding(abs_sum), \
                        (k, sharp, twisted, y, lam)
                    n += 1
    assert n == 60


def test_rank_4_anti_invariants_match_reference():
    # 384 orbit rows against one determinant sum, at two closure points
    for y, lam, sharp, twisted in zip(
            modular._closure_points(4, 2), enumerate_dominant(4, 2)[::4],
            ("I", "II"), (True, False)):
        got = eval_anti_invariant(lam, sharp, twisted, y, 1e-10)
        want, abs_sum = _reference_eval_anti_invariant(lam, sharp, twisted,
                                                       y, 1e-10)
        assert abs(got - want) <= _rounding(abs_sum), \
            (sharp, twisted, lam)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_eval_theta_matches_reference(l):
    # single orbits at odd and even levels, with complex t
    rng = random.Random(10 + l)
    for k in (0, 2):
        for lam in enumerate_dominant(l, k):
            base = (lam + rho(l)).canonical()
            for sharp in ("I", "II"):
                mu = finite_act(rng.choice(list(enumerate_finite(l))), base,
                                sharp)
                for y in _grid_points(l, rng.random()):
                    y = YPoint(y.tau, y.z, complex(y.t, 0.1))
                    for twisted in (False, True):
                        want, abs_sum = _reference_eval_theta(
                            mu, sharp, twisted, y, 1e-12)
                        got = eval_theta(mu, sharp, twisted, y, 1e-12)
                        assert abs(got - want) <= _both_roundings(abs_sum), \
                            (k, sharp, twisted, y, mu)


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_smatrix_entry_matches_reference(l):
    # entry by entry, as the one-row tables of the S-sums and as whole
    # tables; the reference sums the W_f phases in another order, so the
    # two agree to within the rounding of both
    for k in (2, 4) if l < 3 else (2,):
        lams = enumerate_dominant(l, k)
        for kind in ("aI", "aI_II", "aII_I", "aII"):
            table = []
            for lam in lams:
                # the lemmas feed phi-images into the mixed kinds
                rows = {first: [_reference_smatrix_entry(kind, k, first, mu)
                                for mu in lams]
                        for first in (lam, phi_involution(lam))}
                for first, want in rows.items():
                    assert _smatrix_tables_close(
                        [[smatrix_entry(kind, k, first, mu) for mu in lams]],
                        [want], l), (kind, first)
                    assert _smatrix_tables_close(modular._smatrix_rows(
                        kind, k, (first,), lams), [want], l), (kind, first)
                table.append(rows[lam])
            assert _smatrix_tables_close(smatrix(kind, k, l).entries, table,
                                         l), kind


@pytest.mark.parametrize("l,k", ((1, 2), (1, 4), (1, 6), (2, 2), (2, 4),
                                 (2, 6), (3, 2), (3, 4), (4, 2)))
def test_smatrix_rows_match_fraction_coordinates(l, k):
    # the integer coordinates give the Fraction route's floats exactly, for
    # rows lam and phi(lam) and for weights past int64
    lams = enumerate_dominant(l, k)
    firsts = lams + [phi_involution(lam) for lam in lams]
    if l == 2:
        firsts += [Weight((Fraction(2 ** 70 + 1, 3), Fraction(1, 2))),
                   Weight((Fraction(1, 2 ** 30 + 1), Fraction(1, 2)))]
    for kind in ("aI", "aI_II", "aII_I", "aII"):
        assert modular._smatrix_rows(kind, k, firsts, lams) \
            == _fraction_smatrix_rows(kind, k, firsts, lams), kind


def test_smatrix_entries_against_mpmath():
    # every entry at k = 2, ranks 1-4, within the rounding of one float sum
    # of the |W_f| unit phases, against their W_f-sum at 50 digits (the
    # signs of equal phases added first, in integers)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        phase = functools.cache(lambda r: mpmath.expjpi(
            -2 * mpmath.mpf(r.numerator) / r.denominator))
        for l in (1, 2, 3, 4):
            lams = enumerate_dominant(l, 2)
            allow = _rounding(2 ** l * math.factorial(l))
            for kind in ("aI", "aI_II", "aII_I", "aII"):
                got = smatrix(kind, 2, l).entries
                for lam, row in zip(lams, got, strict=True):
                    for mu, g in zip(lams, row, strict=True):
                        counts = collections.Counter()
                        for sgn, r in _reference_smatrix_phases(kind, 2, lam,
                                                                mu):
                            counts[r] += sgn
                        exact = mpmath.fsum(c * phase(r)
                                            for r, c in counts.items())
                        err = abs(mpmath.mpc(g.real, g.imag) - exact)
                        assert err <= allow, (l, kind, lam, mu, float(err))


@pytest.mark.parametrize("l,k", ((1, 2), (2, 4), (3, 2), (4, 2)))
def test_smatrix_unitary(l, k):
    # m^{-l/2} a^(kind) is unitary for each of the four kinds
    m = k + 2 * l + 1
    for kind in ("aI", "aI_II", "aII_I", "aII"):
        a = np.array(smatrix(kind, k, l).entries) * m ** (-l / 2)
        dev = np.abs(a @ a.conj().T - np.eye(len(a))).max()
        assert dev <= 1e-13, (kind, dev)


@pytest.mark.parametrize("l", (1, 2, 3))
def test_eval_characters_match_reference(l):
    # every weight of P_{k,+} in one call, the ratio of the reference
    # anti-invariants to within the rounding of both
    points = iter(modular._closure_points(l, 8))
    for k in (2, 4):
        lams = enumerate_dominant(l, k)
        for sharp in ("I", "II"):
            for twisted in (False, True):
                y = next(points)
                den, abs_sum = _reference_eval_anti_invariant(
                    Weight.zero(l), sharp, twisted, y, 1e-10)
                den_err = _rounding(abs_sum)
                want = []
                for lam in lams:
                    num, abs_sum = _reference_eval_anti_invariant(
                        lam, sharp, twisted, y, 1e-10)
                    # to first order, the quotient's error from those of
                    # num and den
                    want.append((num / den, (_rounding(abs_sum)
                                             + abs(num / den) * den_err)
                                 / abs(den)))
                (got,) = modular._eval_characters(lams, sharp, twisted, [y],
                                                  1e-10)
                assert all(abs(g - w) <= allow
                           for g, (w, allow) in zip(got, want, strict=True)), \
                    (k, sharp, twisted)


def test_gaussian_sums_match_reference():
    # both sides of poisson_check, and a shift and a linear term together,
    # which only the constant e^{-2 pi i <lin, shift>} of the kernel's
    # offset form brings back to the sum over m
    rng = random.Random(5)
    for l, draws in ((1, 20), (2, 20), (3, 20), (4, 5)):
        for _ in range(draws):
            a, tau = modular.poisson_args(rng, l)
            zero = (0.0,) * l
            for q, shift, lin in ((-1 / tau, a, zero), (tau, zero, a),
                                  (tau, a, a)):
                want, abs_sum = _reference_gaussian_sum(l, q, shift, lin,
                                                        1e-10)
                got = modular._gaussian_sum(l, q, shift, lin, 1e-10)
                assert abs(got - want) <= _both_roundings(abs_sum), \
                    (l, q, shift, lin)


@pytest.mark.parametrize("coord", (
    pytest.param(Fraction(2 ** 70 + 1, 3), id="numerator-past-2^62"),
    pytest.param(Fraction(1, 2 ** 30 + 1), id="modulus-past-2^53"),
))
def test_smatrix_entry_exact_past_int64(coord):
    # numerators or moduli that int64 / float64 cannot hold exactly are
    # reduced in Python ints and still match the reference
    l, k = 2, 2
    lam = Weight((coord, Fraction(1, 2)))
    mus = enumerate_dominant(l, k)
    for kind in ("aI", "aI_II", "aII_I", "aII"):
        want = [[_reference_smatrix_entry(kind, k, first, mu) for mu in mus]
                for first in (lam, mus[0])]
        got = [[smatrix_entry(kind, k, lam, mu) for mu in mus],
               # in a table, the wide weight sets every row's modulus
               *modular._smatrix_rows(kind, k, (lam,), mus),
               *modular._smatrix_rows(kind, k, (lam, mus[0]), mus)]
        assert _smatrix_tables_close(got, [want[0], want[0], *want], l), kind


# -- the tail certificate against a high-precision oracle ---------------------

def _mp_sum(mpmath, box, term):
    """(sum, sum of |terms|) of term(point) over the box, in mpmath."""
    values = [term(p) for p in box]
    return mpmath.fsum(values), mpmath.fsum(abs(v) for v in values)


def _mp_theta_term(mpmath, k, a, y, twisted):
    tau = mpmath.mpc(y.tau.real, y.tau.imag)
    z = [mpmath.mpc(c.real, c.imag) for c in y.z]
    pre = mpmath.exp(2j * mpmath.pi * k * mpmath.mpf(y.t))

    def term(gamma):
        x = [g + mpmath.mpf(ai) for g, ai in zip(gamma, a)]
        e = pre * mpmath.exp(1j * mpmath.pi * k * tau * mpmath.fsum(
            v * v for v in x) + 2j * mpmath.pi * k * mpmath.fsum(
            v * zi for v, zi in zip(x, z)))
        return -e if twisted and sum(gamma) % 2 else e
    return term


@pytest.mark.parametrize("im_tau", (1 / 8, 1 / 2, 1.0, 3.0, 8.0))
def test_theta_tail_certificate_against_mpmath(im_tau):
    # eval_theta's box leaves out less than tol (mpmath over the box vs. a
    # box of twice the radius), and the float sum over it is within tol plus
    # a rounding allowance of that wide sum
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(f"tail {im_tau}")
    tol = 1e-10
    for l in (1, 2, 3):
        for _ in range(2):
            lam = rng.choice(enumerate_dominant(l, rng.choice((0, 2))))
            sharp = rng.choice(("I", "II"))
            twisted = rng.random() < 0.5
            mu = finite_act(rng.choice(list(enumerate_finite(l))),
                            (lam + rho(l)).canonical(), sharp)
            y = YPoint(complex(rng.uniform(-0.5, 0.5), im_tau),
                       tuple(complex(rng.uniform(-0.5, 0.5),
                                     rng.uniform(-0.25, 0.25))
                             for _ in range(l)),
                       rng.uniform(-0.2, 0.2))
            k, a, center, radius = _theta_box(mu, sharp, y, tol)
            term = _mp_theta_term(mpmath, k, a, y, twisted)
            in_box, abs_sum = _mp_sum(mpmath, _reference_box(center, radius),
                                      term)
            exact, _ = _mp_sum(
                mpmath, _reference_box(center, 2 * radius + 2), term)
            assert abs(in_box - exact) <= tol
            got = eval_theta(mu, sharp, twisted, y, tol)
            err = abs(mpmath.mpc(got.real, got.imag) - exact)
            assert err <= tol + _rounding(abs_sum)


def _mp_anti_invariant(mpmath, k, a, y, sign, twisted, radius):
    """(A, sum |terms|) over x in a + Z^l with every |x_i| <= radius, in
    mpmath: the signed W_f-orbit sum, point by point in the determinant
    form, and the absolute sum of its orbit terms."""
    l = len(a)
    tau = mpmath.mpc(y.tau.real, y.tau.imag)
    z = [mpmath.mpc(c.real, c.imag) for c in y.z]
    # per coordinate and value of x_i: the entries f(x_i, z_j) and the
    # absolute values of their two orbit terms
    rows, sizes = [], []
    for ai in a:
        gammas = range(math.ceil(-radius - ai), math.floor(radius - ai) + 1)
        row, size = [], []
        for g in gammas:
            x = g + mpmath.mpf(ai)
            twist = -1 if twisted and g % 2 else 1
            gauss = 1j * mpmath.pi * k * tau * x * x
            pairs = [(mpmath.exp(gauss + 2j * mpmath.pi * k * x * zj),
                      mpmath.exp(gauss - 2j * mpmath.pi * k * x * zj))
                     for zj in z]
            row.append([twist * (p + sign * m) for p, m in pairs])
            size.append([abs(p) + abs(m) for p, m in pairs])
        rows.append(row)
        sizes.append(size)
    perms = [(p, math.prod(-1 for i in range(l) for j in range(i)
                           if p[j] > p[i]))
             for p in itertools.permutations(range(l))]
    values, abs_values = [], []
    for point in itertools.product(*(range(len(r)) for r in rows)):
        values.append(mpmath.fsum(
            sgn * mpmath.fprod(rows[i][g][p[i]] for i, g in enumerate(point))
            for p, sgn in perms))
        abs_values.append(mpmath.fsum(
            mpmath.fprod(sizes[i][g][p[i]] for i, g in enumerate(point))
            for p, _ in perms))
    pre = mpmath.exp(2j * mpmath.pi * k * mpmath.mpf(y.t))
    return pre * mpmath.fsum(values), abs(pre) * mpmath.fsum(abs_values)


@pytest.mark.parametrize("im_tau", (1 / 8, 1 / 2, 1.0, 3.0, 8.0))
def test_anti_invariant_tail_certificate_against_mpmath(im_tau):
    # the determinant form's box leaves out less than tol (mpmath over the
    # box vs. a box of twice the radius), and the float sum is within tol
    # plus a rounding allowance of the orbit terms in the box; across the
    # five values of Im tau every rank meets both numerations and twists
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(f"anti tail {im_tau}")
    tol = 1e-10
    turn = (1 / 8, 1 / 2, 1.0, 3.0, 8.0).index(im_tau)
    for l in (1, 2, 3):
        sharp, twisted = [("I", False), ("I", True), ("II", False),
                          ("II", True)][(turn + l) % 4]
        lam = rng.choice(enumerate_dominant(l, rng.choice((0, 2))))
        y = YPoint(complex(rng.uniform(-0.5, 0.5), im_tau),
                   tuple(complex(rng.uniform(-0.5, 0.5),
                                 rng.uniform(-0.25, 0.25))
                         for _ in range(l)),
                   rng.uniform(-0.2, 0.2))
        shifted = (lam + rho(l)).canonical()
        k, a, center, radius = _theta_box(
            shifted, sharp, y, tol / (2 ** l * math.factorial(l)))
        box = radius + max(abs(c - ai) for c, ai in zip(center, a))
        sign = 1 if twisted and sharp == "I" else -1
        in_box, abs_sum = _mp_anti_invariant(mpmath, k, a, y, sign, twisted,
                                             box)
        exact, _ = _mp_anti_invariant(mpmath, k, a, y, sign, twisted,
                                      2 * box + 2)
        assert abs(in_box - exact) <= tol, (l, sharp, twisted)
        got = eval_anti_invariant(lam, sharp, twisted, y, tol)
        err = abs(mpmath.mpc(got.real, got.imag) - exact)
        assert err <= tol + _rounding(abs_sum), (l, sharp, twisted)


def test_gaussian_sums_against_mpmath():
    # both sides of poisson_check at criterion 10's kind of draws
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = random.Random(11)
    tol = 1e-10
    for l in (1, 2):
        for _ in range(3):
            a, tau = modular.poisson_args(rng, l)
            zero = (0.0,) * l
            for q, shift, lin in ((-1 / tau, a, zero), (tau, zero, a)):
                center, radius = _gaussian_box(l, q, shift, lin, tol)
                qm = mpmath.mpc(q.real, q.imag)

                def term(m):
                    x = [mi + mpmath.mpc(c.real, c.imag)
                         for mi, c in zip(m, shift)]
                    return mpmath.exp(
                        1j * mpmath.pi * qm * mpmath.fsum(v * v for v in x)
                        + 2j * mpmath.pi * mpmath.fsum(
                            mpmath.mpc(li.real, li.imag) * mi
                            for li, mi in zip(lin, m)))
                _, abs_sum = _mp_sum(mpmath, _reference_box(center, radius),
                                     term)
                exact, _ = _mp_sum(
                    mpmath, _reference_box(center, 2 * radius + 2), term)
                got = modular._gaussian_sum(l, q, shift, lin, tol)
                err = abs(mpmath.mpc(got.real, got.imag) - exact)
                assert err <= tol + _rounding(abs_sum)
