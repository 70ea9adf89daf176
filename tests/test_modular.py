import cmath
import math
from fractions import Fraction

import pytest

from kacmod import modular
from kacmod.characters import (CharacterRequest, anti_invariant, character,
                               theta_formal)
from kacmod.lattice import Weight, norm_sq
from kacmod.modular import (DegeneratePointError, S_MAT, T_MAT, YPoint,
                            default_sample, eval_anti_invariant,
                            eval_character, eval_qseries, eval_theta,
                            point_to_weight, poisson_check, pr, sample_points,
                            sin_product, sl2_act, smatrix, smatrix_entry,
                            smatrix_entry_via_ker_psi, transition, verify_S,
                            verify_T, verify_props, verify_sl2_closure,
                            weight_to_point)
from kacmod.roots import (enumerate_dominant, from_dynkin_labels,
                          phi_involution, rho)

TOL = 1e-12


def capprox(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_sl2_examples():
    y = YPoint(0.3 + 1.2j, (0.1 + 0.2j, -0.4j), 0.07)
    ty = sl2_act(T_MAT, y)
    assert ty.tau == y.tau + 1 and ty.z == y.z and ty.t == y.t
    iy = sl2_act(((1, 0), (0, 1)), y)
    assert iy == y
    fix = sl2_act(S_MAT, YPoint(1j, (0.0,), 0.0))
    assert capprox(fix.tau, 1j) and capprox(fix.z[0], 0) and capprox(fix.t, 0)
    with pytest.raises(ValueError):
        sl2_act(((2, 0), (0, 1)), y)


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
    bad = point_to_weight("I", y).scale(-1)
    with pytest.raises(ValueError):
        weight_to_point("I", bad)


def test_pr_coefficients():
    y = YPoint(0.5 + 1.1j, (0.25 - 0.3j, 0.4 + 0.05j), 0.6)
    p = pr("I", y)
    for i, zi in enumerate(y.z):
        assert capprox(p.eps[i], 2j * math.pi * zi, TOL)
    assert capprox(complex(p.lambda0), 0, TOL)
    # pr vanishes at z = 0
    p0 = pr("I", YPoint(1j, (0.0, 0.0), 0.3))
    assert all(abs(c) < TOL for c in p0.eps)
    # |pr^(II)|^2 = (2 pi i)^2 sum z_i^2 as well
    p2 = pr("II", y)
    got = complex(norm_sq(p2))
    want = (2j * math.pi) ** 2 * sum(c * c for c in y.z)
    assert capprox(got, want, 1e-10)
    # under the transition map, the type-I square norm picks up the basis
    # shift: |pr^(I)(transition y)|^2 = (2 pi i)^2 sum (z_i + tau/2)^2
    got_t = complex(norm_sq(pr("I", transition(y))))
    want_t = (2j * math.pi) ** 2 * sum((c + y.tau / 2) ** 2 for c in y.z)
    assert capprox(got_t, want_t, 1e-10)


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
    y = default_sample(2)
    rough = eval_theta(lam, "I", False, y, 1e-6)
    fine = eval_theta(lam, "I", False, y, 1e-14)
    assert abs(rough - fine) < 1e-6


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
                                      default_sample(1), 1e-12))
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
        y = default_sample(l)
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
    y = default_sample(l)
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
    y = default_sample(l)
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
    lam, y = enumerate_dominant(l, k)[0], default_sample(l)
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
    prod, closed = sin_product(4)
    assert abs(prod - 0.5) < 1e-14 and closed == 0.5
    with pytest.raises(ValueError):
        sin_product(1)


@pytest.mark.parametrize("l,k", ((1, 4), (2, 2)))
def test_sl2_closure_full_gram_rank(l, k):
    # enough sample points for the 3*dim columns of the Gram stack
    rep = verify_sl2_closure(l, k)
    assert rep["gram_rank"] == rep["expected_gram_rank"]
    assert rep["pass"]


def test_sl2_closure_reuses_the_probe(monkeypatch):
    # the conditioning probe is the family-II sample: 8 points x 2 weights
    # for it and the two other families, and 6 arrows x 16 transformed
    calls = []
    real = modular.eval_character

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(modular, "eval_character", counting)
    assert verify_sl2_closure(1, 2)["pass"]
    assert len(calls) == 144
