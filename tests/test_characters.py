import itertools
from fractions import Fraction

import pytest

import kacmod.qseries as qs
from kacmod.characters import (CharacterRequest, _accumulate_theta,
                               anti_invariant, character,
                               check_denominator_identity, conformal_anomaly,
                               denominator_product, is_dominant,
                               theta_formal, verma_character)
from kacmod.lattice import Weight, level, norm_sq
from kacmod.qseries import QSeries
from kacmod.roots import (RootSystemCtx, enumerate_dominant,
                          from_dynkin_labels, positive_roots, rho,
                          root_coords, simple_roots_I)
from kacmod.weyl import enumerate_finite, translate


def test_theta_small_expansion():
    # level-2 orbit of Lambda_0 at l=1: q^0 term e^lam, q^1 terms e^{lam+-2eps_1}
    lam = Weight.lambda0_I(1)
    th = theta_formal(lam, "I", False, 3)
    assert th.apex == Weight((Fraction(0),), Fraction(0), Fraction(1))
    by_q = {}
    for vec, c in th.terms.items():
        by_q.setdefault(vec[0], []).append((th.weight_of(vec), c))
    assert by_q[0] == [(lam, 1)]
    d = Weight.delta_weight(1)
    q1 = dict(by_q[1])
    assert q1 == {lam + Weight.eps_basis(1, 1).scale(2) - d: 1,
                  lam - Weight.eps_basis(1, 1).scale(2) - d: 1}


def test_theta_twisted_signs():
    lam = Weight.lambda0_I(1)
    th = theta_formal(lam, "I", True, 3)
    q1 = {vec: c for vec, c in th.terms.items() if vec[0] == 1}
    assert set(q1.values()) == {-1}
    assert th.terms[(0, 0)] == 1


def test_theta_translation_invariance():
    # theta depends on lambda only modulo k M + C delta
    lam = Weight.lambda0_I(2)
    shifted = translate((1, -2), lam)  # t_gamma(lam), level 2, k*gamma shift
    assert theta_formal(lam, "I", False, 5) == theta_formal(shifted, "I", False, 5)
    assert theta_formal(lam, "I", False, 5) == theta_formal(lam, "II", False, 5)


def test_theta_rejects_level_zero():
    with pytest.raises(ValueError):
        theta_formal(Weight.zero(1), "I", False, 4)


def test_anti_invariant_sharp_independence():
    for l in (1, 2):
        for lam_labels in ((0,) * l + (2,), (1,) + (0,) * l):
            lam = from_dynkin_labels(l, lam_labels)
            for tw in (False, True):
                a1 = anti_invariant(lam, "I", tw, 6, None)
                a2 = anti_invariant(lam, "II", tw, 6, None)
                assert a1 == a2, (l, lam_labels, tw)


def test_anti_invariant_antisymmetry():
    # summing over cosets u0*u multiplies the series by eps(u0)
    l = 2
    base = rho(l)
    m = 2 * l + 1
    apex = Weight(base.eps, -norm_sq(base) / (2 * m), base.lambda0)
    plain = QSeries(l, apex, {}, None, 5)
    for u in enumerate_finite(l, "I"):
        _accumulate_theta(plain, u.apply_vec(base.eps), m, u.det(), False)
    for u0 in enumerate_finite(l, "I"):
        twisted_order = QSeries(l, apex, {}, None, 5)
        for u in enumerate_finite(l, "I"):
            v = u0.compose(u)
            _accumulate_theta(twisted_order, v.apply_vec(base.eps), m,
                              u.det(), False)
        assert twisted_order == qs.scalar_mul(u0.det(), plain)


def test_anti_invariant_requires_dominant():
    l = 1
    lam = from_dynkin_labels(l, (1, 0)) - Weight.eps_basis(l, 1)
    assert not is_dominant(lam)
    with pytest.raises(ValueError):
        anti_invariant(lam, "I", False, 4)
    with pytest.raises(ValueError):
        anti_invariant(from_dynkin_labels(l, (0, 1)), "I", False, 4)  # odd level


def test_denominator_identity_small():
    for l in (1, 2):
        for tw in (False, True):
            rep = check_denominator_identity(l, 8, tw)
            assert rep["equal"], (l, tw)


def test_denominator_negative_control():
    # dropping a factor is detected together with the offending q-degree
    l = 1
    anti = anti_invariant(Weight.zero(l), "I", False, 6, None)
    prod = denominator_product(l, False, 6, None)
    extra = qs.binomial_factor(Weight.delta_weight(l), -1, None, 6)
    rep = qs.diff_report(anti, qs.mul(prod, extra))
    assert not rep["equal"]
    assert rep["first_mismatch_q"] == 1


def test_remark_products_match_anti_invariants():
    # the explicit product displays equal A_rho and A^psi_rho to depth 5
    for tw in (False, True):
        assert denominator_product(1, tw, 5, None) == \
            anti_invariant(Weight.zero(1), "I", tw, 5, None)


def _kostant_partitions(l, target_vec, roots):
    """Count multisets of positive roots (with multiplicity) summing to the
    target height vector; brute force."""
    roots = [r for r in roots if all(a <= b for a, b in zip(r, target_vec))]

    def rec(idx, remaining):
        if all(v == 0 for v in remaining):
            return 1
        if idx == len(roots):
            return 0
        r = roots[idx]
        total = 0
        reps = 0
        cur = remaining
        while all(v >= 0 for v in cur):
            total += rec(idx + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, r))
            reps += 1
        return total

    return rec(0, target_vec)


def test_verma_character_against_partition_oracle():
    l = 1
    Lam = Weight.lambda0_I(l)
    depth = 5
    v = verma_character(Lam, depth)
    assert v.terms[(0, 0)] == 1
    for i, alpha in enumerate(simple_roots_I(l)):
        vec = tuple(1 if j == i else 0 for j in range(l + 1))
        assert v.terms[vec] == 1
    # oracle: the coefficient at height vector n is the number of multisets
    # of positive roots summing to sum n_i alpha_i (imaginary roots counted
    # with multiplicity l)
    roots = []
    for w, mult, _ in positive_roots(l, height_cap=depth):
        roots.extend([root_coords(w)] * mult)
    for vec in itertools.product(range(depth + 1), repeat=l + 1):
        if sum(vec) > depth:
            continue
        assert v.terms.get(vec, 0) == _kostant_partitions(l, vec, roots), vec
    # the frozen value from the oracle: coefficient of e^{Lambda - 2 alpha_1}
    assert v.terms[(0, 2)] == 1


def test_verma_character_rank2_spot():
    Lam = from_dynkin_labels(2, (0, 0, 2))
    v = verma_character(Lam, 3)
    roots = []
    for w, mult, _ in positive_roots(2, height_cap=3):
        roots.extend([root_coords(w)] * mult)
    for vec in itertools.product(range(4), repeat=3):
        if sum(vec) > 3:
            continue
        assert v.terms.get(vec, 0) == _kostant_partitions(2, vec, roots), vec


def test_conformal_anomaly():
    assert conformal_anomaly(Weight.zero(2)) == 0
    assert conformal_anomaly(Weight.lambda0_I(1)) == Fraction(-1, 60)
    lam = from_dynkin_labels(2, (0, 1, 0))
    shifted = lam + Weight.delta_weight(2).scale(Fraction(5, 3))
    assert conformal_anomaly(lam) == conformal_anomaly(shifted)


def test_character_trivial():
    for l in (1, 2):
        req = CharacterRequest(RootSystemCtx.build(l), Weight.zero(l), 0,
                               "I", False, 10)
        ch = character(req)
        assert ch.terms == {(0,) * (l + 1): 1}
        assert ch.apex == Weight.zero(l)


def test_character_division_round_trip():
    l = 1
    ctx = RootSystemCtx.build(l)
    for lam in enumerate_dominant(l, 2):
        for tw in (False, True):
            req = CharacterRequest(ctx, lam, 2, "I", tw, 8)
            ch = character(req)
            den = anti_invariant(Weight.zero(l), "I", tw, 8, ch.height_cap)
            num = anti_invariant(lam, "I", tw, 8, ch.height_cap)
            assert qs.mul(ch, den) == num


def test_character_weyl_invariant_slices():
    l = 2
    ctx = RootSystemCtx.build(l)
    lam = enumerate_dominant(l, 2)[1]
    ch = character(CharacterRequest(ctx, lam, 2, "I", False, 6))
    gens = list(enumerate_finite(l, "I"))
    for vec, c in ch.terms.items():
        w = ch.weight_of(vec)
        for u in gens:
            assert ch.coefficient(u.act(w, "I")) == c


def test_twisted_coefficients_bounded_by_untwisted():
    for l in (1, 2):
        ctx = RootSystemCtx.build(l)
        for lam in enumerate_dominant(l, 2):
            ch = character(CharacterRequest(ctx, lam, 2, "I", False, 6))
            tw = character(CharacterRequest(ctx, lam, 2, "I", True, 6),
                           height_cap=ch.height_cap)
            assert set(tw.terms) <= set(ch.terms)
            for vec, c in tw.terms.items():
                assert abs(c) <= ch.terms[vec]


def test_twist_flag_flips_signs_only():
    lam = Weight.lambda0_I(1)
    plain = theta_formal(lam, "I", False, 6)
    tw = theta_formal(lam, "I", True, 6)
    assert set(plain.terms) == set(tw.terms)
    assert all(abs(c) == abs(tw.terms[v]) for v, c in plain.terms.items())
    assert any(c != tw.terms[v] for v, c in plain.terms.items())
