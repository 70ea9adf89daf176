from fractions import Fraction

import pytest

from kacmod import superalg
from kacmod.characters import (CharacterRequest, anti_invariant, character,
                               conformal_anomaly, default_height_cap)
from kacmod.lattice import Weight, norm_sq
from kacmod.roots import (RootSystemCtx, enumerate_dominant,
                          fundamental_weights_I, positive_roots, rho)
from kacmod.superalg import (check_bracket_relations, integrable,
                             osp_action, osp_action_matrix,
                             osp_irreducible_dim, singular_indices,
                             super_character, super_denominator,
                             verma_reducible)


def test_osp_action_examples():
    lam = Fraction(6)
    assert osp_action("e", 0, lam) == []
    assert osp_action("e", 1, lam) == [(0, Fraction(6))]  # e.w_1 = lam(H) w_0
    assert osp_action("f", 2, lam) == [(3, Fraction(3))]  # f.w_2 = 3 w_3
    assert osp_action("H", 5, lam) == [(5, Fraction(-4))]
    assert osp_action("e", 2, lam) == [(1, Fraction(-1))]
    with pytest.raises(ValueError):
        osp_action("e", -1, lam)
    with pytest.raises(ValueError):
        osp_action("x", 0, lam)


def test_bracket_relations_exact():
    for lam in (Fraction(0), Fraction(2), Fraction(-1), Fraction(1, 2),
                Fraction(11, 4)):
        assert check_bracket_relations(lam, 20) == []


def test_bracket_check_reports_a_wrong_coefficient(monkeypatch):
    coeff = superalg._coeff

    def wrong(g, i, lam):
        c = coeff(g, i, lam)
        return c + 1 if (g, i) == ("e", 3) else c

    monkeypatch.setattr(superalg, "_coeff", wrong)
    bad = check_bracket_relations(Fraction(2), 8)
    assert ("e", "f") in {(g1, g2) for g1, g2, *_ in bad}
    assert {i for _, _, i, _, _ in bad} <= {1, 2, 3, 4, 5}


def test_bracket_check_reports_disagreeing_shifts(monkeypatch):
    # [e, f] w_0 = lambda(H) w_0 = 0 and E w_0 = 0 at lambda(H) = 0: equal
    # coefficients, but on w_0 and w_{-2}
    monkeypatch.setattr(superalg, "BRACKET_RELATIONS", (("e", "f", "E", 1),))
    assert check_bracket_relations(Fraction(0), 0) == [
        ("e", "f", 0, (0, 0), (-2, 0))]


def test_irreducible_dims_odd():
    dims = [osp_irreducible_dim(N) for N in range(11)]
    assert dims == [2 * N + 1 for N in range(11)]
    assert all(d % 2 == 1 for d in dims)


def test_reducibility_criterion():
    # reducible iff lambda(H) is a nonnegative even integer
    for lam in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3)):
        assert not verma_reducible(lam)
    for lam in (Fraction(0), Fraction(2), Fraction(8)):
        assert verma_reducible(lam)
        assert singular_indices(lam, int(lam) + 3) == [int(lam) + 1]


def test_action_matrix_window():
    mat = osp_action_matrix("f", Fraction(4), 3)
    assert mat[1][0] == 1 and mat[2][1] == 2 and mat[3][2] == 3
    assert mat[0][0] == 0


def test_super_positive_roots_long_family():
    # at rank 1 the root n delta + c eps_1 has height vector (n, 2n + c)
    roots = list(positive_roots(1, 3, 30, super_=True))
    longs = [vec for vec, mult, par in roots
             if par == "even" and abs(vec[1] - 2 * vec[0]) == 2]
    deltas = sorted(vec[0] for vec in longs)
    assert deltas == [0, 1, 1, 2, 2, 3, 3]  # 2eps_1 + n delta, -2eps_1 + n delta


def test_integrable():
    l = 2
    fw = fundamental_weights_I(l)
    assert integrable(fw[l].scale(2))
    assert not integrable(fw[l])  # level 1
    assert integrable(Weight.zero(l))
    assert not integrable(-fw[0])


def test_super_denominator_matches_twisted_route():
    for l in (1, 2):
        hc = default_height_cap(l, 0, 6)
        sd = super_denominator(l, 6, hc)
        anti = anti_invariant(Weight.zero(l), "I", True, 6, hc)
        shifted = anti.shift_apex_delta(norm_sq(rho(l)) / (2 * (2 * l + 1)))
        assert sd == shifted


def test_super_character_trivial():
    s = super_character(Weight.zero(1), 8)
    assert s.terms == {(0, 0): 1} and s.apex == Weight.zero(1)


def test_super_character_rejects_non_integrable():
    with pytest.raises(ValueError):
        super_character(fundamental_weights_I(1)[1], 4)  # level 1


def test_super_character_equals_twisted_character():
    l = 1
    ctx = RootSystemCtx.build(l)
    for lam in enumerate_dominant(l, 2):
        sch = super_character(lam, 8)
        tw = character(CharacterRequest(ctx, lam, 2, "I", True, 8),
                       height_cap=sch.height_cap)
        assert sch == tw.shift_apex_delta(conformal_anomaly(lam))


def test_super_character_signs_follow_parity():
    # sch coefficients are (-1)^(parity of the offset) times the dimensions
    l = 1
    ctx = RootSystemCtx.build(l)
    lam = enumerate_dominant(l, 2)[0]
    sch = super_character(lam, 6)
    ch = character(CharacterRequest(ctx, lam, 2, "I", False, 6),
                   height_cap=sch.height_cap)
    for vec, c in sch.terms.items():
        dim = ch.terms[vec]
        sign = -1 if vec[-1] % 2 else 1
        assert c == sign * dim
        assert abs(c) <= dim
