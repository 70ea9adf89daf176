import itertools
import math
from fractions import Fraction

import pytest

from kacmod import superalg
from kacmod.characters import (CharacterRequest, anti_invariant, character,
                               conformal_anomaly, default_height_cap,
                               theta_height_bound)
from kacmod.lattice import Weight, level, norm_sq
from kacmod.qseries import QSeries
from kacmod.roots import (RootSystemCtx, enumerate_dominant,
                          fundamental_weights_I, positive_roots, rho,
                          root_coords)
from kacmod.superalg import (check_bracket_relations, check_super_character,
                             osp_action, osp_action_matrix,
                             osp_irreducible_dim, singular_indices,
                             super_character, super_denominator,
                             verma_reducible)
from kacmod.weyl import enumerate_finite

import test_weyl
from test_weyl import AffineWeylElement, epsilon, psi


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
    # the super and theta routes share one check, dominant of even level:
    # a level-1 weight and a non-dominant one are refused by both
    l = 2
    fw = fundamental_weights_I(l)
    for build in (anti_invariant, super_character):
        for lam in (fw[l].scale(2), Weight.zero(l)):
            assert build(lam, depth=2).terms
        with pytest.raises(ValueError, match="even nonnegative level"):
            build(fw[l], depth=2)  # level 1
        with pytest.raises(ValueError, match="not dominant"):
            build(-fw[0], depth=2)


def test_super_denominator_matches_twisted_route():
    for l in (1, 2):
        hc = default_height_cap(l, 0, 6)
        sd = super_denominator(l, 6)
        assert sd.height_cap == hc
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


def test_check_super_character_reads_rank_and_level_from_lambda():
    lam = enumerate_dominant(2, 4)[3]
    assert check_super_character(lam, 4) == {
        "rank": 2, "pass": True, "terms": len(super_character(lam, 4).terms)}


# -- the psi-weighted W-sum against a loop over affine Weyl elements ---------

def _reference_psi_weyl_sum(l, base, height_cap, depth):
    """sum_w epsilon(w) psi(w) e^{w(base)} with one AffineWeylElement per
    pair (u, gamma) over the same box of translations, each acting on base
    and signed by the characters of test_weyl."""
    m = int(level(base))
    out = QSeries(l, base, {}, height_cap, depth)
    nsq = float(norm_sq(base.project_finite("I")))
    rad = math.sqrt(nsq + 2 * m * depth) + 1.0
    ranges = [range(math.ceil((-rad - float(c)) / m),
                    math.floor((rad - float(c)) / m) + 1) for c in base.eps]
    for u in enumerate_finite(l):
        for g in itertools.product(*ranges):
            w = AffineWeylElement(u, g)
            off = root_coords(base - w.act(base))
            assert off is not None and min(off) >= 0
            out.add_term(off, epsilon(w) * psi(w))
    return out


def _weyl_sum_args(lam, depth):
    """(l, base, height_cap, depth) as super_character passes them."""
    l = lam.rank
    height_cap = theta_height_bound(l, int(level(lam)) + 2 * l + 1,
                                    norm_sq(lam + rho(l)), depth)
    return l, (lam + rho(l)).canonical(), height_cap, depth


@pytest.mark.parametrize("l,depths", [(1, (4, 8)), (2, (3, 6)), (3, (2, 4)),
                                      (4, (1, 2))])
def test_psi_weyl_sum_matches_affine_elements(l, depths):
    for k in (0, 2, 4):
        for lam in enumerate_dominant(l, k):
            for depth in depths:
                args = _weyl_sum_args(lam, depth)
                got = superalg._psi_weyl_sum(*args)
                want = _reference_psi_weyl_sum(*args)
                assert got == want
                # the same terms in the same order, so products agree too
                assert list(got.terms.items()) == list(want.terms.items())


def test_psi_weyl_sum_matches_affine_elements_at_rank_5():
    args = _weyl_sum_args(enumerate_dominant(5, 2)[-1], 1)
    assert superalg._psi_weyl_sum(*args) == _reference_psi_weyl_sum(*args)


def test_psi_weyl_sum_translates_once_per_translation(monkeypatch):
    calls = {"superalg": [], "test_weyl": []}

    def counting(module):
        translate = getattr(module, "translate")

        def counted(gamma, w):
            calls[module.__name__.rsplit(".", 1)[-1]].append(tuple(gamma))
            return translate(gamma, w)
        return counted

    for module in (superalg, test_weyl):
        monkeypatch.setattr(module, "translate", counting(module))
    args = _weyl_sum_args(enumerate_dominant(3, 2)[-1], 3)
    assert superalg._psi_weyl_sum(*args) == _reference_psi_weyl_sum(*args)
    new, old = calls["superalg"], calls["test_weyl"]
    # the element-wise loop translates once per pair (u, gamma); the sum
    # translates each gamma of the same box once
    assert len(new) == len(set(new)) == len(set(old)) > 1
    assert len(old) == len(new) * len(list(enumerate_finite(3)))
