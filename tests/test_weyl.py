from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmod.lattice import Weight, inner
from kacmod.roots import simple_roots_I
from kacmod.weyl import (AffineWeylElement, FiniteWeylElement,
                         affine_from_action, enumerate_finite,
                         enumerate_ker_psi_finite, epsilon, psi, reflection,
                         simple_reflection, translate)
from kacmod.roots import positive_roots, root_coords

from conftest import weights


def affine_elements(l):
    perms = st.permutations(range(l))
    signs = st.lists(st.sampled_from((1, -1)), min_size=l, max_size=l)
    trans = st.lists(st.integers(-3, 3), min_size=l, max_size=l)
    return st.builds(
        lambda p, s, g: AffineWeylElement(FiniteWeylElement(tuple(p), tuple(s)),
                                          tuple(g)),
        perms, signs, trans)


def test_translation_of_basic_weight():
    # t_{eps_1}(Lambda0) = Lambda0 + 2 eps_1 - delta (level-2 weight)
    l = 2
    got = translate((1, 0), Weight.lambda0_I(l))
    assert got == Weight.lambda0_I(l) + Weight.eps_basis(l, 1).scale(2) \
        - Weight.delta_weight(l)


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2), weights(2))
@settings(max_examples=50)
def test_translations_compose_additively(g1, g2, w):
    assert translate(g1, translate(g2, w)) == \
        translate([a + b for a, b in zip(g1, g2)], w)


def test_affine_reflection_identity():
    # s_{delta-beta} s_beta = t_{beta^vee} for beta = 2 eps_1
    l = 2
    beta = Weight.eps_basis(l, 1).scale(2)
    d = Weight.delta_weight(l)
    w = reflection(l, d - beta).compose(reflection(l, beta))
    t = AffineWeylElement.translation_by((1, 0))  # beta^vee = eps_1
    probe = Weight((Fraction(1, 2), Fraction(3)), Fraction(1, 4), Fraction(2))
    assert w.act(probe) == t.act(probe)
    assert w.finite == t.finite and w.translation == t.translation


@given(affine_elements(2), weights(2), weights(2))
@settings(max_examples=50)
def test_action_is_isometry(w, a, b):
    assert inner(w.act(a), w.act(b)) == inner(a, b)


@given(affine_elements(2), affine_elements(2))
@settings(max_examples=60)
def test_characters_are_homomorphisms(w1, w2):
    w = w1.compose(w2)
    assert epsilon(w) == epsilon(w1) * epsilon(w2)
    assert psi(w) == psi(w1) * psi(w2)


@given(affine_elements(2), affine_elements(2), weights(2))
@settings(max_examples=50)
def test_compose_is_action_composition(w1, w2, v):
    assert w1.compose(w2).act(v) == w1.act(w2.act(v))


@given(affine_elements(2), weights(2))
@settings(max_examples=40)
def test_inverse(w, v):
    assert w.inverse().act(w.act(v)) == v


def test_sign_characters_on_generators():
    for l in (1, 2, 3):
        assert epsilon(AffineWeylElement.identity(l)) == 1
        assert psi(AffineWeylElement.identity(l)) == 1
        for i in range(l + 1):
            s = simple_reflection(l, i)
            assert epsilon(s) == -1
            assert psi(s) == (-1 if i == l else 1)
    assert psi(AffineWeylElement.translation_by((1, 0))) == -1
    assert psi(AffineWeylElement.translation_by((1, 1))) == 1


@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=30)
def test_translations_have_trivial_epsilon(g):
    assert epsilon(AffineWeylElement.translation_by(tuple(g))) == 1


def test_enumeration_counts():
    assert len(list(enumerate_finite(1))) == 2
    assert len(list(enumerate_finite(2))) == 8
    assert len(list(enumerate_finite(3))) == 48
    assert len(list(enumerate_ker_psi_finite(1))) == 1
    ker = list(enumerate_ker_psi_finite(2))
    assert len(ker) == 4
    assert all(psi(AffineWeylElement.from_finite(u)) == 1 for u in ker)
    with pytest.raises(ValueError):
        list(enumerate_finite(7))


def test_psi_factors_through_root_lattice_parity():
    # psi(s_beta) = (-1)^(alpha_l coefficient of beta) for real roots
    from kacmod.roots import classify

    for l in (1, 2):
        for beta, mult, _ in positive_roots(l, height_cap=3):
            if classify(beta).length_class == "imaginary":
                continue
            s = reflection(l, beta)
            par = root_coords(beta)[-1] % 2
            assert psi(s) == (-1 if par else 1), beta


@given(affine_elements(2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
@settings(max_examples=50)
def test_conjugation_of_translations(w, mu):
    lhs = w.compose(AffineWeylElement.translation_by(tuple(mu))).compose(w.inverse())
    mu_img = w.finite.apply_vec(tuple(mu))
    rhs = AffineWeylElement.translation_by(mu_img)
    assert lhs.finite == rhs.finite and lhs.translation == rhs.translation


def test_type_II_group_in_ker_psi():
    for l in (1, 2):
        for u in enumerate_finite(l, "II"):
            aff = affine_from_action(l, lambda v, u=u: u.act(v, "II"))
            assert psi(aff) == 1
        # ... whereas W_f^(I) is not contained in Ker psi
        assert any(psi(AffineWeylElement.from_finite(u)) == -1
                   for u in enumerate_finite(l, "I"))
