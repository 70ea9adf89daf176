from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmod.lattice import Weight, inner, phi_involution
from kacmod.roots import from_root_coords, positive_roots, simple_roots_I
from kacmod.weyl import FiniteWeylElement, enumerate_finite, translate

from conftest import coroot, weights
from test_roots import classify


# -- the affine Weyl group W = W_f ltimes t(M) element by element, with the
# -- sign characters epsilon and psi; superalg's psi-weighted W-sum, which
# -- splits each sign into a u-part and a gamma-part, is checked against a
# -- loop over these elements in test_superalg

@dataclass(frozen=True)
class AffineWeylElement:
    """u . t_gamma in type-I semidirect coordinates (u, gamma), gamma in the
    lattice M^(I) = Z eps_1 + .. + Z eps_l."""

    finite: FiniteWeylElement
    translation: tuple

    def act(self, w: Weight) -> Weight:
        return self.finite.act(translate(self.translation, w))


def epsilon(w: AffineWeylElement) -> int:
    """Sign character (-1)^length; det of the signed permutation part."""
    return w.finite.det()


def psi(w: AffineWeylElement) -> int:
    """The nice map: psi(s_{alpha_i^(I)}) = 1 for i < l and -1 for i = l.

    Closed form on semidirect coordinates: parity of the number of negative
    signs of u times parity of the translation coordinate sum."""
    s = w.finite.neg_count() + sum(w.translation)
    return -1 if s % 2 else 1


# -- the affine group law: scaffolding for checking that epsilon and psi are
# -- homomorphisms and that the action is one

def finite_identity(l):
    return FiniteWeylElement(tuple(range(l)), (1,) * l)


def finite_compose(u, v):
    """u o v."""
    perm = tuple(u.perm[v.perm[i]] for i in range(u.rank))
    signs = tuple(v.signs[i] * u.signs[v.perm[i]] for i in range(u.rank))
    return FiniteWeylElement(perm, signs)


def finite_reflection(l, root: Weight) -> FiniteWeylElement:
    """s_beta for a finite type-I root beta, as a signed permutation of the
    eps coordinates."""
    if root.delta != 0 or root.lambda0 != 0:
        raise ValueError("not a finite type-I root")
    nz = [(i, Fraction(c)) for i, c in enumerate(root.eps) if c != 0]
    perm = list(range(l))
    signs = [1] * l
    if len(nz) == 1:
        signs[nz[0][0]] = -1
    elif len(nz) == 2:
        # eps_i - eps_j reflects by a plain transposition; eps_i + eps_j by a
        # transposition with both signs flipped
        (i, ci), (j, cj) = nz
        if abs(ci) != abs(cj):
            raise ValueError("not proportional to a finite root")
        perm[i], perm[j] = j, i
        if ci * cj > 0:
            signs[i] = signs[j] = -1
    else:
        raise ValueError("not a rank-1 reflection datum")
    return FiniteWeylElement(tuple(perm), tuple(signs))


def finite_act(u, w: Weight, sharp) -> Weight:
    """u in W_f^(sharp) acting on w: a signed permutation of the type-I
    coordinates, or of the type-II ones, phi u phi (phi carries the type-I
    coordinates to the type-II ones and back)."""
    if sharp == "I":
        return u.act(w)
    return phi_involution(u.act(phi_involution(w)))


def enumerate_ker_psi_finite(l):
    """W_{f;m}^(I) = W_f^(I) cap Ker psi: even number of negative signs."""
    for u in enumerate_finite(l):
        if u.neg_count() % 2 == 0:
            yield u


def finite_inverse(u):
    perm = [0] * u.rank
    signs = [1] * u.rank
    for i in range(u.rank):
        perm[u.perm[i]] = i
        signs[u.perm[i]] = u.signs[i]
    return FiniteWeylElement(tuple(perm), tuple(signs))


def identity(l):
    return AffineWeylElement(finite_identity(l), (0,) * l)


def from_finite(u):
    return AffineWeylElement(u, (0,) * u.rank)


def translation_by(gamma):
    return AffineWeylElement(finite_identity(len(gamma)), tuple(gamma))


def compose(w1, w2):
    """(u, g)(u', g') = (u u', u'^{-1}(g) + g')."""
    g = finite_inverse(w2.finite).apply_vec(w1.translation)
    return AffineWeylElement(
        finite_compose(w1.finite, w2.finite),
        tuple(a + b for a, b in zip(g, w2.translation)))


def inverse(w):
    g = w.finite.apply_vec(tuple(-x for x in w.translation))
    return AffineWeylElement(finite_inverse(w.finite), g)


def reflect_weight(beta: Weight, v: Weight) -> Weight:
    """s_beta(v) = v - (v, beta^vee) beta, for any non-isotropic beta."""
    return v - beta.scale(inner(v, coroot(beta)))


def _semidirect(l, u, action):
    """(u, gamma) with action(Lambda0) = Lambda0 + 2 u(gamma) - |gamma|^2
    delta."""
    lam0 = Weight.lambda0_I(l)
    diff = action(lam0) - lam0
    gamma_img = tuple(Fraction(c, 2) for c in diff.eps)
    gamma = finite_inverse(u).apply_vec(gamma_img)
    if any(Fraction(g).denominator != 1 for g in gamma):
        raise ValueError("not an element of W in type-I coordinates")
    return AffineWeylElement(u, tuple(int(g) for g in gamma))


def reflection(l, beta: Weight) -> AffineWeylElement:
    """s_beta for a non-isotropic beta = b_f + n*delta whose reflection lies
    in W (b_f proportional to a finite root), in type-I semidirect
    coordinates.  Decomposed via the action on Lambda0."""
    if beta.lambda0 != 0:
        raise ValueError("reflection vector must lie in F")
    if all(c == 0 for c in beta.eps):
        raise ValueError("reflection requires a non-isotropic vector")
    u = finite_reflection(l, Weight(beta.eps))
    return _semidirect(l, u, lambda v: reflect_weight(beta, v))


def affine_from_action(l, action) -> AffineWeylElement:
    """Recover type-I semidirect coordinates of a W-element given as a map
    Weight -> Weight (must fix delta and permute the structure)."""
    imgs = [action(Weight.eps_basis(l, i)) for i in range(1, l + 1)]
    perm = [None] * l
    signs = [1] * l
    for i, img in enumerate(imgs):
        nz = [(j, c) for j, c in enumerate(img.eps) if c != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError("action is not signed-permutation-like on eps")
        perm[i] = nz[0][0]
        signs[i] = 1 if nz[0][1] > 0 else -1
    return _semidirect(l, FiniteWeylElement(tuple(perm), tuple(signs)), action)


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
    w = compose(reflection(l, d - beta), reflection(l, beta))
    t = translation_by((1, 0))  # beta^vee = eps_1
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
    w = compose(w1, w2)
    assert epsilon(w) == epsilon(w1) * epsilon(w2)
    assert psi(w) == psi(w1) * psi(w2)


@given(affine_elements(2), affine_elements(2), weights(2))
@settings(max_examples=50)
def test_compose_is_action_composition(w1, w2, v):
    assert compose(w1, w2).act(v) == w1.act(w2.act(v))


@given(affine_elements(2), weights(2))
@settings(max_examples=40)
def test_inverse(w, v):
    assert inverse(w).act(w.act(v)) == v


def test_sign_characters_on_generators():
    for l in (1, 2, 3):
        assert epsilon(identity(l)) == 1
        assert psi(identity(l)) == 1
        for i, alpha in enumerate(simple_roots_I(l)):
            s = reflection(l, alpha)
            assert epsilon(s) == -1
            assert psi(s) == (-1 if i == l else 1)
    assert psi(translation_by((1, 0))) == -1
    assert psi(translation_by((1, 1))) == 1


@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=30)
def test_translations_have_trivial_epsilon(g):
    assert epsilon(translation_by(tuple(g))) == 1


def test_enumeration_counts():
    assert len(list(enumerate_finite(1))) == 2
    assert len(list(enumerate_finite(2))) == 8
    assert len(list(enumerate_finite(3))) == 48
    assert len(list(enumerate_ker_psi_finite(1))) == 1
    ker = list(enumerate_ker_psi_finite(2))
    assert len(ker) == 4
    assert all(psi(from_finite(u)) == 1 for u in ker)
    with pytest.raises(ValueError):
        list(enumerate_finite(7))


def test_psi_factors_through_root_lattice_parity():
    # psi(s_beta) = (-1)^(alpha_l coefficient of beta) for real roots
    for l in (1, 2):
        for vec, mult, _ in positive_roots(l, 3, 3):
            beta = from_root_coords(vec)
            if classify(beta).length_class == "imaginary":
                continue
            s = reflection(l, beta)
            par = vec[-1] % 2
            assert psi(s) == (-1 if par else 1), beta


@given(affine_elements(2), st.lists(st.integers(-3, 3), min_size=2, max_size=2))
@settings(max_examples=50)
def test_conjugation_of_translations(w, mu):
    lhs = compose(compose(w, translation_by(tuple(mu))), inverse(w))
    mu_img = w.finite.apply_vec(tuple(mu))
    rhs = translation_by(mu_img)
    assert lhs.finite == rhs.finite and lhs.translation == rhs.translation


def test_type_II_group_in_ker_psi():
    for l in (1, 2):
        for u in enumerate_finite(l):
            aff = affine_from_action(
                l, lambda v, u=u: finite_act(u, v, "II"))
            assert psi(aff) == 1
        # ... whereas W_f^(I) is not contained in Ker psi
        assert any(psi(from_finite(u)) == -1
                   for u in enumerate_finite(l))
