from fractions import Fraction

import pytest
from hypothesis import given, settings

from kacmod.lattice import Weight, inner, level, norm_sq, weight_to_json
from kacmod.roots import phi_involution, rho

from conftest import small_fractions, weights

H = Fraction(1, 2)


def test_inner_basis_values():
    for l in (1, 2, 3):
        e1 = Weight.eps_basis(l, 1)
        d = Weight.delta_weight(l)
        L0 = Weight.lambda0_I(l)
        assert inner(e1, e1) == 1
        assert inner(d, d) == 0
        assert inner(L0, L0) == 0
        assert inner(d, L0) == 2  # (delta, Lambda0^(I)) = a_0^vee = 2
        assert inner(e1, d) == 0 and inner(e1, L0) == 0


def test_levels():
    for l in (1, 2, 3):
        assert level(Weight.lambda0_I(l)) == 2
        assert level(Weight.delta_weight(l)) == 0
        assert level(rho(l)) == 2 * l + 1
        assert level(Weight.lambda0_II(l)) == 1


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        inner(Weight.zero(1), Weight.zero(2))


@given(weights(2), weights(2), weights(2), small_fractions(), small_fractions())
@settings(max_examples=60)
def test_inner_symmetric_bilinear(a, b, c, x, y):
    assert inner(a, b) == inner(b, a)
    assert inner(a.scale(x) + b.scale(y), c) == x * inner(a, c) + y * inner(b, c)


def test_type_II_basis_vectors():
    # eps_i^(II) = -eps_{l+1-i} + delta/2
    for l in (1, 2, 3):
        for i in range(1, l + 1):
            e2 = Weight.eps_basis_II(l, i)
            assert e2 == Weight.delta_weight(l).scale(H) - Weight.eps_basis(l, l + 1 - i)
    # Lambda0^(II) for l=1: Lambda0^(I)/2 + eps_1/2 - delta/8
    expect = Weight.lambda0_I(1).scale(H) + Weight.eps_basis(1, 1).scale(H) \
        - Weight.delta_weight(1).scale(Fraction(1, 8))
    assert Weight.lambda0_II(1) == expect
    # delta is basis-independent
    for l in (1, 2, 3):
        eps2, d2, c2 = Weight.delta_weight(l).to_type_II_coords()
        assert all(x == 0 for x in eps2) and d2 == 1 and c2 == 0


@given(weights(3))
@settings(max_examples=60)
def test_type_II_round_trip(w):
    eps2, d2, c2 = w.to_type_II_coords()
    assert Weight.from_type_II_coords(3, eps2, d2, c2) == w


@given(weights(2))
@settings(max_examples=60)
def test_type_II_coords_are_inner_products(w):
    # the eps^(II) basis is orthonormal and orthogonal to delta, Lambda0^(II)
    eps2, _, _ = w.to_type_II_coords()
    for i in range(1, 3):
        assert inner(w, Weight.eps_basis_II(2, i)) == eps2[i - 1]


def test_project_finite_examples():
    l = 2
    assert Weight.lambda0_I(l).project_finite("I") == Weight.zero(l)
    w = Weight.eps_basis(l, 1) + Weight.delta_weight(l).scale(3)
    assert w.project_finite("I") == Weight.eps_basis(l, 1)


def test_project_finite_II_of_lambda0():
    # independent oracle: pi^(II)(w) = sum (w, eps_i^(II)) eps_i^(II)
    for l in (1, 2, 3):
        w = Weight.lambda0_I(l)
        proj = w.project_finite("II")
        oracle = Weight.zero(l)
        for i in range(1, l + 1):
            e2 = Weight.eps_basis_II(l, i)
            oracle = oracle + e2.scale(inner(w, e2))
        assert proj == oracle
        # explicitly: coefficient +1 on every eps_i^(II)
        eps2, d2, c2 = proj.to_type_II_coords()
        assert all(c == 1 for c in eps2) and c2 == 0


@given(weights(2))
@settings(max_examples=60)
def test_project_finite_II_oracle(w):
    proj = w.project_finite("II")
    oracle = Weight.zero(2)
    for i in range(1, 3):
        e2 = Weight.eps_basis_II(2, i)
        oracle = oracle + e2.scale(inner(w, e2))
    assert proj == oracle


@given(weights(2))
@settings(max_examples=60)
def test_norm_sq_of_projections(w):
    for sharp in ("I", "II"):
        p = w.project_finite(sharp)
        if sharp == "I":
            coeffs = p.eps
        else:
            coeffs = p.to_type_II_coords()[0]
        assert norm_sq(p) == sum(c * c for c in coeffs)


@given(weights(2))
@settings(max_examples=60)
def test_projection_intertwines_phi(w):
    # pi^(II) o phi = phi o pi^(I)
    assert phi_involution(w).project_finite("II") == \
        phi_involution(w.project_finite("I"))


def test_json_shape():
    d = weight_to_json(Weight((H,), Fraction(-1, 3), Fraction(2)))
    assert d == {"eps": ["1/2"], "delta": "-1/3", "lambda0": "2/1"}
