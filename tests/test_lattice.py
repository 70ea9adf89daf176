import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacmod.lattice import (Weight, frac_to_str, inner, level, norm_sq,
                            phi_involution, weight_to_json)
from kacmod.roots import rho

from conftest import (eps_basis_II, from_type_II_coords, lambda0_II,
                      small_fractions, weights)

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
        assert level(lambda0_II(l)) == 1


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
            e2 = eps_basis_II(l, i)
            assert e2 == Weight.delta_weight(l).scale(H) - Weight.eps_basis(l, l + 1 - i)
    # Lambda0^(II) for l=1: Lambda0^(I)/2 + eps_1/2 - delta/8
    expect = Weight.lambda0_I(1).scale(H) + Weight.eps_basis(1, 1).scale(H) \
        - Weight.delta_weight(1).scale(Fraction(1, 8))
    assert lambda0_II(1) == expect
    # delta is basis-independent
    for l in (1, 2, 3):
        eps2, d2, c2 = Weight.delta_weight(l).to_type_II_coords()
        assert all(x == 0 for x in eps2) and d2 == 1 and c2 == 0


@given(weights(3))
@settings(max_examples=60)
def test_type_II_round_trip(w):
    eps2, d2, c2 = w.to_type_II_coords()
    assert from_type_II_coords(3, eps2, d2, c2) == w


@given(weights(2))
@settings(max_examples=60)
def test_type_II_coords_are_inner_products(w):
    # the eps^(II) basis is orthonormal and orthogonal to delta, Lambda0^(II)
    eps2, _, _ = w.to_type_II_coords()
    for i in range(1, 3):
        assert inner(w, eps_basis_II(2, i)) == eps2[i - 1]


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
            e2 = eps_basis_II(l, i)
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
        e2 = eps_basis_II(2, i)
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


# -- the integer Weight against the Fraction formulas it replaced -------------
# A reference weight is a triple (eps tuple, delta, lambda0) of Fractions.

def ref_add(a, b):
    return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1], a[2] + b[2])


def ref_scale(c, a):
    return (tuple(c * x for x in a[0]), c * a[1], c * a[2])


def ref_inner(a, b):
    return sum(x * y for x, y in zip(a[0], b[0])) \
        + 2 * (a[1] * b[2] + a[2] * b[1])


def ref_to_type_II(a):
    eps, d, c = a
    l = len(eps)
    return (tuple(c - eps[l - i] for i in range(1, l + 1)),
            d + H * sum(eps) - Fraction(l, 4) * c, 2 * c)


def ref_from_type_II(l, eps2, d2=Fraction(0), c2=Fraction(0)):
    w = ((Fraction(0),) * l, Fraction(d2), Fraction(0))
    w = ref_add(w, ref_scale(c2, ((H,) * l, -Fraction(l, 8), H)))
    for i, c in enumerate(eps2, start=1):
        e2 = tuple(Fraction(-1) if j == l - i else Fraction(0)
                   for j in range(l))
        w = ref_add(w, ref_scale(c, (e2, H, Fraction(0))))
    return w


def ref_phi(a):
    eps, d, c = a
    l = len(eps)
    return (tuple(c - eps[l - 1 - i] for i in range(l)),
            d + H * sum(eps) - Fraction(l, 4) * c, c)


def triple(w):
    return (w.eps, w.delta, w.lambda0)


# the conformal anomalies -1/60, 3/14 and -5/36, A_rho's apex delta -1/24 and
# -5/8, and a numerator past 2^64
ODD = (Fraction(-1, 24), Fraction(-5, 8), Fraction(-1, 60), Fraction(3, 14),
       Fraction(-5, 36), Fraction(1, 3), Fraction(5, 3),
       Fraction(2 ** 70 + 1, 3))
rationals = st.one_of(small_fractions(denominators=(1, 2, 3, 7, 8, 24)),
                      st.sampled_from(ODD))


@st.composite
def ref_weights(draw, l):
    return (tuple(draw(rationals) for _ in range(l)), draw(rationals),
            draw(rationals))


@given(st.integers(1, 4).flatmap(
    lambda l: st.tuples(ref_weights(l), ref_weights(l))), rationals)
@settings(max_examples=150)
def test_integer_weight_matches_fraction_formulas(ab, c):
    a, b = ab
    wa, wb = Weight(*a), Weight(*b)
    l = wa.rank
    assert triple(wa) == a and triple(wb) == b
    assert triple(wa + wb) == ref_add(a, b)
    assert triple(wa - wb) == ref_add(a, ref_scale(Fraction(-1), b))
    assert triple(-wa) == ref_scale(Fraction(-1), a)
    assert triple(wa.scale(c)) == ref_scale(c, a)
    assert triple(c * wa) == ref_scale(c, a)
    assert inner(wa, wb) == ref_inner(a, b)
    assert norm_sq(wa) == ref_inner(a, a)
    assert level(wa) == 2 * a[2]
    assert triple(wa.canonical()) == (a[0], Fraction(0), a[2])
    assert wa.to_type_II_coords() == ref_to_type_II(a)
    assert triple(wa.project_finite("I")) == (a[0], Fraction(0), Fraction(0))
    assert triple(wa.project_finite("II")) == \
        ref_from_type_II(l, ref_to_type_II(a)[0])
    assert triple(phi_involution(wa)) == ref_phi(a)


@given(st.integers(1, 4).flatmap(ref_weights), st.integers(2, 50))
@settings(max_examples=100)
def test_integer_weight_hash_eq_and_json(a, k):
    w = Weight(*a)
    # one weight, reached by other routes: same value, same hash
    routes = (Weight.from_numerators([k * n for n in w.nums], k * w.den),
              (w + w).scale(Fraction(1, 2)), w - Weight.zero(w.rank),
              w.scale(Fraction(k, 3)).scale(Fraction(3, k)))
    for v in routes:
        assert v == w and hash(v) == hash(w)
        assert v.nums == w.nums and v.den == w.den
    assert w != w + Weight.delta_weight(w.rank)
    assert w != triple(w)
    want = {"eps": [frac_to_str(x) for x in a[0]],
            "delta": frac_to_str(a[1]), "lambda0": frac_to_str(a[2])}
    assert json.dumps(weight_to_json(w)) == json.dumps(want)


def test_weight_storage_is_reduced_and_exact():
    w = Weight((Fraction(2 ** 70 + 1, 3), Fraction(1, 2)), Fraction(-1, 24))
    assert w.den == 24 and w.nums == (8 * (2 ** 70 + 1), 12, -1, 0)
    assert all(type(n) is int for n in w.nums)
    assert Weight.from_numerators((2, 4, 6, 8), 4) == \
        Weight((Fraction(1, 2), 1), Fraction(3, 2), 2)
    assert Weight.from_numerators((0, 0, 0), 6).den == 1
    # numpy integers arrive as Python ints; floats and a zero denominator
    # are refused
    v = Weight.from_numerators(np.array([2, 4, 6], dtype=np.int64),
                               np.int64(4))
    assert v == Weight((Fraction(1, 2),), Fraction(1), Fraction(3, 2))
    assert all(type(n) is int for n in (*v.nums, v.den))
    with pytest.raises(TypeError):
        Weight.from_numerators((1.0, 0, 0))
    with pytest.raises(ValueError):
        Weight.from_numerators((1, 0, 0), 0)
    for bad in (0.5, 1j, 0.5 + 0j):
        with pytest.raises(TypeError):
            Weight((bad,))
        with pytest.raises(TypeError):
            Weight.zero(1).scale(bad)
    with pytest.raises(AttributeError):
        w.den = 1
