import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings

from kacmod.lattice import Weight, inner, level, phi_involution
from kacmod.roots import (RootSystemCtx, _label_vectors, dynkin_labels,
                          enumerate_dominant, from_dynkin_labels,
                          from_root_coords,
                          fundamental_weights_I,
                          fundamental_weights_II, labels, rho, rho_f,
                          root_coords, simple_roots_I, simple_roots_II,
                          positive_roots)

from conftest import coroot, eps_basis_II, lambda0_II, weights


# -- the root set by membership test: the oracle of positive_roots ------------

@dataclass(frozen=True)
class RootInfo:
    weight: Weight
    length_class: str   # "short" | "middle" | "long" | "imaginary"
    parity: str         # "even" | "odd"
    multiplicity: int


def classify(w: Weight):
    """Membership test in the BC_l^(2) root set; None if not a root.

    Real roots: +-eps_i + r*delta (short, odd parity),
    +-eps_i +- eps_j + r*delta (middle), +-2eps_i + (2r+1)*delta (long);
    imaginary roots are the nonzero integer multiples of delta (mult l).
    Only exact rational inputs are classified.
    """
    l = w.rank
    if not all(isinstance(c, (int, Fraction)) for c in (*w.eps, w.delta, w.lambda0)):
        return None
    if w.lambda0 != 0:
        return None
    r = Fraction(w.delta)
    if r.denominator != 1:
        return None
    nz = [(i, c) for i, c in enumerate(w.eps) if c != 0]
    if not nz:
        if r != 0:
            return RootInfo(w, "imaginary", "even", l)
        return None
    if len(nz) == 1:
        c = nz[0][1]
        if c in (1, -1):
            return RootInfo(w, "short", "odd", 1)
        if c in (2, -2) and Fraction(r) % 2 == 1:
            return RootInfo(w, "long", "even", 1)
        return None
    if len(nz) == 2:
        if all(c in (1, -1) for _, c in nz):
            return RootInfo(w, "middle", "even", 1)
    return None


def test_cartan_matrices():
    def cartan_matrix(l):
        # GCM rows a_{j,i} = (alpha_j^vee, alpha_i) of the shipped simple roots
        si = simple_roots_I(l)
        return [[inner(coroot(aj), ai) for ai in si] for aj in si]

    assert cartan_matrix(1) == [[2, -1], [-4, 2]]
    a2 = cartan_matrix(2)
    assert a2 == [[2, -1, 0], [-2, 2, -1], [0, -2, 2]]
    a3 = cartan_matrix(3)
    assert a3[0] == [2, -1, 0, 0] and a3[1] == [-2, 2, -1, 0]
    assert a3[2] == [0, -1, 2, -1] and a3[3] == [0, 0, -2, 2]


def test_delta_is_marked_sum():
    for l in (1, 2, 3):
        s = Weight.zero(l)
        for a, alpha in zip(labels(l), simple_roots_I(l)):
            s = s + alpha.scale(a)
        assert s == Weight.delta_weight(l)


def test_numeration_II_is_reversal():
    for l in (1, 2, 3):
        si, sii = simple_roots_I(l), simple_roots_II(l)
        assert sii == [si[l - i] for i in range(l + 1)]


def test_classify_examples():
    l = 2
    d = Weight.delta_weight(l)
    info = classify(d - Weight.eps_basis(l, 1).scale(2))
    assert info.length_class == "long" and info.multiplicity == 1 \
        and info.parity == "even"
    info = classify(d.scale(3))
    assert info.length_class == "imaginary" and info.multiplicity == l
    assert classify(Weight.eps_basis(l, 1).scale(2) + d.scale(2)) is None
    info = classify(Weight.eps_basis(l, 1))
    assert info.length_class == "short" and info.parity == "odd"
    info = classify(Weight.eps_basis(l, 1) - Weight.eps_basis(l, 2))
    assert info.length_class == "middle" and info.parity == "even"
    assert classify(Weight.zero(l)) is None


def test_root_set_weyl_stable_small_height():
    from test_weyl import reflection  # test_weyl imports this module

    for l in (1, 2):
        roots = [from_root_coords(vec) for vec, _, _
                 in positive_roots(l, 3, 3)]
        roots = [w for w in roots if any(w.eps)]
        assert roots
        refs = [reflection(l, a) for a in simple_roots_I(l)]
        for w in refs:
            for beta in roots:
                img = w.act(beta)
                assert classify(img) is not None


def test_special_indices():
    # indices i0 with delta - a_{i0} alpha_{i0} a positive multiple of a
    # positive root, with the witness pair (p, root)
    for l in (1, 2, 3):
        d = Weight.delta_weight(l)
        sp = {}
        for i0, (a, alpha) in enumerate(zip(labels(l), simple_roots_I(l))):
            for p in range(1, 5):
                cand = (d - alpha.scale(a)).scale(Fraction(1, p))
                h = root_coords(cand)
                if classify(cand) is not None and h is not None \
                        and min(h) >= 0 and any(h):
                    sp[i0] = (p, cand)
                    break
        assert set(sp) == {0, l}
        p0, w0 = sp[0]
        assert p0 == 2 and w0 == Weight.eps_basis(l, 1)
        pl, wl = sp[l]
        assert pl == 1 and wl == Weight.delta_weight(l) \
            - Weight.eps_basis(l, l).scale(2)


def test_fundamental_weight_pairings():
    for l in (1, 2, 3):
        for sharp, fw, roots in (
                ("I", fundamental_weights_I(l), simple_roots_I(l)),
                ("II", fundamental_weights_II(l), simple_roots_II(l))):
            for j, w in enumerate(fw):
                for i, alpha in enumerate(roots):
                    assert inner(coroot(alpha), w) == (1 if i == j else 0), \
                        (sharp, i, j)


def test_level_tables():
    for l in (1, 2, 3):
        ctx = RootSystemCtx.build(l)
        assert ctx.level_table("I") == (2,) * l + (1,)
        assert ctx.level_table("II") == (1,) + (2,) * l


def test_fundamental_weights_II_match_reversed_I():
    for l in (1, 2, 3):
        fwI, fwII = fundamental_weights_I(l), fundamental_weights_II(l)
        for j in range(l + 1):
            assert fwII[j] == fwI[l - j]


def test_rho():
    for l in range(1, 7):
        # the definition: the sum of the fundamental weights, canonical
        total = Weight.zero(l)
        for fw in fundamental_weights_I(l):
            total = total + fw
        assert rho(l) == total.canonical()
    for l in range(1, 7):
        r = rho(l)
        assert level(r) == 2 * l + 1
        assert r.delta == 0
        assert tuple(r.eps) == tuple(Fraction(2 * (l - i) + 1, 2)
                                     for i in range(1, l + 1))
        assert rho_f(l, "I") == Weight(r.eps)
        # rho_f^(II) = sum (l-i+1) eps_i^(II)
        expect = Weight.zero(l)
        for i in range(1, l + 1):
            expect = expect + eps_basis_II(l, i).scale(l - i + 1)
        assert rho_f(l, "II") == expect


def _count_label_vectors(l, k):
    # independent enumeration oracle: 2(m_0+..+m_{l-1}) + m_l = k
    count = 0
    for m in itertools.product(range(k + 1), repeat=l + 1):
        if 2 * sum(m[:-1]) + m[-1] == k:
            count += 1
    return count


def test_enumerate_dominant_counts_and_order():
    lams = enumerate_dominant(1, 2)
    fw = fundamental_weights_I(1)
    assert lams == [fw[0], fw[1].scale(2)]  # [Lambda_0, 2 Lambda_1]
    assert len(enumerate_dominant(2, 2)) == _count_label_vectors(2, 2) == 3
    assert len(enumerate_dominant(1, 4)) == _count_label_vectors(1, 4)
    assert len(enumerate_dominant(3, 2)) == _count_label_vectors(3, 2)
    assert enumerate_dominant(2, 0) == [Weight.zero(2)]
    with pytest.raises(ValueError):
        enumerate_dominant(2, 3)
    with pytest.raises(ValueError):
        enumerate_dominant(2, -2)


def _brute_label_vectors(l, k):
    """The label vectors of P_{k,+} from every head in {0..k/2}^l, filtered
    and sorted: the oracle of roots._label_vectors, which visits only the
    heads it keeps, already in order."""
    vecs = [head + (k - 2 * sum(head),)
            for head in itertools.product(range(k // 2 + 1), repeat=l)
            if 2 * sum(head) <= k]
    return sorted(vecs, reverse=True)


@pytest.mark.parametrize("l", (1, 2, 3, 4))
def test_label_vectors_match_brute_force(l):
    for k in range(0, 9, 2):
        assert _label_vectors(l, k) == _brute_label_vectors(l, k)


@pytest.mark.parametrize("l", range(1, 7))
def test_from_dynkin_labels_matches_the_full_sum(l):
    # skipping the zero labels leaves the sum over all l + 1 scaled
    # fundamental weights, at every level up to 6
    fw = fundamental_weights_I(l)
    for k in range(7):
        for m in _brute_label_vectors(l, k):
            w = Weight.zero(l)
            for mj, fwj in zip(m, fw):
                w = w + fwj.scale(mj)
            assert from_dynkin_labels(l, m) == w.canonical(), m


def test_label_vectors_at_rank_12_level_8():
    # 5^12 heads to try by brute force; C(16, 4) = 1820 to keep
    vecs = _label_vectors(12, 8)
    assert len(vecs) == 1820 == len(set(vecs))
    assert vecs == sorted(vecs, reverse=True)
    assert vecs[0] == (4,) + (0,) * 12 and vecs[-1] == (0,) * 12 + (8,)
    assert all(2 * sum(v[:-1]) + v[-1] == 8 and min(v) >= 0 for v in vecs)


def test_enumerate_dominant_is_dominant():
    for l in (1, 2):
        for k in (0, 2, 4):
            for lam in enumerate_dominant(l, k):
                assert level(lam) == k and lam.delta == 0
                assert all(m >= 0 for m in dynkin_labels(l, lam))


def test_phi_examples():
    for l in (1, 2, 3):
        assert phi_involution(Weight.delta_weight(l)) == Weight.delta_weight(l)
        assert phi_involution(Weight.lambda0_I(l)) == \
            lambda0_II(l).scale(2)
        for i in range(1, l + 1):
            assert phi_involution(Weight.eps_basis(l, i)) == \
                eps_basis_II(l, i)


@given(weights(3))
@settings(max_examples=60)
def test_phi_is_involutive_isometry(w):
    assert phi_involution(phi_involution(w)) == w
    assert inner(phi_involution(w), phi_involution(w)) == inner(w, w)


def test_height_vector():
    l = 2
    d = Weight.delta_weight(l)
    assert root_coords(d) == (1, 2, 2)
    assert root_coords(d - Weight.eps_basis(l, 1).scale(2)) == (1, 0, 0)
    assert root_coords(Weight.eps_basis(l, 1).scale(-1)) == (0, -1, -1)
    assert root_coords(Weight((Fraction(1, 3), Fraction(0)))) is None
    assert root_coords(Weight.lambda0_I(l)) is None
    for vec in itertools.product(range(-2, 3), repeat=l + 1):
        w = from_root_coords(vec)
        assert root_coords(w) == vec
        # the alpha-basis combination it names
        assert w == sum((a.scale(n) for n, a in zip(vec, simple_roots_I(l))),
                        Weight.zero(l))


@given(weights(3))
@settings(max_examples=60)
def test_dynkin_labels_are_coroot_pairings(w):
    assert dynkin_labels(3, w) == tuple(inner(coroot(a), w)
                                        for a in simple_roots_I(3))


def _root_oracle(l, q_cap, height_cap, super_):
    """(height vector, multiplicity, parity) of every positive root in the
    caps, by scanning the weights n delta + sum c_i eps_i with n up to the
    caps (a root of offset n >= 1 has height >= n) and every c_i in -2..2:
    the roots `classify` accepts, plus the long roots +-2 eps_i + (even)
    delta of the super system.  Heights come from root_coords and are
    checked against the simple roots."""
    nmax = q_cap if height_cap is None else min(q_cap, height_cap)
    si = simple_roots_I(l)
    out = set()
    for n in range(nmax + 1):
        for c in itertools.product(range(-2, 3), repeat=l):
            w = Weight(c, n)
            info = classify(w)
            if info is not None:
                root = (info.multiplicity, info.parity)
            elif super_ and n % 2 == 0 and sorted(map(abs, c)) == \
                    [0] * (l - 1) + [2]:
                root = (1, "even")
            else:
                continue
            vec = root_coords(w)
            if min(vec) < 0 or (height_cap is not None
                                and sum(vec) > height_cap):
                continue
            assert sum((a.scale(k) for k, a in zip(vec, si)),
                       Weight.zero(l)) == w
            out.add((vec, *root))
    return out


@pytest.mark.parametrize("l", (1, 2, 3, 4))
@pytest.mark.parametrize("q_cap,height_cap",
                         ((None, 9), (2, 12), (3, 7), (1, None), (0, 20),
                          (12, None), (5, None)))
@pytest.mark.parametrize("super_", (False, True))
def test_positive_roots_against_scan(l, q_cap, height_cap, super_):
    if q_cap is None:
        q_cap = height_cap  # no q cap below H: caps (H, H), the same roots
    got = list(positive_roots(l, q_cap, height_cap, super_))
    assert all(type(n) is int for vec, _, _ in got for n in vec)
    assert len(set(got)) == len(got)
    assert set(got) == _root_oracle(l, q_cap, height_cap, super_)
    offsets = [vec[0] for vec, _, _ in got]
    assert offsets == sorted(offsets)
