import itertools
import math
from fractions import Fraction

import pytest

import kacmod.qseries as qs
from kacmod import characters
from kacmod.characters import (CharacterRequest, _accumulate_theta,
                               anti_invariant, character,
                               check_denominator_identity, conformal_anomaly,
                               default_height_cap, denominator_product,
                               is_dominant, theta_height_bound)
from kacmod.lattice import Weight, level, norm_sq
from kacmod.qseries import QSeries
from kacmod.roots import (RootSystemCtx, enumerate_dominant,
                          from_dynkin_labels, rho, root_coords)
from kacmod.weyl import enumerate_finite, translate

from test_weyl import (enumerate_ker_psi_finite, finite_act, finite_compose,
                       finite_reflection)


# -- the formal theta orbit: the formal-series oracle of modular.eval_theta ---

def is_integral_weight(w: Weight) -> bool:
    """Member of the weight lattice P (up to the delta coefficient)."""
    try:
        fr = [Fraction(c) for c in w.eps]
        lev = Fraction(2 * w.lambda0)
    except (TypeError, ValueError):
        return False
    if lev.denominator != 1:
        return False
    pars = {c % 1 for c in fr}
    if not pars <= {0, Fraction(1, 2)}:
        return False
    if len(pars) > 1:
        return False
    # half-integer finite part occurs exactly at odd level
    if pars == {Fraction(1, 2)} and lev % 2 == 0:
        return False
    if pars in ({0}, set()) and lev % 2 == 1:
        return False
    return True


def alcove_rep(vec, m):
    """Dominant alcove representative of a finite vector modulo m Z^l and
    signed permutations: coordinates folded into [0, m/2], sorted descending."""
    out = []
    for x in vec:
        r = Fraction(x) % m
        if 2 * r > m:
            r = m - r
        out.append(r)
    return tuple(sorted(out, reverse=True))


def theta_formal(lam: Weight, sharp="I", twisted=False, depth=8,
                 height_cap=None) -> QSeries:
    """The formal level-k theta orbit of lam (k = level(lam) > 0).

    The result does not depend on the numeration: the two translation
    lattices agree modulo delta, so only the evaluation maps differ."""
    if sharp not in ("I", "II"):
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    k = level(lam)
    if not (Fraction(k).denominator == 1 and k > 0):
        raise ValueError(f"theta series requires positive integer level, got {k}")
    if not is_integral_weight(lam):
        raise ValueError("theta series requires an integral weight")
    k = int(k)
    lam = lam.canonical()
    l = lam.rank
    apex_f = alcove_rep(lam.eps, k)
    apex_nsq = sum(c * c for c in apex_f)
    apex = Weight(apex_f, -apex_nsq / (2 * k), Fraction(k, 2))
    out = QSeries(l, apex, {}, height_cap, depth)
    _accumulate_theta(out, lam, k, 1, twisted)
    return out


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


# -- the theta walk against a brute-force orbit -----------------------------

def _brute_orbit(out: QSeries, coset: Weight, m, sign, twisted):
    """The level-m orbit of coset under the caps of out, by Weight arithmetic
    over every gamma in a box two shells wider on each side than the one
    _accumulate_theta walks."""
    l = out.rank
    radius = math.sqrt(sum(e * e for e in out.apex.eps) + 2 * m * out.q_cap)
    boxes = [range(math.floor((-radius - c) / m) - 2,
                   math.ceil((radius - c) / m) + 3) for c in coset.eps]
    got = QSeries(l, out.apex, {}, out.height_cap, out.q_cap)
    for gamma in itertools.product(*boxes):
        nu = [c + m * g for c, g in zip(coset.eps, gamma)]
        w = Weight(nu, -sum(x * x for x in nu) / (2 * m), Fraction(m, 2))
        off = root_coords(out.apex - w)
        assert off is not None and min(off) >= 0
        got.add_term(off, -sign if twisted and sum(gamma) % 2 else sign)
    return got


@pytest.mark.parametrize("l,k,q_cap,height_cap", (
    (1, 0, 2, None),   # nu = 7/2 lies on the walk's shell
    (1, 2, None, 10),
    (2, 2, 3, None),
    (2, 0, None, 9),
    (3, 0, 2, None),
    (3, 2, None, 6),
))
def test_theta_walk_matches_brute_force_orbit(l, k, q_cap, height_cap):
    if q_cap is None:
        q_cap = height_cap  # no q cap below H: caps (H, H), the ring of H
    m = k + 2 * l + 1
    base = (enumerate_dominant(l, k)[-1] + rho(l)).canonical()
    apex = base + Weight.delta_weight(l).scale(-norm_sq(base) / (2 * m))
    nonempty = 0
    for sharp in ("I", "II"):
        for u in list(enumerate_finite(l))[::2 * l - 1]:
            coset = finite_act(u, base, sharp)
            for tw in (False, True):
                walk = QSeries(l, apex, {}, height_cap, q_cap)
                _accumulate_theta(walk, coset, m, u.det(), tw)
                want = _brute_orbit(walk, coset, m, u.det(), tw)
                assert walk == want, (sharp, u, tw)
                nonempty += bool(walk.terms)
    assert nonempty


def test_theta_walk_keeps_points_on_its_shell():
    # rank 1, level 3, apex rho - delta/24, q cap 2: the walk's shell is
    # (2 nu)^2 <= 4 |rho|^2 + 8 m q_cap = 49, and nu = 7/2 lies on it
    base = rho(1)
    apex = base + Weight.delta_weight(1).scale(Fraction(-1, 24))
    walk = QSeries(1, apex, {}, None, 2)
    _accumulate_theta(walk, base, 3, 1, False)
    nu = Weight((Fraction(7, 2),), Fraction(-49, 24), Fraction(3, 2))
    assert walk.terms.get(root_coords(apex - nu)) == 1


# -- the Ker psi rewriting and the type-II grouping: the oracles of
# -- anti_invariant's one signed W_f^(I) loop

def _empty_anti_invariant(lam: Weight, depth, height_cap):
    """(base lam + rho, its level m, the empty series below its apex)."""
    lam = lam.canonical()
    l = lam.rank
    m = int(level(lam)) + 2 * l + 1
    base = (lam + rho(l)).canonical()
    apex = Weight(base.eps, -norm_sq(base) / (2 * m), base.lambda0)
    return base, m, QSeries(l, apex, {}, height_cap, depth)


def _reference_anti_invariant(lam: Weight, twisted, depth, height_cap):
    """A_{lam+rho} (A^psi when twisted) with the twisted type-I sum rewritten
    over W_{f;m}^(I) = W_f^(I) cap Ker psi and its s_{alpha_l} coset: psi is
    +1 on the subgroup, and the coset enters with the same epsilon
    prefactor."""
    base, m, out = _empty_anti_invariant(lam, depth, height_cap)
    l = out.rank
    if not twisted:
        for u in enumerate_finite(l):
            _accumulate_theta(out, Weight(u.apply_vec(base.eps)), m, u.det(),
                              False)
    else:
        s_l = finite_reflection(l, Weight.eps_basis(l, l))
        for u in enumerate_ker_psi_finite(l):
            for v in (u, finite_compose(u, s_l)):
                _accumulate_theta(out, Weight(v.apply_vec(base.eps)), m,
                                  u.det(), True)
    return out


def _type_II_grouping(lam: Weight, twisted, depth, height_cap):
    """The same W-sum grouped as W_f^(II) ltimes t(M): theta orbits of the
    images phi u phi (base), each with the plain epsilon sign, twisted or
    not, as W_f^(II) lies in Ker psi."""
    base, m, out = _empty_anti_invariant(lam, depth, height_cap)
    for u in enumerate_finite(out.rank):
        _accumulate_theta(out, finite_act(u, base, "II"), m, u.det(), twisted)
    return out


@pytest.mark.parametrize("l,depth", ((1, 12), (2, 8), (3, 6)))
def test_anti_invariant_matches_reference(l, depth):
    for k in (0, 2, 4):
        hc = default_height_cap(l, k, depth)
        for lam in enumerate_dominant(l, k):
            for tw in (False, True):
                want = _reference_anti_invariant(lam, tw, depth, hc)
                for sharp in ("I", "II"):
                    got = anti_invariant(lam, sharp, tw, depth, hc)
                    assert got == want and got.terms, (l, k, lam, sharp, tw)


def test_anti_invariant_sharp_independence():
    # A_{lam+rho} and A^psi_{lam+rho} are one series in both numerations:
    # the W_f^(I) loop, whatever sharp says, equals the type-II grouping on
    # 164 cases, l <= 2 at k <= 6 and l = 3, 4 at k <= 2, both twists, under
    # the default height cap and half of it
    cases = 0
    for l, depth in ((1, 12), (2, 8), (3, 6), (4, 3)):
        for k in (0, 2, 4, 6) if l <= 2 else (0, 2):
            full = default_height_cap(l, k, depth)
            for lam, tw, hc in itertools.product(enumerate_dominant(l, k),
                                                 (False, True),
                                                 (full, full // 2)):
                want = _type_II_grouping(lam, tw, depth, hc)
                for sharp in ("I", "II"):
                    got = anti_invariant(lam, sharp, tw, depth, hc)
                    assert got == want and got.terms, (lam, sharp, tw, hc)
                cases += 1
    assert cases == 164


def test_anti_invariant_antisymmetry():
    # summing over cosets u0*u multiplies the series by eps(u0)
    l = 2
    base = rho(l)
    m = 2 * l + 1
    apex = Weight(base.eps, -norm_sq(base) / (2 * m), base.lambda0)
    plain = QSeries(l, apex, {}, None, 5)
    for u in enumerate_finite(l):
        _accumulate_theta(plain, Weight(u.apply_vec(base.eps)), m, u.det(),
                          False)
    for u0 in enumerate_finite(l):
        twisted_order = QSeries(l, apex, {}, None, 5)
        for u in enumerate_finite(l):
            v = finite_compose(u0, u)
            _accumulate_theta(twisted_order, Weight(v.apply_vec(base.eps)),
                              m, u.det(), False)
        want = {v: u0.det() * c for v, c in plain.terms.items()}
        assert twisted_order.terms == want


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
    prod = denominator_product(l, False, 6)
    extra = qs.binomial_factor(root_coords(Weight.delta_weight(l)), -1,
                               None, 6)
    rep = qs.diff_report(anti, qs.mul(prod, extra))
    assert not rep["equal"]
    assert rep["first_mismatch_q"] == 1


def test_remark_products_match_anti_invariants():
    # the explicit product displays equal A_rho and A^psi_rho to depth 5
    for tw in (False, True):
        assert denominator_product(1, tw, 5) == \
            anti_invariant(Weight.zero(1), "I", tw, 5, None)


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


def test_character_builds_its_divisor_once(monkeypatch):
    # A_rho depends only on (l, twisted, depth, height cap): the characters
    # of one level share it in both numerations, and dividing by it leaves
    # it intact
    built = []

    def counting(lam, *args):
        built.append(lam)
        return anti_invariant(lam, *args)

    characters._denominator.cache_clear()
    monkeypatch.setattr(characters, "anti_invariant", counting)
    l = 2
    ctx = RootSystemCtx.build(l)
    lams = enumerate_dominant(l, 2)
    for sharp in ("I", "II"):
        for lam in lams:
            ch = character(CharacterRequest(ctx, lam, 2, sharp, True, 6))
            den = anti_invariant(Weight.zero(l), "I", True, 6, ch.height_cap)
            num = anti_invariant(lam, "I", True, 6, ch.height_cap)
            assert qs.mul(ch, den) == num
    assert built.count(Weight.zero(l)) == 1
    assert len(built) == 2 * len(lams) + 1
    cached = characters._denominator(l, True, 6, ch.height_cap)
    assert cached == anti_invariant(Weight.zero(l), "I", True, 6,
                                    ch.height_cap)
    characters._denominator.cache_clear()


# -- the W_f mirror: characters divided up to the window, reflected above it --

def mirror_window(lam: Weight, depth, height_cap) -> int:
    """floor(c(depth)), the largest -1 mirror centre c(n0) = n0 (2l+1) +
    sum_j A_j (A_j the partial sums of lam's eps-coefficients) over the
    q-slices, capped at height_cap."""
    l = lam.rank
    centre = depth * (2 * l + 1) + sum(itertools.accumulate(lam.eps))
    return min(height_cap, math.floor(centre))


def divided_at_full_cap(req: CharacterRequest, height_cap) -> QSeries:
    """The character by one division at the full height cap."""
    num = anti_invariant(req.lam, req.sharp, req.twisted, req.depth,
                         height_cap)
    den = characters._denominator(req.ctx.rank, req.twisted, req.depth,
                                  height_cap)
    return qs.divide(num, den)


@pytest.mark.parametrize("l,k,depth", ((1, 2, 10), (1, 6, 8), (2, 2, 8),
                                       (2, 4, 8), (3, 2, 7), (4, 2, 3)))
def test_mirrored_character_matches_full_cap_division(monkeypatch, l, k,
                                                      depth):
    # caps: the default; 20, below the window; the one check_super_character
    # passes; two past the window, so the cap cuts through the mirrored terms
    divide, caps_divided = qs.divide, []

    def recording(num, den):
        caps_divided.append((num.caps(), den.caps()))
        return divide(num, den)

    monkeypatch.setattr(characters.qs, "divide", recording)
    ctx = RootSystemCtx.build(l)
    default = default_height_cap(l, k, depth)
    mirrored = 0
    for lam in enumerate_dominant(l, k):
        caps = {default, 20, mirror_window(lam, depth, default) + 2,
                theta_height_bound(l, k + 2 * l + 1, norm_sq(lam + rho(l)),
                                   depth)}
        for sharp, tw, hc in itertools.product(("I", "II"), (False, True),
                                               sorted(caps)):
            req = CharacterRequest(ctx, lam, k, sharp, tw, depth)
            caps_divided.clear()
            got = character(req, height_cap=hc)
            # one division, up to the window only
            top = mirror_window(lam, depth, hc)
            assert caps_divided == [((top, depth), (top, depth))]
            want = divided_at_full_cap(req, hc)
            assert got.apex == want.apex and got.caps() == want.caps()
            # the order counts too: by total height, then lexicographic
            assert list(got.terms.items()) == list(want.terms.items()), \
                (lam, sharp, tw, hc)
            mirrored += any(sum(v) > top for v in got.terms)
    assert mirrored


@pytest.mark.parametrize("fault", ("coefficient", "missing", "cone"))
def test_mirror_check_refuses_a_wrong_quotient(monkeypatch, fault):
    # lam = 2 eps_1 + 2 eps_2 (A = 2, 4), depth 6, window c(6) = 36: the apex
    # term's mirror (0, 4, 8) lies inside the window; an extra term (6, 29, 0)
    # below the centre of its q-slice has the mirror (6, -1, 32) above it
    divide = qs.divide

    def faulty(num, den):
        out = divide(num, den)
        apex = (0,) * (num.rank + 1)
        if fault == "coefficient":
            out.terms[apex] += 1
        elif fault == "missing":
            del out.terms[apex]
        else:
            out.terms[(6, 29, 0)] = 1
        return out

    monkeypatch.setattr(characters.qs, "divide", faulty)
    l = 2
    lam = next(w for w in enumerate_dominant(l, 4) if w.eps == (2, 2))
    assert mirror_window(lam, 6, default_height_cap(l, 4, 6)) == 36
    with pytest.raises(AssertionError, match="mirror"):
        character(CharacterRequest(RootSystemCtx.build(l), lam, 4, "I",
                                   False, 6))


def test_character_weyl_invariant_slices():
    l = 2
    ctx = RootSystemCtx.build(l)
    lam = enumerate_dominant(l, 2)[1]
    ch = character(CharacterRequest(ctx, lam, 2, "I", False, 6))
    gens = list(enumerate_finite(l))
    for vec, c in ch.terms.items():
        w = ch.weight_of(vec)
        for u in gens:
            off = root_coords(ch.apex - u.act(w))
            assert ch.terms.get(off, 0) == c


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
