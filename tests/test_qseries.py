from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kacmod.qseries as qs
from kacmod.lattice import Weight
from kacmod.qseries import QSeries
from kacmod.roots import from_dynkin_labels, rho, simple_roots_I

CAPS = dict(height_cap=8, q_cap=None)


def simple(l, i):
    """The height vector of the simple root alpha_i."""
    return tuple(int(j == i) for j in range(l + 1))


def simples(l):
    return [simple(l, i) for i in range(l + 1)]


def sparse_series(l=2, height_cap=8, q_cap=None):
    """Random sparse series; apexes lie in the root lattice so that sums of
    any two are defined."""
    vec = st.tuples(*([st.integers(0, 3)] * (l + 1)))

    def build(apex_coords, items):
        apex = Weight.zero(l)
        for n, alpha in zip(apex_coords, simple_roots_I(l)):
            apex = apex + alpha.scale(n)
        s = QSeries(l, apex, {}, height_cap, q_cap)
        for v, c in items:
            s.add_term(v, c)
        return s

    return st.builds(
        build,
        st.lists(st.integers(-2, 2), min_size=l + 1, max_size=l + 1),
        st.lists(st.tuples(vec, st.integers(-4, 4)), max_size=5),
    )


def _reference_mul(a: QSeries, b: QSeries) -> QSeries:
    """The dict-of-tuples convolution that the array kernel replaced, kept as
    its oracle."""
    assert a.rank == b.rank and a.caps() == b.caps()
    out = QSeries(a.rank, a.apex + b.apex, {}, *a.caps())
    big, small = (a, b) if len(a.terms) >= len(b.terms) else (b, a)
    terms = out.terms
    hcap, qcap = out.height_cap, out.q_cap
    for svec, sc in small.sorted_items():
        s0 = svec[0]
        sh = sum(svec)
        for bvec, bc in big.terms.items():
            if qcap is not None and bvec[0] + s0 > qcap:
                continue
            if hcap is not None and sum(bvec) + sh > hcap:
                continue
            key = tuple(x + y for x, y in zip(bvec, svec))
            c = terms.get(key, 0) + sc * bc
            if c:
                terms[key] = c
            else:
                del terms[key]
    return out


def _reference_divide(num: QSeries, den: QSeries) -> QSeries:
    """The dict-and-heap loop that the level-by-level kernel replaced, kept
    as its oracle.  Graded long division num/den; den must have coefficient
    +-1 at its apex.  Quotient terms are emitted in increasing total height,
    which makes every emission final (den has no other height-0 term).  Exact
    in the truncated ring; raises if the division does not terminate within
    the caps (the quotient then has unbounded support and a height cap is
    required)."""
    import heapq

    qs._check_compatible(num, den)
    zero_vec = (0,) * (num.rank + 1)
    d0 = den.terms.get(zero_vec, 0)
    if d0 not in (1, -1):
        raise ValueError("divisor leading coefficient at its apex must be +-1")
    den_rest = [(v, sum(v), c) for v, c in den.sorted_items() if v != zero_vec]
    apex = num.apex - den.apex
    out = QSeries(num.rank, apex, {}, *num.caps())
    rem = dict(num.terms)
    heap = [(sum(v), v) for v in rem]
    heapq.heapify(heap)
    hcap, qcap = out.height_cap, out.q_cap
    steps = 0
    while heap:
        d, vec = heapq.heappop(heap)
        c = rem.pop(vec, None)
        if c is None:
            continue  # stale heap entry
        q = c * d0
        out.add_term(vec, q)
        if not out._inside(vec):
            # this quotient contribution and all its den-multiples lie
            # beyond the caps; dropping it is the truncation congruence
            continue
        q0 = vec[0]
        for dvec, dh, dc in den_rest:
            if hcap is not None and d + dh > hcap:
                continue
            if qcap is not None and q0 + dvec[0] > qcap:
                continue
            key = tuple(x + y for x, y in zip(vec, dvec))
            old = rem.get(key)
            v2 = (old or 0) - q * dc
            if v2:
                rem[key] = v2
                if old is None:
                    heapq.heappush(heap, (d + dh, key))
            elif old is not None:
                del rem[key]
        steps += 1
        if steps > qs._MAX_DIVISION_STEPS:
            raise ValueError("division does not terminate within caps; "
                             "set a height cap")
    return out


# (height_cap, q_cap): height cap only, q cap only, both
CAP_PAIRS = [(8, None), (None, 3), (8, 3)]
SMALL = st.integers(-4, 4)
# magnitudes around 2^62, where the kernel leaves int64 for Python ints
HUGE = st.integers(2**62 - 4, 2**62 + 4) | st.integers(-2**70, 2**70)


@st.composite
def series_pairs(draw, n=2, coef=SMALL):
    """n random sparse series of one rank in 1..3 under one cap pair."""
    l = draw(st.integers(1, 3))
    height_cap, q_cap = draw(st.sampled_from(CAP_PAIRS))
    vec = st.tuples(*([st.integers(0, 3)] * (l + 1)))
    out = []
    for _ in range(n):
        apex = Weight.zero(l)
        for m, alpha in zip(draw(st.lists(st.integers(-2, 2), min_size=l + 1,
                                          max_size=l + 1)),
                            simple_roots_I(l)):
            apex = apex + alpha.scale(m)
        s = QSeries(l, apex, {}, height_cap, q_cap)
        for v, c in draw(st.lists(st.tuples(vec, coef), max_size=8)):
            s.add_term(v, c)
        out.append(s)
    return out


@given(series_pairs())
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(pair):
    a, b = pair
    assert qs.mul(a, b) == _reference_mul(a, b)


@given(series_pairs())
@settings(max_examples=60, deadline=None)
def test_mul_merges_chunks(pair):
    # a tiny chunk makes every product merge one factor term at a time
    a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "_CHUNK", 1)
        assert qs.mul(a, b) == _reference_mul(a, b)


def test_mul_large_operands():
    # operands of ~10^3 terms: more candidate pairs than one chunk holds
    l = 2
    alphas = simples(l)
    a = qs.mul(*[qs.geometric_factor(x, 16, None) for x in alphas])
    b = qs.mul(qs.binomial_factor((1, 1, 0), 1, 16, None),
               *[qs.geometric_factor(x, 16, None) for x in alphas[1:]])
    b = qs.mul(b, b)
    assert len(a.terms) * len(b.terms) > qs._CHUNK
    assert qs.mul(a, b) == _reference_mul(a, b)


@given(series_pairs(n=4))
@settings(max_examples=60, deadline=None)
def test_nary_mul_is_left_fold(series):
    a, b, c, d = series
    fold = _reference_mul(_reference_mul(_reference_mul(a, b), c), d)
    assert qs.mul(a, b, c, d) == fold
    assert qs.mul(qs.mul(qs.mul(a, b), c), d) == fold


@given(series_pairs(coef=SMALL | HUGE))
@settings(max_examples=80, deadline=None)
def test_mul_exact_beyond_int64(pair):
    a, b = pair
    assert qs.mul(a, b) == _reference_mul(a, b)


def test_mul_coefficients_near_two_to_62():
    l = 1
    alpha = simple(l, 1)
    for big in (2**60 - 1, 2**62 - 1, 2**62, 2**63 + 5, -(2**90)):
        a = qs.binomial_factor(alpha, -1, 6, None)
        a.terms[(0, 0)] = big
        b = qs.binomial_factor(alpha, 3, 6, None)
        prod = qs.mul(a, b, b)
        assert prod == _reference_mul(_reference_mul(a, b), b)
        assert all(type(c) is int for c in prod.terms.values())
        assert prod.terms[(0, 0)] == big


def test_mul_rejects_codes_wider_than_int64():
    # three coordinates spread over 2^21 each need more than 62 bits
    l = 3
    a = QSeries(l, Weight.zero(l), {(0, 2**21, 2**21, 2**21): 1}, None, 5)
    b = QSeries.one(l, None, 5)
    b.add_term((0, 2**21, 2**21, 2**21), 1)
    with pytest.raises(ValueError, match="int64"):
        qs.mul(a, b)


def test_mul_falls_back_to_true_maxima_when_the_summed_bound_overflows(
        monkeypatch):
    # nine factors 1 - e^{-v}: the coordinate bound summed over the fold
    # reaches 9 * 60 = 540 in seven coordinates, which does not pack, but
    # under q cap 2 every partial product is 1 - j e^{-v}
    l = 7
    v = (2,) + (60,) * l
    factor = qs.binomial_factor(v, -1, None, 2)
    want = QSeries.one(l, None, 2)
    want.add_term(v, -9)
    spans, strides = [], qs._strides
    monkeypatch.setattr(qs, "_strides",
                        lambda span: spans.append(span[1]) or strides(span))
    assert qs.mul(*[factor] * 9) == want
    # each step takes the summed bound while it packs (up to 6 * 60), the
    # true maxima at the step where it does not, and the summed bound again
    # from there
    assert spans == [120, 180, 240, 300, 360, 120, 180, 240]


def test_mul_empty_and_out_of_cap_operands():
    l = 2
    one = QSeries.one(l, 4, None)
    empty = QSeries(l, Weight.zero(l), {}, 4, None)
    assert qs.mul(one, one, empty).is_zero()
    outside = QSeries(l, Weight.zero(l), {(2, 2, 1): 7}, 4, None)
    assert qs.mul(outside, one).is_zero()


def test_monomial_multiplication():
    l = 2
    lam = from_dynkin_labels(l, (1, 0, 0))
    mu = from_dynkin_labels(l, (0, 1, 0))
    prod = qs.mul(QSeries.monomial(lam, 1, **CAPS), QSeries.monomial(mu, 1, **CAPS))
    assert prod == QSeries.monomial(lam + mu, 1, **CAPS)


@given(sparse_series())
@settings(max_examples=40)
def test_one_is_neutral(a):
    assert qs.mul(a, QSeries.one(2, *a.caps())) == a


def test_geometric_series_inverts_binomial():
    l = 1
    alpha = simple(l, 1)
    b = qs.binomial_factor(alpha, -1, 12, None)
    g = qs.geometric_factor(alpha, 12, None)
    assert qs.mul(b, g) == QSeries.one(l, 12, None)


@given(sparse_series(), sparse_series(), sparse_series())
@settings(max_examples=30, deadline=None)
def test_ring_axioms(a, b, c):
    assert qs.mul(a, b) == qs.mul(b, a)
    assert qs.mul(qs.mul(a, b), c) == qs.mul(a, qs.mul(b, c))
    lhs = qs.mul(a, qs.add(b, c))
    rhs = qs.add(qs.mul(a, b), qs.mul(a, c))
    assert lhs == rhs


@given(sparse_series(height_cap=10), sparse_series(height_cap=10))
@settings(max_examples=30, deadline=None)
def test_truncation_is_multiplicative(a, b):
    # truncating inputs to a lower cap then multiplying equals multiplying
    # then truncating
    def cut(s, h):
        out = QSeries(s.rank, s.apex, {}, h, s.q_cap)
        for v, c in s.terms.items():
            out.add_term(v, c)
        return out

    low = 5
    direct = cut(qs.mul(a, b), low)
    trunced = qs.mul(cut(a, low), cut(b, low))
    assert direct == trunced


# inverses by graded division of 1, under a height cap alone

def test_invert_examples():
    l = 1
    alpha = simple(l, 1)
    one = QSeries.one(l, 9, None)
    inv = qs.divide(one, qs.binomial_factor(alpha, -1, 9, None))
    assert inv == qs.geometric_factor(alpha, 9, None)
    r = rho(l)
    inv_mono = qs.divide(one, QSeries.monomial(r, 1, 9, None))
    assert inv_mono == QSeries.monomial(-r, 1, 9, None)


@given(sparse_series())
@settings(max_examples=30, deadline=None)
def test_invert_round_trip(a):
    a.terms[(0,) * 3] = 1  # force a unit leading coefficient
    one = QSeries.one(2, *a.caps())
    assert qs.mul(a, qs.divide(one, a)) == one


def test_invert_requires_unit():
    l = 1
    s = qs.binomial_factor(simple(l, 1), -1, 6, None)
    s.terms[(0, 0)] = 2
    with pytest.raises(ValueError):
        qs.divide(QSeries.one(l, 6, None), s)


# the level-by-level division kernel against the dict-and-heap oracle

def _unit_lead(s: QSeries, sign) -> QSeries:
    s.terms[(0,) * (s.rank + 1)] = sign
    return s


@given(st.sampled_from([(8, None), (8, 3)]).flatmap(
    lambda caps: st.tuples(sparse_series(2, *caps), sparse_series(2, *caps))),
    st.sampled_from([1, -1]))
@settings(max_examples=150, deadline=None)
def test_divide_matches_reference(pair, sign):
    num, den = pair
    den = _unit_lead(den, sign)
    quot = qs.divide(num, den)
    ref = _reference_divide(num, den)
    assert quot == ref
    assert list(quot.terms) == list(ref.terms)  # same emission order


@given(sparse_series(2, None, 3), sparse_series(2, None, 3),
       st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_divide_exact_product_under_q_cap_alone(a, b, sign):
    # a finite quotient ends the division with no height cap
    b = _unit_lead(b, sign)
    prod = qs.mul(a, b)
    assert qs.divide(prod, b) == _reference_divide(prod, b) == a


@pytest.mark.parametrize("l,k,depth", [(3, 2, 4), (2, 4, 5)])
def test_characters_match_reference_division(l, k, depth):
    # every weight of the exact-division benchmark's tables, at reduced depth
    from kacmod.characters import (CharacterRequest, anti_invariant, character,
                                   default_height_cap)
    from kacmod.roots import RootSystemCtx, enumerate_dominant

    ctx = RootSystemCtx.build(l)
    hcap = default_height_cap(l, k, depth)
    for sharp in ("I", "II"):
        den = {tw: anti_invariant(Weight.zero(l), sharp, tw, depth, hcap)
               for tw in (False, True)}
        for lam in enumerate_dominant(l, k):
            for tw in (False, True):
                req = CharacterRequest(ctx, lam, k, sharp, tw, depth)
                num = anti_invariant(req.lam, sharp, tw, depth, hcap)
                assert character(req) == _reference_divide(num, den[tw])


def test_divide_exact_beyond_int64():
    # coefficients near 2^61 over a divisor with coefficients 3: the quotient
    # grows past 2^63, so only the object path can hold it
    l = 2
    alphas = simples(l)
    num = qs.mul(*[qs.binomial_factor(x, 1, 10, 2) for x in alphas])
    for vec in num.terms:
        num.terms[vec] *= 2**61 - 1
    for sign in (1, -1):
        den = QSeries.one(l, 10, 2)
        den.terms[(0,) * (l + 1)] = sign
        for x in alphas:
            den.add_term(x, 3)
        quot = qs.divide(num, den)
        assert quot == _reference_divide(num, den)
        assert max(map(abs, quot.terms.values())) > 2**63
        assert all(type(c) is int for c in quot.terms.values())


def test_divide_caps_its_steps(monkeypatch):
    l = 1
    alpha = simple(l, 1)
    # 10 quotient terms under a height cap of 9
    monkeypatch.setattr(qs, "_MAX_DIVISION_STEPS", 5)
    with pytest.raises(ValueError, match="does not terminate"):
        qs.divide(QSeries.one(l, 9, None),
                  qs.binomial_factor(alpha, -1, 9, None))
    # a q cap alone cannot stop the geometric series along alpha_1
    monkeypatch.setattr(qs, "_MAX_DIVISION_STEPS", 50)
    with pytest.raises(ValueError, match="does not terminate"):
        qs.divide(QSeries.one(l, None, 2),
                  qs.binomial_factor(alpha, -1, None, 2))


def test_divide_rejects_codes_wider_than_int64():
    # ten coordinates of one level at 100 each need more than 62 bits
    l = 9
    num = QSeries(l, Weight.zero(l), {}, 100, None)
    for j in range(l + 1):
        num.add_term(tuple(100 * (i == j) for i in range(l + 1)), 1)
    den = qs.binomial_factor(simple(l, 1), -1, 100, None)
    with pytest.raises(ValueError, match="int64"):
        qs.divide(num, den)


def test_divide_runs_apart_from_the_product_kernel(monkeypatch):
    # the benchmark judges a quotient by re-multiplying it with qs.mul, so the
    # two routes must not share a kernel
    def refuse(*args):
        raise AssertionError("divide reached the product kernel")

    l = 2
    alphas = simples(l)
    num = qs.mul(*[qs.binomial_factor(x, -1, 8, 3) for x in alphas])
    den = qs.binomial_factor(alphas[1], -1, 8, 3)
    want = _reference_divide(num, den)
    monkeypatch.setattr(qs, "mul", refuse)
    monkeypatch.setattr(qs, "_mul_arrays", refuse)
    assert qs.divide(num, den) == want


def test_divide_grows_its_radix_without_a_height_cap(monkeypatch):
    # 1/(1 - e^{-beta}) under a q cap alone: the quotient's coordinates grow
    # past the first radix (num's and den's maxima), and each widening
    # doubles the coordinates exceeded.  At rank 9 with beta = (1, 30, ...)
    # and q cap 3 a doubled radix would not pack, so the last widening stops
    # at the quotient's maxima plus beta
    spans, levels = [], []
    widen, block_pairs = qs._widen, qs._block_pairs
    monkeypatch.setattr(qs, "_widen",
                        lambda *args: spans.append(widen(*args)) or spans[-1])
    monkeypatch.setattr(qs, "_block_pairs",
                        lambda *args: levels.append(1) or block_pairs(*args))
    for beta, q_cap, radix in (
            ((1, 50, 60), 2, (2, 100, 120)),
            ((1, 50, 60), 3, (3, 200, 240)),
            ((1,) + (1000,) * 5, 2, (2,) + (2000,) * 5),
            ((1,) + (30,) * 9, 3, (3,) + (90,) * 9)):
        spans.clear()
        levels.clear()
        l = len(beta) - 1
        num = QSeries.one(l, None, q_cap)
        den = qs.binomial_factor(beta, -1, None, q_cap)
        want = QSeries.one(l, None, q_cap)
        for j in range(1, q_cap + 1):
            want.add_term(tuple(j * b for b in beta), 1)
        assert qs.divide(num, den) == _reference_divide(num, den) == want
        assert tuple(spans[-1].tolist()) == radix
        # the walk ends once no quotient row has q room for beta
        assert len(levels) == q_cap * sum(beta) + 1
    # with nothing in den below its apex the first radix still holds num
    num = QSeries(2, Weight.zero(2), {(0, 1, 1): 1, (1, 0, 2): -1}, None, 3)
    assert qs.divide(num, QSeries.one(2, None, 3)) == num


def _q_sorted_levels(draw, count, q_max):
    """count levels of random q coordinates, each sorted; (q, start)."""
    levels = [sorted(draw(st.lists(st.integers(0, q_max), max_size=4)))
              for _ in range(count)]
    start = np.cumsum([0] + [len(x) for x in levels])
    return np.array(sum(levels, []), dtype=np.int64), start


@given(st.data(), st.sampled_from([None, 0, 1, 2, 4]))
@settings(max_examples=200, deadline=None)
def test_block_pairs_are_the_pairs_inside_the_q_cap(data, q_cap):
    # divide's runs against every pair of the blocks, cut to the q cap
    q_max = 4 if q_cap is None else q_cap
    dq, dstart = _q_sorted_levels(data.draw, data.draw(st.integers(1, 4)),
                                  q_max)
    qq, qstart = _q_sorted_levels(data.draw, data.draw(st.integers(1, 4)),
                                  q_max)
    blocks = data.draw(st.lists(st.tuples(
        st.integers(0, len(qstart) - 2), st.integers(0, len(dstart) - 2)),
        max_size=5))
    s = np.array([b[0] for b in blocks], dtype=np.intp)
    t = np.array([b[1] for b in blocks], dtype=np.intp)
    pre = qs._q_prefix(dq, dstart, q_cap)
    room = (np.zeros(len(qq), dtype=np.intp) if q_cap is None
            else q_cap - qq)
    i, k = qs._block_pairs(qstart[s], qstart[s + 1] - qstart[s], t, dstart,
                           pre, room)
    want = [(a, b) for sb, tb in blocks
            for a in range(qstart[sb], qstart[sb + 1])
            for b in range(dstart[tb], dstart[tb + 1])
            if q_cap is None or qq[a] + dq[b] <= q_cap]
    assert list(zip(i.tolist(), k.tolist())) == want


def test_add_requires_lattice_apex_difference():
    l = 1
    a = QSeries.monomial(Weight((Fraction(1, 3),)), 1, **CAPS)
    b = QSeries.one(l, **CAPS)
    with pytest.raises(ValueError):
        qs.add(a, b)


def test_add_over_componentwise_max_apex():
    l = 1
    alpha0, alpha1 = simple_roots_I(l)
    a = QSeries.monomial(alpha0, 1, **CAPS)       # apex alpha_0
    b = QSeries.monomial(alpha1.scale(2), 3, **CAPS)
    s = qs.add(a, b)
    assert s.apex == alpha0 + alpha1.scale(2)
    # alpha0 = apex - 2 alpha1, 2 alpha1 = apex - alpha0
    assert s.terms == {(0, 2): 1, (1, 0): 3}


def test_delta_expansion():
    l = 1
    lam = from_dynkin_labels(l, (1, 0))
    mono = QSeries.monomial(lam, 1, **CAPS)
    exp = qs.delta_expansion(mono)
    assert exp == {Fraction(0): [(lam, 1)]}
    # slice totals add up to the full term count
    s = qs.mul(qs.binomial_factor(simple(l, 0), -1, 8, None),
               qs.geometric_factor(simple(l, 1), 8, None))
    exp = qs.delta_expansion(s)
    assert sum(len(v) for v in exp.values()) == len(s.terms)


def test_weyl_polynomial_constant_slice():
    # q-degree-0 slice of the l=1 denominator product: e^rho (1 - e^{-eps_1}),
    # matching the finite Weyl sum sum_u eps(u) e^{u(rho)}
    from kacmod.characters import denominator_product

    prod = denominator_product(1, False, 6, None)
    slice0 = qs.delta_expansion(prod)[Fraction(0)]
    r = rho(1)
    apex_delta = prod.apex.delta
    want = {
        (r + Weight.delta_weight(1).scale(apex_delta)): 1,
        (r - Weight.eps_basis(1, 1)
         + Weight.delta_weight(1).scale(apex_delta)): -1,
    }
    assert {w: c for w, c in slice0} == want


def test_diff_report():
    l = 1
    a = QSeries.one(l, 6, None)
    b = qs.binomial_factor(simple(l, 0), -1, 6, None)
    rep = qs.diff_report(a, b)
    assert not rep["equal"] and rep["first_mismatch_q"] == 1
    assert qs.diff_report(a, a)["equal"]
