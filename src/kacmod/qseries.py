"""Truncated exact arithmetic in the group algebra of weights.

A QSeries is a finite sum of integer multiples of e^w with all w inside the
cone apex - Z_{>=0}.Pi, stored as a map from height vectors (n_0..n_l) to
integer coefficients (term weight = apex - sum n_i alpha_i^(I)).

Truncation: terms with total height > height_cap and/or n_0 > q_cap are
discarded.  Both filtrations are multiplicative, so every operation is an
exact computation in the corresponding quotient ring.  At least one cap must
be set; the q cap alone suffices whenever all factors are polynomials (theta
sums, denominator products), while the height cap is required for objects
with infinite q-slices (Verma characters, unit inversion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import Weight, frac_to_str, weight_to_json
from .roots import root_coords, simple_roots_I

_MAX_DIVISION_STEPS = 2_000_000


@dataclass
class QSeries:
    rank: int
    apex: Weight
    terms: dict = field(default_factory=dict)
    height_cap: int | None = None
    q_cap: int | None = None

    def __post_init__(self):
        if self.height_cap is None and self.q_cap is None:
            raise ValueError("at least one truncation cap must be set")

    # -- basics --------------------------------------------------------------

    def caps(self):
        return (self.height_cap, self.q_cap)

    def _inside(self, vec):
        if self.height_cap is not None and sum(vec) > self.height_cap:
            return False
        if self.q_cap is not None and vec[0] > self.q_cap:
            return False
        return True

    def copy(self):
        return QSeries(self.rank, self.apex, dict(self.terms),
                       self.height_cap, self.q_cap)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.rank == other.rank and self.apex == other.apex
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def weight_of(self, vec) -> Weight:
        w = self.apex
        for n, alpha in zip(vec, simple_roots_I(self.rank)):
            if n:
                w = w - alpha.scale(n)
        return w

    def sorted_items(self):
        return sorted(self.terms.items())

    def coefficient(self, w: Weight) -> int:
        off = root_coords(self.apex - w)
        if off is None or any(n < 0 for n in off):
            return 0
        return self.terms.get(off, 0)

    def set_term(self, vec, c):
        if c and self._inside(vec):
            self.terms[vec] = c
        else:
            self.terms.pop(vec, None)

    def add_term(self, vec, c):
        if not self._inside(vec):
            return
        c0 = self.terms.get(vec, 0) + c
        if c0:
            self.terms[vec] = c0
        else:
            self.terms.pop(vec, None)

    def shift_apex_delta(self, s) -> "QSeries":
        """Multiply by e^{s delta}: the apex delta coefficient moves by s."""
        apex = Weight(self.apex.eps, self.apex.delta + Fraction(s),
                      self.apex.lambda0)
        return QSeries(self.rank, apex, dict(self.terms),
                       self.height_cap, self.q_cap)

    def max_height(self):
        return max((sum(v) for v in self.terms), default=0)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def monomial(w: Weight, coeff=1, height_cap=None, q_cap=None) -> "QSeries":
        s = QSeries(w.rank, w, {}, height_cap, q_cap)
        s.add_term((0,) * (w.rank + 1), coeff)
        return s

    @staticmethod
    def one(l, height_cap=None, q_cap=None) -> "QSeries":
        return QSeries.monomial(Weight.zero(l), 1, height_cap, q_cap)


def _check_compatible(a: QSeries, b: QSeries):
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    if a.caps() != b.caps():
        raise ValueError(f"truncation mismatch: {a.caps()} vs {b.caps()}")


def _apex_offset(a: QSeries, b: QSeries):
    off = root_coords(a.apex - b.apex)
    if off is None:
        raise ValueError("apex difference is not in the root lattice")
    return off


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum over the componentwise-max apex of the two cones."""
    _check_compatible(a, b)
    off = _apex_offset(a, b)  # a.apex - b.apex in alpha coordinates
    lift_a = tuple(max(0, -n) for n in off)
    lift_b = tuple(max(0, n) for n in off)
    apex = a.weight_of(tuple(-n for n in lift_a))
    out = QSeries(a.rank, apex, {}, *a.caps())
    for vec, c in a.terms.items():
        out.add_term(tuple(v + s for v, s in zip(vec, lift_a)), c)
    for vec, c in b.terms.items():
        out.add_term(tuple(v + s for v, s in zip(vec, lift_b)), c)
    return out


def neg(a: QSeries) -> QSeries:
    return QSeries(a.rank, a.apex, {v: -c for v, c in a.terms.items()},
                   *a.caps())


def sub(a: QSeries, b: QSeries) -> QSeries:
    return add(a, neg(b))


def mul(a: QSeries, b: QSeries) -> QSeries:
    """Convolution of height vectors over the apex sum."""
    _check_compatible(a, b)
    out = QSeries(a.rank, a.apex + b.apex, {}, *a.caps())
    if not a.terms or not b.terms:
        return out
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


def scalar_mul(c: int, a: QSeries) -> QSeries:
    if c == 0:
        return QSeries(a.rank, a.apex, {}, *a.caps())
    return QSeries(a.rank, a.apex, {v: c * x for v, x in a.terms.items()},
                   *a.caps())


def divide(num: QSeries, den: QSeries) -> QSeries:
    """Graded long division num/den; den must have coefficient +-1 at its
    apex.  Quotient terms are emitted in increasing total height, which makes
    every emission final (den has no other height-0 term).  Exact in the
    truncated ring; raises if the division does not terminate within the caps
    (the quotient then has unbounded support and a height cap is required)."""
    import heapq

    _check_compatible(num, den)
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
        if steps > _MAX_DIVISION_STEPS:
            raise ValueError("division does not terminate within caps; "
                             "set a height cap")
    return out


def invert_unit(a: QSeries) -> QSeries:
    """Inverse of a series with +-1 coefficient at its apex."""
    if a.height_cap is None:
        raise ValueError("invert_unit requires a height cap")
    return divide(QSeries.one(a.rank, *a.caps()), a)


def binomial_factor(root: Weight, sign=-1, height_cap=None, q_cap=None) -> QSeries:
    """1 + sign * e^{-root} for a positive root."""
    l = root.rank
    vec = root_coords(root)
    if vec is None or any(n < 0 for n in vec):
        raise ValueError("expected a positive root-lattice element")
    s = QSeries.one(l, height_cap, q_cap)
    s.add_term(vec, sign)
    return s


def geometric_factor(root: Weight, height_cap=None, q_cap=None) -> QSeries:
    """(1 - e^{-root})^{-1} = sum_j e^{-j root}, truncated."""
    l = root.rank
    vec = root_coords(root)
    if vec is None or any(n < 0 for n in vec) or all(n == 0 for n in vec):
        raise ValueError("expected a nonzero positive root-lattice element")
    if height_cap is None and (q_cap is None or vec[0] == 0):
        raise ValueError("geometric series needs a height cap in this direction")
    s = QSeries.one(l, height_cap, q_cap)
    j = 1
    while True:
        key = tuple(j * n for n in vec)
        if not s._inside(key):
            break
        s.terms[key] = 1
        j += 1
    return s


def delta_expansion(a: QSeries) -> dict:
    """Group terms by n_0, the delta depth below the apex.  Keys are
    Fractions; values are lists of (weight, coefficient) sorted by the
    remaining height vector."""
    out = {}
    for vec, c in a.sorted_items():
        out.setdefault(Fraction(vec[0]), []).append((a.weight_of(vec), c))
    return out


def qexpansion_json(a: QSeries) -> list:
    """q-expansion with absolute rational q-degrees (q = e^{-delta});
    the apex contributes -apex.delta."""
    base = -Fraction(a.apex.delta)
    out = []
    for q, pairs in sorted(delta_expansion(a).items()):
        out.append({
            "q_degree": frac_to_str(base + q),
            "terms": [{"weight": weight_to_json(w), "coeff": c}
                      for w, c in pairs],
        })
    return out


def diff_report(a: QSeries, b: QSeries) -> dict:
    """Termwise difference; identifies the first mismatching q-degree."""
    d = sub(a, b)
    if d.is_zero():
        return {"equal": True, "mismatches": 0, "first_mismatch_q": None}
    first = min(v[0] for v in d.terms)
    return {
        "equal": False,
        "mismatches": len(d.terms),
        "first_mismatch_q": first,
    }
