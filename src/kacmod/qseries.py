"""Truncated exact arithmetic in the group algebra of weights.

A QSeries is a finite sum of integer multiples of e^w with all w inside the
cone apex - Z_{>=0}.Pi, stored as a map from height vectors (n_0..n_l) to
integer coefficients (term weight = apex - sum n_i alpha_i^(I)).

Truncation: every series drops the terms with n_0 > q_cap, and, when it has
a height cap, those with total height > height_cap.  Both filtrations are
multiplicative, so every operation is exact in the quotient ring.  The q cap
is required; the height cap is needed only where a q-slice is infinite
(geometric series along finite roots, graded division).  As every n_i >= 0,
n_0 <= total height, so caps (H, H) give the ring of a height cap H alone.

`mul` is the one product kernel: it packs each distinct operand once into
int64 codes on the one mixed radix `fold_radix` sizes per call (coordinate 0
most significant), keeps the running product as sorted codes, decodes them
once, and keeps coefficients int64 only while max|acc| * sum|factor| < 2^62,
switching to Python-int object arrays otherwise, so no product ever wraps.

`divide` is graded long division, level by level in total height, on the
one radix `division_radix` sizes from the height and q caps: every height
vector is packed once, and each quotient level pulls its remainder from the
levels below it with pairs formed only inside the q cap.  It keeps a bound
on every partial sum that switches to Python ints before int64 could wrap,
the +-1 apex-coefficient check and a cap of _MAX_DIVISION_STEPS quotient
terms.  It calls neither `mul` nor its kernel, so checking a quotient by
re-multiplying runs two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import Weight, frac_to_str, weight_to_json
from .roots import from_root_coords

_MAX_DIVISION_STEPS = 2_000_000
_EXACT_INT64 = 1 << 62  # int64 coefficients and codes stay below this
_CHUNK = 1 << 16        # candidate pairs formed per merge round


@dataclass
class QSeries:
    rank: int
    apex: Weight
    terms: dict
    height_cap: int | None
    q_cap: int

    def __post_init__(self):
        if self.q_cap is None:
            raise ValueError("a series needs a q cap")

    # -- basics --------------------------------------------------------------

    def caps(self):
        return (self.height_cap, self.q_cap)

    def _inside(self, vec):
        return vec[0] <= self.q_cap and (self.height_cap is None
                                         or sum(vec) <= self.height_cap)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.rank == other.rank and self.apex == other.apex
                and self.terms == other.terms)

    def weight_of(self, vec) -> Weight:
        return self.apex - from_root_coords(vec)

    def sorted_items(self):
        return sorted(self.terms.items())

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
        apex = self.apex + Weight.delta_weight(self.rank).scale(s)
        return QSeries(self.rank, apex, dict(self.terms),
                       self.height_cap, self.q_cap)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def monomial(w: Weight, coeff, height_cap, q_cap) -> "QSeries":
        s = QSeries(w.rank, w, {}, height_cap, q_cap)
        s.add_term((0,) * (w.rank + 1), coeff)
        return s

    @staticmethod
    def one(l, height_cap, q_cap) -> "QSeries":
        return QSeries.monomial(Weight.zero(l), 1, height_cap, q_cap)


def _check_compatible(a: QSeries, b: QSeries):
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    if a.caps() != b.caps():
        raise ValueError(f"truncation mismatch: {a.caps()} vs {b.caps()}")


def _check_one_apex(a: QSeries, b: QSeries):
    _check_compatible(a, b)
    if a.apex != b.apex:
        raise ValueError(f"apex mismatch: {a.apex} vs {b.apex}")


def add(a: QSeries, b: QSeries) -> QSeries:
    """Sum of two series of one ring over one apex.  Raises ValueError when
    the ranks, caps or apexes differ."""
    _check_one_apex(a, b)
    out = QSeries(a.rank, a.apex, {}, *a.caps())
    for s in (a, b):
        for vec, c in s.terms.items():
            out.add_term(vec, c)
    return out


def mul(a: QSeries, b: QSeries, *more: QSeries) -> QSeries:
    """Product of two or more series over the apex sum: a left fold on the
    one radix `fold_radix` sizes, each distinct operand packed once and the
    running product kept as sorted codes, decoded once at the end."""
    factors = (a, b) + more
    apex = a.apex
    for f in factors[1:]:
        _check_compatible(a, f)
        apex = apex + f.apex
    out = QSeries(a.rank, apex, {}, *a.caps())
    distinct = {id(f): f for f in factors}  # [f] * mult repeats one object
    arrays = {key: _as_arrays(f) for key, f in distinct.items()}
    if any(not len(t.coefs) for t in arrays.values()):
        return out
    span, strides = fold_radix([arrays[id(f)] for f in factors], *out.caps())
    packed = {key: (t.coords @ strides, t.coefs, t.heights,
                    int(np.abs(t.coefs).sum(dtype=object)))
              for key, t in arrays.items()}
    acc = tuple(np.array([[0], [1], [0]]))  # the series 1: code, coef, height
    for f in factors:
        acc = _fold_step(*acc, packed[id(f)], *out.caps(), strides[0])
        if not len(acc[0]):
            return out
    codes, coefs, _ = acc
    coords = codes[:, None] // strides % (span + 1)
    out.terms = dict(zip(map(tuple, coords.tolist()), coefs.tolist()))
    return out


class _Terms(NamedTuple):
    coords: np.ndarray   # (n, l+1) int64 height vectors
    coefs: np.ndarray    # (n,) int64, or object holding Python ints
    heights: np.ndarray  # (n,) int64 total heights


def _as_arrays(s: QSeries) -> _Terms:
    """The nonzero terms of s inside its caps; coefficients are int64 when
    every magnitude is below _EXACT_INT64."""
    vals = list(s.terms.values())
    big = max(map(abs, vals), default=0) >= _EXACT_INT64
    coefs = np.array(vals, dtype=object if big else np.int64)
    coords = np.array(list(s.terms), dtype=np.int64).reshape(len(vals),
                                                             s.rank + 1)
    if len(vals) and coords.min() < 0:
        raise ValueError("height vectors must be nonnegative")
    heights = coords.sum(1)
    keep = (coefs != 0) & (coords[:, 0] <= s.q_cap)
    if s.height_cap is not None:
        keep &= heights <= s.height_cap
    return _Terms(coords[keep], coefs[keep], heights[keep])


def _strides(span) -> np.ndarray:
    """Mixed-radix strides packing coordinate j in 0..span[j] into int64
    codes below _EXACT_INT64 (else ValueError), coordinate 0 most significant:
    code order is lexicographic order, and a sum of vectors a sum of codes."""
    strides = [1]
    for r in span[:0:-1]:
        strides.insert(0, strides[0] * (int(r) + 1))
    if strides[0] * (int(span[0]) + 1) > _EXACT_INT64:
        raise ValueError("height vectors too far apart to pack into int64 "
                         f"codes (coordinate maxima {span.tolist()})")
    return np.array(strides, dtype=np.int64)


def fold_radix(arrays, height_cap, q_cap):
    """(span, strides) of the one radix of a fold of arrays (the factors'
    nonempty `_Terms`, repeats included) under the caps.  Coordinate j of a
    partial product is at most the least of the maxima summed, height_cap,
    and sum_f (f's largest c_j at q = 0) + the largest
    floor(q_cap c_j / q) at q > 0, as each factor gives a q = 0 term or one
    with c_j <= q times the largest ratio and the q's add up to at most q_cap.
    Python ints keep every bound exact; ValueError if the radix won't pack."""
    coords = np.concatenate([t.coords for t in arrays])
    starts = np.cumsum([0] + [len(t.coords) for t in arrays[:-1]])
    span = np.maximum.reduceat(coords, starts).sum(0, dtype=object)
    if height_cap is not None:
        span = np.minimum(span, height_cap)
    moving = coords[:, 0] > 0
    flat = np.maximum.reduceat(np.where(moving[:, None], 0, coords),
                               starts).sum(0, dtype=object)
    ratio = coords[moving].astype(object)
    span = np.minimum(span, flat + (q_cap * ratio
                                    // ratio[:, :1]).max(0, initial=0))
    strides = _strides(span)
    return span.astype(np.int64), strides


def _fold_step(codes, coefs, heights, f, height_cap, q_cap, q_stride):
    """The running product (sorted codes, coefficients, total heights under
    a height cap) times packed f = (codes, coefficients, heights,
    sum |coefficient|), cut to the caps chunk by chunk over f's rows: each
    row gives one sorted run of the pairs inside the caps, one stable
    argsort (timsort) merges the runs and np.add.reduceat sums equal codes.
    Coefficients are int64 while max|acc| * sum|f| < 2^62, else Python ints."""
    fcodes, fcoefs, fheights, fsum = f
    bound = int(np.abs(coefs).max()) * fsum
    dtype = np.int64 if bound < _EXACT_INT64 else object
    coefs, fcoefs = (c.astype(dtype, copy=False) for c in (coefs, fcoefs))
    # q leads the code, so the rows with q room for fq form a prefix
    room = np.searchsorted(codes, q_stride * (1 + np.minimum(
        q_cap - fcodes // q_stride, codes[-1] // q_stride)))
    out_codes = out_heights = np.zeros(0, dtype=np.int64)
    out_coefs = np.zeros(0, dtype=dtype)
    step = max(1, _CHUNK // len(codes))
    for lo in range(0, len(fcodes), step):
        rows = slice(lo, lo + step)
        keep = np.arange(len(codes)) < room[rows, None]
        if height_cap is not None:
            pair_heights = fheights[rows, None] + heights
            keep = keep & (pair_heights <= height_cap)
        cand = np.concatenate([out_codes, (fcodes[rows, None] + codes)[keep]])
        order = np.argsort(cand, kind="stable")
        cand = cand[order]
        first = np.flatnonzero(cand != np.concatenate(([-1], cand[:-1])))
        sums = np.add.reduceat(np.concatenate(
            [out_coefs, (fcoefs[rows, None] * coefs)[keep]])[order], first)
        nonzero = sums != 0
        first = first[nonzero]
        out_codes, out_coefs = cand[first], sums[nonzero]
        if height_cap is not None:
            out_heights = np.concatenate([out_heights,
                                          pair_heights[keep]])[order[first]]
    return out_codes, out_coefs, out_heights


def divide(num: QSeries, den: QSeries) -> QSeries:
    """Graded long division num/den, level by level in total height; den
    must have coefficient d0 = +-1 at its apex, and the series a height cap.
    Exact in the truncated ring.

    With N_h and D_t the terms of num and of den (apex left out) at one
    height, the quotient's level h is Q_h = d0 (N_h - sum_t Q_{h-t} D_t).
    Every height vector is packed once into an int64 code of the one radix
    `division_radix` sizes from the caps, so a pair's code is the sum of two
    stored codes.  Each level pulls its remainder from the quotient levels
    below it, forming pairs only inside the q cap: each level of den is
    sorted by q, and a quotient row of level h-t pairs with the rows of D_t
    up to the q it has room for.  The pairs' codes are merged with N_h by one
    sort and np.add.reduceat, so only one level's products are ever held
    (the sums are exact, so the order of equal codes is free).  A running
    bound max|N| + sum_h max|Q_h| sum|D| on every partial sum keeps
    coefficients int64 while it is below 2^62 and switches to Python-int
    object arrays otherwise.  The loop stops past the height cap, or once no
    term of num and no product of a quotient term with den can reach h; it
    raises after _MAX_DIVISION_STEPS quotient terms."""
    _check_compatible(num, den)
    hcap, qcap = num.caps()
    if hcap is None:
        raise ValueError("graded division needs a height cap")
    d0 = den.terms.get((0,) * (num.rank + 1), 0)
    if d0 not in (1, -1):
        raise ValueError("divisor leading coefficient at its apex must be +-1")
    span, strides = division_radix(num.rank, hcap, qcap)
    n, d = _as_arrays(num), _as_arrays(den)
    rest = d.heights > 0
    # den's other terms negated, so the remainder is N_h + sum_t Q_{h-t} D_t
    n, d = _levels(n), _levels(_Terms(d.coords[rest], -d.coefs[rest],
                                      d.heights[rest]))
    ncodes, dcodes = n.coords @ strides, d.coords @ strides
    dlevels = np.flatnonzero(np.diff(d.start))  # the heights den has rows at
    pre = _q_prefix(d.coords[:, 0], d.start, qcap)
    dsum = int(np.abs(d.coefs).sum(dtype=object))
    bound = int(np.abs(n.coefs).max()) if len(n.coefs) else 0
    qcodes = np.zeros(0, dtype=np.int64)
    qv = np.zeros(0, dtype=np.int64)
    room = np.zeros(0, dtype=np.intp)  # q cap minus each quotient row's q
    qstart = np.zeros(64, dtype=np.intp)  # level s: rows qstart[s]:qstart[s+1]
    last, h = None, 0
    while h <= hcap and (h <= n.top
                         or (last is not None and h - last <= d.top)):
        dtype = np.int64 if bound < _EXACT_INT64 else object
        t = dlevels[:np.searchsorted(dlevels, h, "right")]
        i, k = _block_pairs(qstart[h - t], qstart[h - t + 1] - qstart[h - t],
                            t, d.start, pre, room)
        codes = qcodes[i] + dcodes[k]
        coefs = (qv[i].astype(dtype, copy=False)
                 * d.coefs[k].astype(dtype, copy=False))
        if h <= n.top:
            rows = slice(n.start[h], n.start[h + 1])
            codes = np.concatenate([ncodes[rows], codes])
            coefs = np.concatenate([n.coefs[rows].astype(dtype, copy=False),
                                    coefs])
        if len(codes):
            order = np.argsort(codes)
            codes = codes[order]
            first = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
            coefs = np.add.reduceat(coefs[order], first)
            nonzero = coefs != 0
            codes, coefs = codes[first[nonzero]], coefs[nonzero]
        if h + 1 == len(qstart):
            qstart = np.resize(qstart, 2 * len(qstart))  # room for more levels
        qstart[h + 1] = qstart[h] + len(coefs)
        h += 1
        if not len(coefs):
            continue
        last = h - 1
        qcodes = np.concatenate([qcodes, codes])
        qv = np.concatenate([qv, coefs if d0 == 1 else -coefs])
        # coordinate 0 is the most significant, so a code's q is code // s_0
        room = np.concatenate([room, qcap - codes // strides[0]])
        bound += int(np.abs(coefs).max()) * dsum
        if len(qv) > _MAX_DIVISION_STEPS:
            raise ValueError("division does not terminate within "
                             f"{_MAX_DIVISION_STEPS} quotient terms")
    out = QSeries(num.rank, num.apex - den.apex, {}, hcap, qcap)
    coords = qcodes[:, None] // strides % (span + 1)
    out.terms = dict(zip(map(tuple, coords.tolist()), qv.tolist()))
    return out


def division_radix(rank, height_cap, q_cap):
    """(span, strides) of the one radix of a division under height_cap and
    q_cap (see `divide`): coordinates 1..l reach height_cap, coordinate 0
    min(q_cap, height_cap).  Raises ValueError when it does not pack into
    int64."""
    span = np.full(rank + 1, height_cap, dtype=np.int64)
    span[0] = min(q_cap, height_cap)
    return span, _strides(span)


class _Levels(NamedTuple):
    coords: np.ndarray  # (n, l+1) height vectors by total height, then
                        # lexicographically (so q-sorted within a level)
    coefs: np.ndarray   # (n,) their coefficients
    start: np.ndarray   # (top+2,) level h is rows start[h]:start[h+1]
    top: int            # the highest height present, -1 if none


def _levels(t: _Terms) -> _Levels:
    """t's terms grouped by total height, each level in lexicographic order."""
    order = np.lexsort((*t.coords.T[::-1], t.heights))
    heights = t.heights[order]
    top = int(heights[-1]) if len(heights) else -1
    start = np.searchsorted(heights, np.arange(top + 2))
    return _Levels(t.coords[order], t.coefs[order], start, top)


def _q_prefix(q, start, q_cap) -> np.ndarray:
    """pre[t, a]: the number of rows of level t (rows start[t]:start[t+1],
    sorted by q <= q_cap) with q <= a, for a in 0..q_cap."""
    levels = np.arange(len(start) - 1)
    key = np.repeat(levels, np.diff(start)) * (q_cap + 1) + q
    grid = levels[:, None] * (q_cap + 1) + np.arange(q_cap + 1)
    return np.searchsorted(key, grid, side="right") - start[:-1, None]


def _block_pairs(qlo, qn, t, dstart, pre, room):
    """Row indices (i, k) of the pairs of the blocks qlo[b]:qlo[b]+qn[b] x
    D_{t[b]} that stay inside the q cap, block by block, i major.  D_t is
    rows dstart[t]:dstart[t+1], sorted by q, and quotient row i pairs with
    its first pre[t, room[i]] rows (room[i] is the q cap less row i's q)."""
    qrows = _runs(qlo, qn)
    size = pre[np.repeat(t, qn), room[qrows]]
    return np.repeat(qrows, size), _runs(np.repeat(dstart[t], qn), size)


def _runs(lo, size):
    """The concatenated ranges lo[j]:lo[j]+size[j]."""
    return (np.arange(int(size.sum()))
            + np.repeat(lo - np.cumsum(size) + size, size))


def binomial_factor(vec, sign, height_cap, q_cap) -> QSeries:
    """1 + sign * e^{-root} for a positive root with height vector vec."""
    vec = _height_vector(vec)
    s = QSeries.one(len(vec) - 1, height_cap, q_cap)
    s.add_term(vec, sign)
    return s


def geometric_factor(vec, height_cap, q_cap) -> QSeries:
    """(1 - e^{-root})^{-1} = sum_j e^{-j root}, truncated, for a nonzero
    positive root with height vector vec."""
    vec = _height_vector(vec)
    if not any(vec):
        raise ValueError("expected a nonzero height vector")
    l = len(vec) - 1
    if height_cap is None and vec[0] == 0:
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


def _height_vector(vec) -> tuple:
    """vec as a tuple of nonnegative Python ints (n_0..n_l), l >= 1."""
    vec = tuple(vec)
    if len(vec) < 2 or not all(type(n) is int and n >= 0 for n in vec):
        raise ValueError(
            f"expected a height vector of nonnegative ints, got {vec}")
    return vec


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
    """Termwise difference of two series of one ring over one apex;
    identifies the first mismatching q-degree.  Raises ValueError when the
    ranks, caps or apexes differ."""
    _check_one_apex(a, b)
    ta, tb = a.terms, b.terms
    diff = [] if ta == tb else [
        v for v in ta.keys() | tb.keys()
        if ta.get(v, 0) != tb.get(v, 0) and a._inside(v)]
    if not diff:
        return {"equal": True, "mismatches": 0, "first_mismatch_q": None}
    first = min(v[0] for v in diff)
    return {
        "equal": False,
        "mismatches": len(diff),
        "first_mismatch_q": first,
    }
