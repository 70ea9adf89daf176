"""Truncated exact arithmetic in the group algebra of weights.

A QSeries is a finite sum of integer multiples of e^w with all w inside the
cone apex - Z_{>=0}.Pi, stored as a map from height vectors (n_0..n_l) to
integer coefficients (term weight = apex - sum n_i alpha_i^(I)).

Truncation: terms with total height > height_cap and/or n_0 > q_cap are
discarded.  Both filtrations are multiplicative, so every operation is an
exact computation in the corresponding quotient ring.  At least one cap must
be set; the q cap alone suffices whenever all factors are polynomials (theta
sums, denominator products), while the height cap is required for objects
with infinite q-slices (geometric series along finite roots, graded
division).

`mul` is the one product kernel: it packs each height vector into one int64
code (a mixed radix sized per step from the summed coordinate bounds, or from
the running product's true maxima when those do not pack; coordinate 0 most
significant) and keeps coefficients int64 only while
max|acc| * sum|factor| < 2^62, switching to Python-int object arrays
otherwise, so no product ever wraps.

`divide` is graded long division, level by level in total height, on one
radix grown from the coordinate maxima within the caps: every height vector
is packed once (and again only when the radix widens, a few times per
division), and each quotient level pulls its remainder from the levels
below it with pairs formed only inside the q cap.  It keeps a bound on
every partial sum that switches to Python ints before int64 could wrap, the
+-1 apex-coefficient check and a cap of _MAX_DIVISION_STEPS quotient terms.
It calls neither `mul` nor its kernel, so checking a quotient by
re-multiplying runs two independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import Weight, frac_to_str, weight_to_json
from .roots import from_root_coords, root_coords

_MAX_DIVISION_STEPS = 2_000_000
_EXACT_INT64 = 1 << 62  # int64 coefficients and codes stay below this
_CHUNK = 1 << 16        # candidate pairs formed per merge round


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

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.rank == other.rank and self.apex == other.apex
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

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


def mul(a: QSeries, b: QSeries, *more: QSeries) -> QSeries:
    """Product of two or more series over the apex sum, folded left to right
    with the running product held as arrays."""
    factors = (a, b) + more
    apex = a.apex
    for f in factors[1:]:
        _check_compatible(a, f)
        apex = apex + f.apex
    out = QSeries(a.rank, apex, {}, *a.caps())
    arrays = [_as_arrays(f) for f in factors]
    if any(not len(f.coefs) for f in arrays):
        return out
    acc = arrays[0]
    for f in arrays[1:]:
        acc = _mul_arrays(acc, f, out.height_cap, out.q_cap)
        if not len(acc.coefs):
            return out
    out.terms = dict(zip(map(tuple, acc.coords.tolist()), acc.coefs.tolist()))
    return out


class _Terms(NamedTuple):
    coords: np.ndarray   # (n, l+1) int64 height vectors
    coefs: np.ndarray    # (n,) int64, or object holding Python ints
    heights: np.ndarray  # (n,) int64 total heights
    span: np.ndarray     # (l+1,) int64 bound on each coordinate


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
    keep = coefs != 0
    if s.height_cap is not None:
        keep &= heights <= s.height_cap
    if s.q_cap is not None:
        keep &= coords[:, 0] <= s.q_cap
    coords = coords[keep]
    return _Terms(coords, coefs[keep], heights[keep], coords.max(0, initial=0))


def _packs(span) -> bool:
    """Whether height vectors with coordinate j in 0..span[j] pack into
    int64 codes."""
    return math.prod(int(r) + 1 for r in span) <= _EXACT_INT64


def _strides(span) -> np.ndarray:
    """Mixed-radix strides packing height vectors with coordinate j in
    0..span[j] into int64 codes, coordinate 0 most significant, so code order
    is lexicographic order and a sum of vectors is a sum of codes."""
    if not _packs(span):
        raise ValueError("height vectors too far apart to pack into int64 "
                         f"codes (coordinate maxima {span.tolist()})")
    strides = [1]
    for r in span[:0:-1]:
        strides.insert(0, strides[0] * (int(r) + 1))
    return np.array(strides, dtype=np.int64)


def _mul_arrays(acc: _Terms, f: _Terms, height_cap, q_cap) -> _Terms:
    """One product step.  Height vectors are packed into int64 codes with a
    mixed radix just wide enough for the product (coordinate 0 most
    significant), so a sum of vectors is a sum of codes and code order is
    lexicographic order.  Candidate pairs are formed chunk by chunk over the
    factor, cut to the caps, and merged into the sorted running result; the
    result's rows are gathered from one source pair per surviving code."""
    bound = (int(np.abs(acc.coefs).max())
             * int(np.abs(f.coefs).sum(dtype=object)))
    dtype = np.int64 if bound < _EXACT_INT64 else object
    coefs = acc.coefs.astype(dtype, copy=False)
    fcoefs = f.coefs.astype(dtype, copy=False)
    span = _product_span(acc.span, f.span, height_cap, q_cap)
    if not _packs(span):
        # a bound summed over a fold can outgrow int64 while the terms
        # themselves stay small: take the running product's true maxima
        span = _product_span(acc.coords.max(0, initial=0), f.span,
                             height_cap, q_cap)
    strides = _strides(span)
    codes, fcodes = acc.coords @ strides, f.coords @ strides
    out_codes = np.zeros(0, dtype=np.int64)
    out_coefs = np.zeros(0, dtype=dtype)
    out_i = out_k = np.zeros(0, dtype=np.intp)
    step = max(1, _CHUNK // len(codes))
    for lo in range(0, len(fcodes), step):
        hi = lo + step
        keep = np.ones((len(fcodes[lo:hi]), len(codes)), dtype=bool)
        if height_cap is not None:
            keep &= f.heights[lo:hi, None] + acc.heights <= height_cap
        if q_cap is not None:
            keep &= f.coords[lo:hi, 0, None] + acc.coords[:, 0] <= q_cap
        # factor term outer: each factor term adds one sorted run
        k, i = np.nonzero(keep)
        if not len(k):
            continue
        k += lo
        cand = np.concatenate([out_codes, codes[i] + fcodes[k]])
        order = np.argsort(cand, kind="stable")
        cand = cand[order]
        first = np.flatnonzero(np.r_[True, cand[1:] != cand[:-1]])
        sums = np.add.reduceat(
            np.concatenate([out_coefs, coefs[i] * fcoefs[k]])[order], first)
        nonzero = sums != 0
        rep = order[first[nonzero]]
        out_codes, out_coefs = cand[first[nonzero]], sums[nonzero]
        out_i = np.concatenate([out_i, i])[rep]
        out_k = np.concatenate([out_k, k])[rep]
    return _Terms(np.take(acc.coords, out_i, 0) + np.take(f.coords, out_k, 0),
                  out_coefs, acc.heights[out_i] + f.heights[out_k], span)


def _product_span(aspan, fspan, height_cap, q_cap):
    """A bound on each coordinate of the product of terms bounded by aspan
    and by fspan, cut to the caps."""
    span = aspan + fspan
    if height_cap is not None:
        span = np.minimum(span, height_cap)
    if q_cap is not None:
        span[0] = min(span[0], q_cap)
    return span


def divide(num: QSeries, den: QSeries) -> QSeries:
    """Graded long division num/den, level by level in total height; den
    must have coefficient d0 = +-1 at its apex.  Exact in the truncated ring.

    With N_h and D_t the terms of num and of den (apex left out) at one
    height, the quotient's level h is Q_h = d0 (N_h - sum_t Q_{h-t} D_t).
    Every height vector is packed once into an int64 code of one radix, so a
    pair's code is the sum of two stored codes.  The radix starts at the
    coordinate maxima of num and den; whenever the quotient's maxima plus
    den's exceed it, the coordinates exceeded double (never past the caps,
    and only as far as needed when doubling would not pack) and the stored
    codes are re-encoded, a few times per division.  Each level pulls its
    remainder from the quotient levels below it, forming pairs only inside
    the q cap: each level of den is sorted by q, and a quotient row of level
    h-t pairs with the rows of D_t up to the q it has room for.  The pairs'
    codes are merged with N_h by one sort and np.add.reduceat, so only one
    level's products are ever held (the sums are exact, so the order of
    equal codes is free).  A running bound max|N| + sum_h max|Q_h| sum|D| on
    every partial sum keeps coefficients int64 while it is below 2^62 and
    switches to Python-int object arrays otherwise.  The loop stops past the
    height cap, or once no term of num, and no quotient row with q room for
    a term of den, can reach h; it raises after _MAX_DIVISION_STEPS quotient
    terms (the quotient then has unbounded support and a height cap is
    required)."""
    _check_compatible(num, den)
    d0 = den.terms.get((0,) * (num.rank + 1), 0)
    if d0 not in (1, -1):
        raise ValueError("divisor leading coefficient at its apex must be +-1")
    out = QSeries(num.rank, num.apex - den.apex, {}, *num.caps())
    hcap, qcap = out.height_cap, out.q_cap
    n, d = _as_arrays(num), _as_arrays(den)
    dmax = d.span
    span = np.maximum(n.span, dmax)
    rest = d.heights > 0
    # den's other terms negated, so the remainder is N_h + sum_t Q_{h-t} D_t
    n, d = _levels(n), _levels(_Terms(d.coords[rest], -d.coefs[rest],
                                      d.heights[rest], d.span))
    cap = _division_cap(num.rank, _EXACT_INT64 if hcap is None else hcap,
                        qcap)
    strides = _strides(span)
    ncodes, dcodes = n.coords @ strides, d.coords @ strides
    dlevels = np.flatnonzero(np.diff(d.start))  # the heights den has rows at
    pre = _q_prefix(d.coords[:, 0], d.start, qcap)
    # den's lowest q: a quotient row with less q room pairs with no row
    dq = int(d.coords[:, 0].min()) if qcap is not None and d.top > 0 else 0
    dsum = int(np.abs(d.coefs).sum(dtype=object))
    bound = int(np.abs(n.coefs).max()) if len(n.coefs) else 0
    qmax = np.zeros_like(span)
    qcodes = np.zeros(0, dtype=np.int64)
    qcoords = [np.zeros((0, num.rank + 1), dtype=np.int64)]
    qv = np.zeros(0, dtype=np.int64)
    room = np.zeros(0, dtype=np.intp)  # q cap minus each quotient row's q
    qstart = np.zeros(64, dtype=np.intp)  # level s: rows qstart[s]:qstart[s+1]
    last, h = None, 0
    while ((hcap is None or h <= hcap)
           and (h <= n.top or (last is not None and h - last <= d.top))):
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
        coords = codes[:, None] // strides % (span + 1)
        qcoords.append(coords)
        qcodes = np.concatenate([qcodes, codes])
        qv = np.concatenate([qv, coefs if d0 == 1 else -coefs])
        lroom = (np.zeros(len(codes), dtype=np.intp) if qcap is None
                 else qcap - coords[:, 0])
        room = np.concatenate([room, lroom])
        bound += int(np.abs(coefs).max()) * dsum
        if len(qv) > _MAX_DIVISION_STEPS:
            raise ValueError("division does not terminate within caps; "
                             "set a height cap")
        live = lroom >= dq  # rows with q room for some term of den
        if not live.any():
            continue
        last = h - 1
        # every later pair is a live quotient row plus a row of den
        qmax = np.maximum(qmax, coords[live].max(0))
        need = np.minimum(qmax + dmax, cap)
        if (need > span).any():
            span = _widen(span, need, cap)
            strides = _strides(span)
            qcoords = [np.concatenate(qcoords)]
            ncodes, dcodes = n.coords @ strides, d.coords @ strides
            qcodes = qcoords[0] @ strides
    coords = np.concatenate(qcoords)
    out.terms = dict(zip(map(tuple, coords.tolist()), qv.tolist()))
    return out


def _widen(span, need, cap):
    """span grown to cover need, which is within cap: each coordinate that
    need exceeds grows to the larger of need and twice its span, within cap,
    or, when that radix would not pack, to need alone."""
    grown = np.where(need > span, np.minimum(np.maximum(need, 2 * span), cap),
                     span)
    return grown if _packs(grown) else np.maximum(span, need)


def _division_cap(rank, top, q_cap):
    """The most each coordinate of a division's height vectors reaches when
    its levels stop at height top: coordinates 1..l top, coordinate 0
    min(q_cap, top)."""
    cap = np.full(rank + 1, top, dtype=np.int64)
    if q_cap is not None:
        cap[0] = min(q_cap, top)
    return cap


def division_radix(rank, top, q_cap):
    """(span, strides) of the widest radix a division under height cap top
    and q cap q_cap can grow to (see `divide`); when it packs, no such
    division runs out of codes.  Raises ValueError when it does not pack
    into int64."""
    span = _division_cap(rank, top, q_cap)
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
    sorted by q <= q_cap) with q <= a, for a in 0..q_cap; with no q cap,
    the one column a = 0 holds each whole level."""
    if q_cap is None:
        return np.diff(start)[:, None]
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


def binomial_factor(vec, sign=-1, height_cap=None, q_cap=None) -> QSeries:
    """1 + sign * e^{-root} for a positive root with height vector vec."""
    vec = _height_vector(vec)
    s = QSeries.one(len(vec) - 1, height_cap, q_cap)
    s.add_term(vec, sign)
    return s


def geometric_factor(vec, height_cap=None, q_cap=None) -> QSeries:
    """(1 - e^{-root})^{-1} = sum_j e^{-j root}, truncated, for a nonzero
    positive root with height vector vec."""
    vec = _height_vector(vec)
    if not any(vec):
        raise ValueError("expected a nonzero height vector")
    l = len(vec) - 1
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
