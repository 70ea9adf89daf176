"""Complex-analytic evaluation on the coordinate domain Y = H x C^l x C,
the S- and T-actions, the four finite transformation matrices, and numerical
verifiers for the S/T transformation laws of (twisted) anti-invariants and
normalized characters, Poisson resummation, and the SL2(Z) closure of the
character spans.

Conventions.  A point (tau, z, t) corresponds to the weight
2*pi*i(-(tau/2) Lambda0^(I) + sum z_i eps_i + t delta) in numeration I and
2*pi*i(-tau Lambda0^(II) + sum z_i eps_i^(II) + t delta) in numeration II.
Evaluating e^lambda at such a weight turns a level-k theta orbit into

    e^{2 pi i k t} sum_gamma e^{pi i k tau |gamma + a|^2
                                 + 2 pi i k <gamma + a, z>},   a = pr(lambda)/k,

so the S-action's t-shift is implemented with the plain square norm
sum z_i^2 (the literal projection pr carries one factor of 2*pi*i).
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .lattice import Weight, level, norm_sq, phi_involution
from .roots import enumerate_dominant, rho, rho_f

TWO_PI_I = 2j * math.pi


class DegeneratePointError(ValueError):
    """The denominator vanishes (to threshold) at the requested point."""


@dataclass(frozen=True)
class YPoint:
    tau: complex
    z: tuple
    t: complex = 0.0

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise ValueError(f"Im(tau) must be positive, got {self.tau}")
        object.__setattr__(self, "z", tuple(complex(c) for c in self.z))

    @property
    def rank(self):
        return len(self.z)


def sample_points(l, n) -> list:
    """Deterministic generic points with Im(tau) >= 1."""
    pts = []
    for s in range(n):
        tau = (0.37 - 0.11 * s % 1.7) + (1.13 + 0.17 * (s % 5)) * 1j
        z = tuple((0.11 * j - 0.029 * s) + (0.07 * j + 0.021 * s + 0.013 * j * s % 0.4) * 1j
                  for j in range(1, l + 1))
        pts.append(YPoint(tau, z, 0.05 - 0.037 * s))
    return pts


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------

class ChartWeight(NamedTuple):
    """The complexified weight of a Y-point: its eps-vector, delta and
    Lambda0 coefficients in type-I storage as complex numbers.  Exact
    weights are lattice.Weight; these are made by point_to_weight and read
    by weight_to_point."""

    eps: tuple
    delta: complex
    lambda0: complex

    def phi(self) -> "ChartWeight":
        """phi_involution on complex coordinates: eps_i -> c - eps_{l+1-i},
        delta -> delta + (1/2) sum eps - (l/4) c, Lambda0 coefficient c."""
        c = self.lambda0
        return ChartWeight(tuple(c - e for e in reversed(self.eps)),
                           self.delta + sum(self.eps) * 0.5
                           - len(self.eps) / 4 * c, c)


def point_to_weight(sharp, y: YPoint) -> ChartWeight:
    """(phi^(sharp))^{-1}: the complexified weight of a Y-point,
    2 pi i (-(tau/2) Lambda0^(I) + sum z_i eps_i + t delta) in numeration I
    and 2 pi i (-tau Lambda0^(II) + sum z_i eps_i^(II) + t delta) in II."""
    l = y.rank
    half_tau = -y.tau / 2
    if sharp == "I":
        eps, delta = y.z, y.t
    elif sharp == "II":
        # Lambda0^(II) = Lambda0^(I)/2 + sum eps_i / 2 - (l/8) delta and
        # eps_i^(II) = -eps_{l+1-i} + delta/2
        eps = tuple(half_tau - y.z[l - 1 - i] for i in range(l))
        delta = y.tau * (l / 8)
        for zi in y.z:
            delta = delta + zi * 0.5
        delta = delta + y.t
    else:
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    return ChartWeight(tuple(TWO_PI_I * e for e in eps), TWO_PI_I * delta,
                       TWO_PI_I * half_tau)


def weight_to_point(sharp, v: ChartWeight) -> YPoint:
    """phi^(sharp), defined on the domain Re (v, delta) > 0: tau, z_i and t
    are (v, -delta), (v, eps_i^(sharp)) and (v, Lambda0^(I)/2) in
    numeration I or (v, Lambda0^(II)) in II, each over 2 pi i."""
    l = len(v.eps)
    pairing = 2 * v.lambda0
    if not pairing.real > 0:
        raise ValueError("weight outside the domain: Re (v, delta) <= 0")
    tau = -pairing / TWO_PI_I
    if sharp == "I":
        z = tuple(e / TWO_PI_I for e in v.eps)
        t = v.delta / TWO_PI_I
    elif sharp == "II":
        z = tuple((v.lambda0 - v.eps[l - i]) / TWO_PI_I
                  for i in range(1, l + 1))
        t = (sum(e * 0.5 for e in v.eps)
             + 2 * (v.delta * 0.5 + v.lambda0 * (-l / 8))) / TWO_PI_I
    else:
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    return YPoint(tau, z, t)


def _pair(w: Weight, v: ChartWeight) -> complex:
    """The form (w, v) of an exact weight w and a chart weight v."""
    nums, den = w.nums, w.den
    s = sum(n / den * e for n, e in zip(nums, v.eps))
    return s + 2 * (nums[-2] / den * v.lambda0 + nums[-1] / den * v.delta)


def transition(y: YPoint) -> YPoint:
    """phi^(sharp) o (phi^(flat))^{-1}: an involution of Y."""
    l = y.rank
    z = tuple(-y.z[l - 1 - i] - y.tau / 2 for i in range(l))
    t = y.t + l * y.tau / 8 + sum(y.z) / 2
    return YPoint(y.tau, z, t)


def z_norm_sq(y: YPoint) -> complex:
    """sum z_i^2 = |pr^(sharp)(y)|^2 / (2 pi i)^2; the square norm entering
    the SL2(Z)-action and the transformation laws."""
    return sum(c * c for c in y.z)


def s_point(y: YPoint) -> YPoint:
    """S = ((0, -1), (1, 0)): (-1/tau, z/tau, t - |z|^2 / 2 tau)."""
    return YPoint(-1 / y.tau, tuple(zi / y.tau for zi in y.z),
                  y.t - z_norm_sq(y) / (2 * y.tau))


def t_point(y: YPoint) -> YPoint:
    return YPoint(y.tau + 1, y.z, y.t)


# ---------------------------------------------------------------------------
# Theta evaluation by certified lattice sums
# ---------------------------------------------------------------------------

def _shell_radius(l, decay, log_c, tol):
    """Smallest R >= 1 with sum_{j>=R} (2j+3)^l exp(log_c - decay j^2) < tol."""
    if decay <= 0:
        raise ValueError("nonconvergent parameters: quadratic decay <= 0")
    shells = []
    j = 1
    while True:
        le = log_c - decay * j * j + l * math.log(2 * j + 3)
        try:
            shells.append(math.exp(le) if le > -700 else 0.0)
        except OverflowError:
            raise ValueError("the lattice sum exceeds the floating-point "
                             "range at this point") from None
        if le < -700 or (j > 4 and shells[-1] < tol * 1e-6):
            break
        j += 1
        if j > 10_000:
            raise ValueError("nonconvergent parameters: tail does not decay")
    tail = 0.0
    for idx in range(len(shells) - 1, -1, -1):
        tail += shells[idx]
        if tail >= tol:
            return idx + 2
    return 1


def _box(center, radius):
    """(lo, hi): the first and last lattice coordinates of the box of
    radius `radius` about each row of center."""
    return (np.ceil(-radius - center).astype(np.int64),
            np.floor(radius - center).astype(np.int64))


# The most complex values one _row_sums temporary holds: the kernel takes
# its points a block at a time and keeps only each row's reduced value, so
# a call over many points needs no more memory than one
_ROW_BUDGET = 2 ** 15


def _blocks(bounds, n, cell):
    """(points, rows per chunk) of each block of points: consecutive points,
    ascending in their side bounds, while points * n * cell * bound fits in
    _ROW_BUDGET, and a point past it alone, its rows taken in chunks (one
    row at least)."""
    i, p = 0, len(bounds)
    while i < p:
        j = i + 1
        while j < p and (j + 1 - i) * n * cell * bounds[j] <= _ROW_BUDGET:
            j += 1
        yield slice(i, j), max(1, _ROW_BUDGET // (cell * bounds[j - 1]))
        i = j


def _diagonal_products(sums):
    """prod_i S[..., i, i]: the product form of a theta orbit or a Poisson
    sum."""
    return np.prod(np.diagonal(sums, axis1=-2, axis2=-1), axis=-1)


def _block_values(a, lo, hi, sides, quad, lz, form, sign, twisted):
    """form(S) of _row_sums for one block of points: each point's side, each
    row's box lo..hi (points, rows, l), and quad and lz = lin z per
    point."""
    gamma = lo[..., None] + np.arange(max(sides))
    x = (gamma + a[:, :, None])[..., None]
    xz = x * lz
    with np.errstate(over="ignore", invalid="ignore"):
        qxx = quad * x * x
        terms = np.exp(qxx + xz)
        if sign:
            terms += sign * np.exp(qxx - xz)
        if twisted:
            terms[gamma % 2 == 1] *= -1
        # zero past each row's range
        np.copyto(terms, 0.0, where=(gamma > hi[..., None])[..., None])
        # each run of points of one side is summed over that side
        cuts = [0, *(i for i in range(1, len(sides))
                     if sides[i] != sides[i - 1]), len(sides)]
        sums = [terms[i:j, ..., :sides[i], :].sum(axis=3)
                for i, j in zip(cuts, cuts[1:])]
        return form(sums[0] if len(sums) == 1 else np.concatenate(sums))


def _row_sums(a, center, radius, quad, lin, z, form, sign=0, twisted=False):
    """form(S)[p, r] for S[p, r, i, j]: at point p, the sum over gamma in
    the box of radius radius[p] about center[r], coordinate i alone, of
    f(x, z[p, j]), x = gamma + a[r, i] and f(x, z) = exp(quad[p] x^2
    + lin x z) + sign exp(quad[p] x^2 - lin x z) (the second term only when
    sign is nonzero), negated at odd gamma when twisted.  This is the one
    kernel of every Gaussian lattice sum: the form |x|^2 is diagonal and the
    box a product of ranges, so a theta orbit or a Poisson sum is the
    product over i of S[p, r, i, i] (form _diagonal_products), and an
    anti-invariant is det S[p, r] by multilinearity (form np.linalg.det).
    Every term carries its own Gaussian factor, so no factor leaves the
    float range alone; a non-finite value is refused.

    The n rows a and their box centers, both (n, l), are the same at every
    point; radius, quad and z hold one value (z one l-vector) per point.
    Every row of a point is summed over the point's own side, the widest
    range of its box (about 2 radius[p]), so a point's values are those of
    a call on that point alone, bit for bit: numpy sums a one-coordinate row
    pairwise, and padding it past that side could move its last bit.  A
    point alone whose n * l^2 * side values fit in _ROW_BUDGET skips the
    sort and the block sizing: routing one-point calls through the block
    path made analytic-laws wall_s about 6 % higher (median 0.063 -> 0.066
    s, 4 of 4 alternating pairs on a 2-CPU machine, same outputs and
    accuracy).  Every other call goes through in the blocks of _blocks,
    whose temporaries hold points * rows * l^2 * side complex
    values, and only the (points, n) values outlive a block."""
    n, l = a.shape
    p = len(radius)
    if p == 1:
        lo, hi = _box(center, radius[0])
        side = int((hi - lo).max()) + 1
    if p == 1 and n * l * l * side <= _ROW_BUDGET:
        values = _block_values(a, lo[None], hi[None], [side], quad[0],
                               lin * np.asarray(z[0]), form, sign, twisted)
    else:
        # the points by radius, and so by side (a box grows with its
        # radius): a block pads its points little, and one call sums each
        # run of one side
        order = sorted(range(p), key=radius.__getitem__)
        radii = [radius[i] for i in order]
        radius = np.array(radii, float)[:, None, None]
        quad = np.array([quad[i] for i in order]).reshape(p, 1, 1, 1, 1)
        lz = (lin * np.array([z[i] for i in order])).reshape(p, 1, 1, 1, l)
        values = np.empty((p, n), complex)
        # at most floor(2 radius) + 1 integers, and one more each way from
        # rounding, lie in a range of length 2 radius
        bounds = [int(2 * r) + 3 for r in radii]
        for pts, step in _blocks(bounds, n, l * l):
            lo, hi = _box(center, radius[pts])
            sides = ((hi - lo).max(axis=(1, 2)) + 1).tolist()
            for r in range(0, n, step):
                rows = slice(r, r + step)
                values[order[pts], rows] = _block_values(
                    a[rows], lo[:, rows], hi[:, rows], sides, quad[pts],
                    lz[pts], form, sign, twisted)
    if not np.isfinite(values).all():
        raise ValueError("the lattice sum exceeds the floating-point range "
                         "at this point")
    return values


def _coords(w: Weight, sharp):
    """The sharp eps-coordinates of w: the vector W_f^(sharp) permutes."""
    if sharp not in ("I", "II"):
        raise ValueError(f"sharp must be 'I' or 'II', got {sharp!r}")
    return w.eps if sharp == "I" else w.to_type_II_coords()[0]


@functools.lru_cache(maxsize=None)
def _shifted(lam: Weight) -> Weight:
    """(lam + rho).canonical(): the weight whose W_f-orbit A_{lam+rho}
    sums."""
    return (lam + rho(lam.rank)).canonical()


@functools.lru_cache(maxsize=None)
def _theta_shift(lam: Weight, sharp):
    """(k, a) of eval_theta: the level k of lam, a positive integer, and
    a = pr^(sharp)(lam)/k as a read-only float array."""
    k = level(lam)
    if Fraction(k).denominator != 1 or k <= 0:
        raise ValueError(f"positive integer level required, got {k}")
    k = int(k)
    a = np.array([float(c) / k for c in _coords(lam, sharp)])
    a.setflags(write=False)
    return k, a


def _theta_box(lams, sharp, ys, tol):
    """(k, a, ws, radii) of the theta orbits of lams, all of one level k, at
    the points ys: the rows a of their shifts and, per point, w = Im z / Im
    tau and the shell radius that bounds each orbit's Gaussian tail below
    tol."""
    data = [_theta_shift(lam, sharp) for lam in lams]
    k = data[0][0]
    if any(kj != k for kj, _ in data):
        raise ValueError("the weights of one call must share their level")
    ws, radii = [], []
    for y in ys:
        im_tau = y.tau.imag
        if im_tau <= 0:
            raise ValueError("Im(tau) must be positive")
        w = [zi.imag / im_tau for zi in y.z]
        decay = math.pi * k * im_tau
        log_c = decay * sum(x * x for x in w)
        ws.append(w)
        radii.append(_shell_radius(y.rank, decay, log_c, tol))
    return k, np.array([aj for _, aj in data]), ws, radii


def eval_theta(lam: Weight, sharp="I", twisted=False, y: YPoint = None,
               tol=1e-10) -> complex:
    """Level-k theta orbit of lam evaluated at y through the sharp chart:
    e^{2 pi i k t} sum_gamma [psi(t_gamma)] e^{pi i k tau |gamma+a|^2
    + 2 pi i k <gamma+a, z>} with a = pr^(sharp)(lam)/k; the Gaussian tail is
    bounded below tol."""
    k, a, (w,), radii = _theta_box((lam,), sharp, (y,), tol)
    value = _row_sums(a, a + np.array(w), radii, [1j * math.pi * k * y.tau],
                      TWO_PI_I * k, [y.z], _diagonal_products,
                      twisted=twisted)[0, 0]
    return cmath.exp(TWO_PI_I * k * y.t) * complex(value)


def _eval_anti_invariants(lams, sharp, twisted, ys, tol) -> list:
    """eval_anti_invariant of each weight of lams, all of one level, at each
    point of ys: rows [value per weight] per point, as one determinant each
    from one _row_sums call over all the points, each with its own box.
    Substituting gamma -> u.gamma in the theta orbit of u.(lam + rho)
    (|u.x| = |x|, and u keeps the parity of sum(gamma)) turns the signed
    W_f-sum of orbits into one sum over x in a + Z^l of
    e^{pi i k tau |x|^2} times the type-B/C Weyl denominator
    det[e^{c x_i z_j} -+ e^{-c x_i z_j}], c = 2 pi i k, with + for the
    psi-weighted type-I sum (epsilon psi(u) is the sign of u's
    permutation), the determinant of _row_sums' one-variable sums.  Every
    orbit's box of radius R about u.a + w lies in the image of the box
    |x_i| <= R + max |w_j|, so its tail bound, to tol / |W_f|, still
    certifies the sum."""
    l = lams[0].rank
    nw = 2 ** l * math.factorial(l)
    k, a, ws, radii = _theta_box([_shifted(lam) for lam in lams], sharp, ys,
                                 tol / nw)
    dets = _row_sums(a, a,
                     [r + max(map(abs, w)) for r, w in zip(radii, ws)],
                     [1j * math.pi * k * y.tau for y in ys], TWO_PI_I * k,
                     [y.z for y in ys], np.linalg.det,
                     1 if twisted and sharp == "I" else -1, twisted)
    pres = [cmath.exp(TWO_PI_I * k * y.t) for y in ys]
    return [[pre * complex(v) for v in row] for pre, row in zip(pres, dets)]


def eval_anti_invariant(lam: Weight, sharp="I", twisted=False,
                        y: YPoint = None, tol=1e-10) -> complex:
    """A_{lam+rho} (A^psi when twisted) as a function on Y through the sharp
    chart: the epsilon(-psi)-weighted sum of theta orbits over W_f^(sharp)
    (W_f^(II) lies in Ker psi), each to tol / |W_f|, summed in the
    determinant form of _eval_anti_invariants."""
    return _eval_anti_invariants((lam,), sharp, twisted, [y], tol)[0][0]


# |A_rho(y)| below this makes eval_character refuse the point
_DEN_THRESHOLD = 1e-10


def _eval_characters(lams, sharp, twisted, ys, tol) -> list:
    """eval_character of each weight of lams, all of one level, at each
    point of ys: rows [value per weight] per point.  A_rho at every point
    comes from one lattice-sum call, and the first point, in order, where it
    falls below _DEN_THRESHOLD is refused before any numerator; then every
    numerator at every point comes from one more call.  The two calls stay
    apart: their levels differ, and so do their boxes."""
    dens = [row[0] for row in _eval_anti_invariants(
        (Weight.zero(lams[0].rank),), sharp, twisted, ys, tol)]
    for y, den in zip(ys, dens):
        if abs(den) < _DEN_THRESHOLD:
            raise DegeneratePointError(
                f"denominator {abs(den):.3e} below threshold at tau={y.tau}; "
                "move the sample point")
    return [[v / den for v in row] for den, row in zip(
        dens, _eval_anti_invariants(lams, sharp, twisted, ys, tol))]


def eval_character(lam: Weight, sharp="I", twisted=False, y: YPoint = None,
                   tol=1e-10) -> complex:
    """chi_lam (chi^psi when twisted) at y: the ratio of anti-invariants.
    Raises DegeneratePointError when |A_rho(y)| falls below _DEN_THRESHOLD."""
    return _eval_characters((lam,), sharp, twisted, [y], tol)[0][0]


def eval_qseries(series, sharp, y: YPoint) -> complex:
    """Evaluate a formal series at y by substituting the chart weight;
    cross-check route for the lattice sums."""
    v = point_to_weight(sharp, y)
    total = 0.0 + 0.0j
    for vec, c in series.sorted_items():
        total += c * cmath.exp(_pair(series.weight_of(vec), v))
    return total


# ---------------------------------------------------------------------------
# The four transformation matrices
# ---------------------------------------------------------------------------

# kind: (numeration of the rho_f shifting lam, numeration of the W_f-sum);
# only a^(I) is psi-weighted
_KINDS = {"aI": ("I", "I"), "aI_II": ("I", "II"), "aII_I": ("II", "I"),
          "aII": ("II", "II")}


@dataclass
class SMatrix:
    kind: str
    k: int
    index: list
    entries: list  # row-major complex


def _smatrix_rows(kind, k, lams, mus) -> list:
    """The rows [a^(kind)(lam, mu) for mu in mus], lam in lams.  An entry is
    the signed W_f-sum of the phases e^{-2 pi i (u.x, y)/m}; W_f signs and
    permutes coordinates, so the sum is a Weyl denominator of type B/C:
    (-2i)^l det[sin theta_ij], and 2^l det[cos theta_ij] psi-weighted
    (a^(I)), theta_ij = 2 pi x_i y_j / m.  The integer data of every row
    and column is prepared once."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}, got {kind!r}")
    l = lams[0].rank
    m = k + 2 * l + 1
    src, grp = _KINDS[kind]
    rf = rho_f(l, src)
    # x = pr(lam) + rf (phi(rf) when src != grp) and y = pr(mu) + rho_f
    # have no Lambda0 part, so their grp coordinates are those of lam + rf
    # and mu + rho_f (pr keeps them): the eps coefficients of the weight in
    # numeration I and of its phi-image in II, integers over one lcm
    xr = rf if src == grp else phi_involution(rf)
    yr = rho_f(l, grp)
    to_grp = phi_involution if grp == "II" else (lambda w: w)
    xw = [to_grp(lam + xr) for lam in lams]
    yw = [to_grp(mu + yr) for mu in mus]
    den = math.lcm(*(w.den for w in (*xw, *yw)))
    ci = [[v * (den // w.den) for v in w.nums[:-2]] for w in xw]
    gi = [[v * (den // w.den) for v in w.nums[:-2]] for w in yw]
    modulus = den * den * m
    # frac[a, b, i, j] = theta_ij / 2 pi mod 1 for x = x_a, y = y_b: reduced
    # in Python ints, then rounded once
    frac = np.array([[[[p * q % modulus / modulus for q in y] for p in x]
                      for y in gi] for x in ci])
    trig, (re, im) = ((np.cos, (1, 0)) if kind == "aI" else
                      (np.sin, ((1, 0), (0, -1), (-1, 0), (0, 1))[l % 4]))
    dets = 2 ** l * np.linalg.det(trig(2 * math.pi * frac))
    # (re, im) = (-i)^l for the sines; + 0.0 keeps a zero part from being
    # -0.0
    return [[complex(re * v + 0.0, im * v + 0.0) for v in row]
            for row in dets]


def smatrix_entry(kind, k, lam: Weight, mu: Weight) -> complex:
    """Entry a^(kind)(lam, mu); lam may be any exact weight (the lemmas feed
    phi-images of dominant weights into the mixed kinds)."""
    return _smatrix_rows(kind, k, (lam,), (mu,))[0][0]


# _smatrix_rows holds dim^2 l^2 phases as nested Python lists: `smatrix
# --kind aI --rank 3 --level 20` (736,164 phases) takes about 1.0 s and 97 MB
# as a process on a 2-CPU machine, --level 22 (1,192,464) 1.4 s and 136 MB
_SMATRIX_PHASES = 1_000_000


def smatrix(kind, k, l) -> SMatrix:
    """The full table over the canonical ordering of P_{k,+} mod C.delta.
    Refused with ValueError past _SMATRIX_PHASES phases, before any weight
    is formed."""
    if k >= 0 and k % 2 == 0:
        # phases = C(l + k/2, l)^2 l^2 >= max(l, k/2)^2, so past that bound
        # the count is past the cap too and no huge binomial is formed
        phases = (math.comb(l + k // 2, l) ** 2 * l * l
                  if max(l, k // 2) ** 2 <= _SMATRIX_PHASES else None)
        if phases is None or phases > _SMATRIX_PHASES:
            raise ValueError(
                f"the rank-{l} level-{k} S-matrix has "
                f"{phases or f'more than {_SMATRIX_PHASES}'} phases "
                f"(dim^2 rank^2); at most {_SMATRIX_PHASES} are formed")
    index = enumerate_dominant(l, k)
    return SMatrix(kind, k, index, _smatrix_rows(kind, k, index, index))


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    metadata: dict = field(default_factory=dict)


def make_report(lhs, rhs, tol, lam=None, y=None, **metadata) -> VerificationReport:
    abs_err = abs(lhs - rhs)
    scale = abs(rhs)
    rel_err = abs_err / scale if scale > 0 else math.inf
    if scale < 1e-8:
        passed = abs_err <= tol
    else:
        passed = rel_err <= tol
    metadata.setdefault("tol", tol)
    if lam is not None:
        metadata["lambda_eps"] = [str(c) for c in lam.eps]
        metadata["lambda_level"] = str(level(lam))
    if y is not None:
        metadata["y"] = {"tau": [y.tau.real, y.tau.imag],
                         "z": [[c.real, c.imag] for c in y.z],
                         "t": [complex(y.t).real, complex(y.t).imag]}
    return VerificationReport(lhs, rhs, abs_err, rel_err, passed, metadata)


_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def i_power(n) -> complex:
    return _I_POW[n % 4]


def _sqrt_tau_over_i(tau, l) -> complex:
    return cmath.sqrt(tau / 1j) ** l


# Each law: (report key, sharp of its invariant, lhs twisted, S-matrix kind,
#            target sharp, target twisted, exponent of i in the S-constant).
# Lemmas 4.2-4.5 act on anti-invariants, propositions 4.6-4.9 on normalized
# characters.  The mixed kinds take phi-images in their first argument, and
# the type-II T-laws swap the twist.  The S-constant enters the lemmas only
# through their k = 0 corollary, and the propositions' S-laws directly.
_LAWS = {
    "4.2": ("lemma", "I", False, "aI_II", "II", True, lambda l: -l * l),
    "4.3": ("lemma", "I", True, "aI", "I", True, lambda l: l * (l - 1)),
    "4.4": ("lemma", "II", False, "aII", "II", False, lambda l: -l * l),
    "4.5": ("lemma", "II", True, "aII_I", "I", False, lambda l: -l * l),
    "4.6": ("prop", "I", False, "aI_II", "II", True, lambda l: l * l),
    "4.7": ("prop", "I", True, "aI", "I", True, lambda l: l * (l - 1)),
    "4.8": ("prop", "II", False, "aII", "II", False, lambda l: l * l),
    "4.9": ("prop", "II", True, "aII_I", "I", False, lambda l: l * l),
}


def _verify_law(key, law, lam: Weight, k, y: YPoint, tol, theta_tol):
    """The S- or T-law `law` of lemma or proposition `key` at one point."""
    family, sharp, twisted, kind, tsharp, ttwisted, i_exp = _LAWS[key]
    ev = _eval_characters if family == "prop" else _eval_anti_invariants
    l = lam.rank
    m = k + 2 * l + 1
    if law == "T":
        if sharp == "I":
            # one twist on both sides: T(y) and y are one call
            (lhs,), (at_y,) = ev((lam,), sharp, twisted, [t_point(y), y],
                                 theta_tol)
        else:
            # the type-II T-laws swap the twist
            lhs = ev((lam,), sharp, twisted, [t_point(y)], theta_tol)[0][0]
            at_y = ev((lam,), sharp, not twisted, [y], theta_tol)[0][0]
        nsq = norm_sq(_shifted(lam).project_finite(sharp))
        arg = Fraction(nsq, m)
        if family == "prop":
            # conformal anomaly of the normalization
            arg -= Fraction(norm_sq(rho(l).project_finite(sharp)), 2 * l + 1)
        phase = cmath.exp(1j * math.pi * float(arg % 2))
        rhs = phase * at_y
    else:
        lhs = ev((lam,), sharp, twisted, [s_point(y)], theta_tol)[0][0]
        pref = _sqrt_tau_over_i(y.tau, l)
        if family == "lemma" and k == 0:
            # the corollary: a constant in place of the mu-sum
            law = "S-corollary"
            rhs = pref * i_power(i_exp(l)) * ev(
                (Weight.zero(l),), tsharp, ttwisted, [y], theta_tol)[0][0]
        else:
            first = phi_involution(lam) if sharp != tsharp else lam
            mus = enumerate_dominant(l, k)
            acc = 0.0 + 0.0j
            for a, v in zip(_smatrix_rows(kind, k, (first,), mus)[0],
                            ev(mus, tsharp, ttwisted, [y], theta_tol)[0]):
                acc += a * v
            const = i_power(i_exp(l)) if family == "prop" else pref
            rhs = m ** (-l / 2) * const * acc
    return make_report(lhs, rhs, tol, lam=lam, y=y, **{family: key}, law=law,
                       rank=l, k=k, theta_tol=theta_tol)


def _check_key(key, family):
    if _LAWS.get(key, (None,))[0] != family:
        name = "proposition" if family == "prop" else family
        raise ValueError(f"unknown {name} {key!r}")


def verify_S(lemma, lam: Weight, k, y: YPoint, tol=1e-6, theta_tol=1e-10):
    """S-transformation law of one of the four lemmas at one sample point.
    With lam = 0 and k = 0 the corollary form (constant instead of the
    mu-sum) is checked."""
    _check_key(lemma, "lemma")
    return _verify_law(lemma, "S", lam, k, y, tol, theta_tol)


def verify_T(lemma, lam: Weight, k, y: YPoint, tol=1e-10, theta_tol=1e-12):
    """T-transformation law (second display) of one of the four lemmas; the
    phase is computed from the exact rational |pi^(sharp)(lam+rho)|^2."""
    _check_key(lemma, "lemma")
    return _verify_law(lemma, "T", lam, k, y, tol, theta_tol)


def verify_props(prop, lam: Weight, k, y: YPoint, tol=1e-6, theta_tol=1e-10,
                 law="S"):
    """S- or T-law of Propositions for the normalized (twisted-)characters,
    including the conformal-anomaly phase in the T-laws."""
    _check_key(prop, "prop")
    if law not in ("S", "T"):
        raise ValueError(f"law must be 'S' or 'T', got {law!r}")
    return _verify_law(prop, law, lam, k, y, tol, theta_tol)


# ---------------------------------------------------------------------------
# SL2(Z) closure of the character spans (section-5 mapping table)
# ---------------------------------------------------------------------------

_FAMILIES = {
    "I": ("I", False),
    "II": ("II", False),
    "psiI": ("I", True),
    "psiII": ("II", True),
}

SL2_ARROWS = (
    ("S", "II", "II"),
    ("S", "I", "psiII"),
    ("S", "psiII", "I"),
    ("T", "I", "I"),
    ("T", "II", "psiII"),
    ("T", "psiII", "II"),
)

PSI_I_ARROWS = (("S", "psiI", "psiI"), ("T", "psiI", "psiI"))


# Im tau in [0.5, 1] and |Im z_j| <= Im(tau)/4 keep the closure's character
# columns far from dependent.  Criteria 6-8 keep sample_points: on these points
# the suite's median accuracy drops from 8.47 to 8.12 digits.
_CLOSURE_SEED = 9001


def _closure_points(l, n) -> list:
    """The first n points of one seeded stream per rank: Im tau ~ U[0.5, 1],
    Re tau, Re z_j ~ U[-0.5, 0.5], Im z_j = Im tau U[-0.25, 0.25] and
    t ~ U[-0.2, 0.2]."""
    rng = random.Random(_CLOSURE_SEED + l)
    pts = []
    for _ in range(n):
        im_tau = rng.uniform(0.5, 1.0)
        tau = complex(rng.uniform(-0.5, 0.5), im_tau)
        z = tuple(complex(rng.uniform(-0.5, 0.5),
                          im_tau * rng.uniform(-0.25, 0.25)) for _ in range(l))
        pts.append(YPoint(tau, z, rng.uniform(-0.2, 0.2)))
    return pts


def verify_sl2_closure(l, k, tol=1e-6, theta_tol=1e-10, arrows=SL2_ARROWS,
                       include_gram=True) -> dict:
    """Closure of the S/T arrows between the character families on the
    points of _closure_points, each family sampled once: one least-squares
    solve per arrow (largest column residual, target condition number), and
    the Gram rank of the three families' samples.  k = 0 collapses every
    family to the constant 1: the degenerate case, not a failure."""
    lams = enumerate_dominant(l, k)
    dim = len(lams)
    if k == 0:
        return {"degenerate": True, "rank": l, "k": k, "pass": True,
                "arrows": [], "gram_rank": 1, "expected_gram_rank": 1}

    def sample(fam, pts):
        # two lattice-sum calls: A_rho at every point, then the numerators
        sharp, twisted = _FAMILIES[fam]
        return np.array(_eval_characters(lams, sharp, twisted, pts,
                                         theta_tol))

    # 3*dim + 2 rows, so the Gram stack of the three families can reach
    # full column rank 3*dim
    points = _closure_points(l, max(3 * dim + 2, 8))
    gram_fams = ("I", "II", "psiII") if include_gram else ()
    samples = {fam: sample(fam, points) for fam in dict.fromkeys(
        [dst for _, _, dst in arrows] + list(gram_fams))}
    results = []
    for mat, src, dst in arrows:
        act = s_point if mat == "S" else t_point
        v = sample(src, [act(y) for y in points])
        target = samples[dst]
        sol = np.linalg.lstsq(target, v, rcond=None)[0]
        res_max = float((np.linalg.norm(target @ sol - v, axis=0)
                         / np.linalg.norm(v, axis=0)).max())
        results.append({"g": mat, "source": src, "target": dst,
                        "residual": res_max,
                        "cond": float(np.linalg.cond(target)),
                        "pass": bool(res_max <= tol)})
    out = {"degenerate": False, "rank": l, "k": k, "arrows": results,
           "pass": all(r["pass"] for r in results)}
    if include_gram:
        svals = np.linalg.svd(np.hstack([samples[f] for f in gram_fams]),
                              compute_uv=False)
        out["gram_rank"] = int((svals > svals[0] * 1e-8).sum())
        out["expected_gram_rank"] = 3 * dim
        out["gram_sigma_ratio"] = float(svals[-1] / svals[0])
        out["pass"] = out["pass"] and out["gram_rank"] == 3 * dim
    return out


def verify_sl2(l, k, tol=1e-6, theta_tol=1e-10):
    """(pass, closure, psi^(I) closure): the six arrows between the three
    character families with their Gram rank, and the fourth family's closure
    under S and T on its own."""
    out = verify_sl2_closure(l, k, tol, theta_tol)
    out_psi = verify_sl2_closure(l, k, tol, theta_tol, arrows=PSI_I_ARROWS,
                                 include_gram=False)
    return out["pass"] and out_psi["pass"], out, out_psi


# ---------------------------------------------------------------------------
# Poisson resummation and the sine product
# ---------------------------------------------------------------------------

def _gaussian_sum(l, q, shift, lin, tol):
    """sum_{m in Z^l} exp(pi i q |m + shift|^2 + 2 pi i <lin, m>) with
    Im(q) > 0; shift, lin complex vectors; certified Gaussian tail."""
    im_q = q.imag
    if im_q <= 0:
        raise ValueError("Im(q) must be positive")
    re_s = [c.real for c in shift]
    # |term| = exp(-pi im_q |m + re_s + u|^2 + const), with the linear parts
    # folded into the completed square
    u = [(q.real * c.imag + li.imag) / im_q
         for c, li in zip(shift, lin)]
    center = [rs + ui for rs, ui in zip(re_s, u)]
    # conservative constant: the real exponent at the lattice point nearest
    # the center
    m0 = tuple(round(-c) for c in center)
    x0 = [mi + ci for mi, ci in zip(m0, shift)]
    e0 = 1j * math.pi * q * sum(v * v for v in x0) \
        + TWO_PI_I * sum(li * mi for li, mi in zip(lin, m0))
    log_c = e0.real + math.pi * im_q * sum(
        (a + b) ** 2 for a, b in zip(m0, center))
    radius = _shell_radius(l, math.pi * im_q, log_c, tol)
    # 2 pi i <lin, m> = 2 pi i <lin, m + shift> - 2 pi i <lin, shift>: the
    # complex shift is the kernel's offset, and the constant leaves the sum
    value = _row_sums(np.array([shift], complex), np.array([center]),
                      [radius + 1], [1j * math.pi * q], TWO_PI_I, [lin],
                      _diagonal_products)[0, 0]
    pre = cmath.exp(-TWO_PI_I * sum(li * c for li, c in zip(lin, shift)))
    return pre * complex(value)


def poisson_args(rng, l):
    """One random argument (a, tau) of poisson_check drawn from rng:
    a in [-0.8, 0.8] + [-0.5, 0.5]i per coordinate, tau in
    [-0.9, 0.9] + [0.5, 2]i."""
    a = tuple(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
              for _ in range(l))
    tau = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.5, 2.0))
    return a, tau


def poisson_check(l, a, tau, tol=1e-8) -> VerificationReport:
    """Self-dual-lattice Poisson resummation:
    sum exp(pi i (-1/tau)|m+a|^2) = (tau/i)^{l/2} sum exp(pi i tau |m|^2
    + 2 pi i <a, m>)."""
    a = tuple(complex(c) for c in a)
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    lhs = _gaussian_sum(l, -1 / tau, a, (0.0,) * l, tol * 1e-2)
    rhs = _sqrt_tau_over_i(tau, l) * _gaussian_sum(
        l, tau, (0.0,) * l, a, tol * 1e-2)
    return make_report(lhs, rhs, tol, law="poisson", rank=l,
                       tau=(tau.real, tau.imag))


def sin_product(n: int):
    """The logarithms of prod_{k=1}^{n-1} sin(k pi / n) and of its closed
    form n / 2^(n-1): sum_k log sin(k pi / n) and log n - (n-1) log 2.  Both
    products underflow (the sine product is subnormal from n = 1040 on, the
    closed form 0.0 at n = 1087); their logarithms do not."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (math.fsum(math.log(math.sin(k * math.pi / n))
                      for k in range(1, n)),
            math.log(n) - (n - 1) * math.log(2))


def sin_product_failures(nmax, tol) -> list:
    """The n in 2..nmax where the sine product misses its closed form by a
    relative error above tol."""
    bad = []
    for n in range(2, nmax + 1):
        log_prod, log_closed = sin_product(n)
        if abs(math.expm1(log_prod - log_closed)) > tol:
            bad.append(n)
    return bad
