"""The acceptance battery: every headline identity and transformation law,
each runnable standalone and bundled for the CLI and the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from .characters import (CharacterRequest, character,
                         check_denominator_identity, conformal_anomaly)
from .lattice import Weight, inner, phi_involution
from .modular import (YPoint, eval_character, eval_qseries, point_to_weight,
                      poisson_args, poisson_check, sample_points,
                      sin_product_failures, transition, verify_S, verify_T,
                      verify_props, verify_sl2, weight_to_point)
from .roots import RootSystemCtx, enumerate_dominant
from .superalg import (check_bracket_relations, check_super_character,
                       check_super_denominator, osp_irreducible_dim,
                       verma_reducible)

# Acceptance tolerances, pinned: law residuals, theta-series tails (the
# T-laws' exact phases against tighter ones), Poisson resummation and the
# exact T-phases.
TOL = 1e-6
THETA_TOL = 1e-10
T_THETA_TOL = 1e-12
POISSON_TOL = 1e-8
PHASE_TOL = 1e-10
# Criterion 6's corollary constants, and the theta tails of those and of its
# formal q-series cross-check; criterion 10's sine product; criterion 12's
# complex coordinate maps.
COROLLARY_TOL = 1e-8
CROSS_THETA_TOL = 1e-12
SIN_PRODUCT_TOL = 1e-10
CHART_TOL = 1e-12

POISSON_SEED = 20240 + 7


def _crit_denominator(quick, twisted):
    ranks = (1, 2) if quick else (1, 2, 3)
    reports = []
    for l in ranks:
        rep = check_denominator_identity(l, depth=10, twisted=twisted)
        reports.append(rep)
    return {"pass": all(r["equal"] for r in reports), "reports": reports}


def criterion_1(quick=False):
    """Denominator identity, coefficientwise exact, l in {1,2,3}, depth 10."""
    return _crit_denominator(quick, False)


def criterion_2(quick=False):
    """Twisted denominator identity, same ranks and depth."""
    return _crit_denominator(quick, True)


def criterion_3(quick=False):
    """Super-denominator equals the twisted anti-invariant route, depth 8."""
    details = [check_super_denominator(l, 8) for l in (1, 2)]
    return {"pass": all(d["equal"] for d in details), "details": details}


def criterion_4(quick=False):
    """chi_0 = 1 to depth 12 (l <= 3); untwisted characters nonnegative with
    apex coefficient 1 for all level-2 dominant weights, l <= 2, depth 8."""
    details = []
    ranks = (1, 2) if quick else (1, 2, 3)
    for l in ranks:
        ctx = RootSystemCtx.build(l)
        ch = character(CharacterRequest(ctx, Weight.zero(l), 0, "I", False, 12))
        ok = (ch.terms == {(0,) * (l + 1): 1} and ch.apex == Weight.zero(l))
        details.append({"check": f"chi_0 rank {l}", "pass": ok})
    for l in (1, 2):
        ctx = RootSystemCtx.build(l)
        for lam in enumerate_dominant(l, 2):
            ch = character(CharacterRequest(ctx, lam, 2, "I", False, 8))
            ok = (all(c >= 0 for c in ch.terms.values())
                  and ch.terms.get((0,) * (l + 1)) == 1
                  and ch.apex == (lam - Weight.delta_weight(l).scale(
                      conformal_anomaly(lam))))
            details.append({"check": f"chi nonneg rank {l}", "pass": ok})
    return {"pass": all(d["pass"] for d in details), "details": details}


def criterion_5(quick=False):
    """Super-character equals the twisted character termwise, depth 8,
    through independent code paths."""
    details = []
    for l in (1, 2):
        for lam in enumerate_dominant(l, 2):
            details.append(check_super_character(lam, 8))
    return {"pass": all(d["pass"] for d in details), "details": details}


_LEMMAS = ("4.2", "4.3", "4.4", "4.5")
_PROPS = ("4.6", "4.7", "4.8", "4.9")


def _ranks(quick):
    return (1,) if quick else (1, 2)


def _laws(quick, names, n_points, check):
    """(rel_err, passed) of every report of check(name, lam, y), for each
    name, level-2 dominant weight lam and sample point y, with n_points
    points per rank."""
    out = []
    for l in _ranks(quick):
        pts = sample_points(l, n_points)
        for name in names:
            for lam in enumerate_dominant(l, 2):
                for y in pts:
                    out += [(r.rel_err, r.passed) for r in check(name, lam, y)]
    return out


def _summary(laws, others=()):
    """A criterion over (rel_err, passed) pairs; the pass flags in `others`
    are counted as checks but have no rel err in the worst case."""
    return {"pass": all(ok for _, ok in laws) and all(others),
            "worst_rel_err": max((rel for rel, _ in laws), default=0.0),
            "checks": len(laws) + len(others)}


def criterion_6(quick=False):
    """S-transformation laws of the four transformation lemmas at three
    generic points, rel err <= 1e-6; corollary constants at 1e-8; formal
    series cross-check at depth 12."""
    laws = _laws(quick, _LEMMAS, 3, lambda lemma, lam, y: [
        verify_S(lemma, lam, 2, y, TOL, THETA_TOL)])
    corollaries = [verify_S(lemma, Weight.zero(l), 0, sample_points(l, 1)[0],
                            COROLLARY_TOL, CROSS_THETA_TOL).passed
                   for l in _ranks(quick) for lemma in _LEMMAS]
    # formal q-expansion cross-check of chi at depth 12, Im tau = 1.1
    l = 1
    ctx = RootSystemCtx.build(l)
    y = YPoint(0.21 + 1.1j, (0.13 + 0.06j,), 0.04)
    for lam in enumerate_dominant(l, 2):
        ch = character(CharacterRequest(ctx, lam, 2, "I", False, 12))
        v_formal = eval_qseries(ch, "I", y)
        v_direct = eval_character(lam, "I", False, y, CROSS_THETA_TOL)
        rel = abs(v_formal - v_direct) / abs(v_direct)
        laws.append((rel, rel <= TOL))
    return _summary(laws, corollaries)


def criterion_7(quick=False):
    """T-transformation laws with exact phases (type II swaps the twist),
    agreement to 1e-10."""
    return _summary(_laws(quick, _LEMMAS, 3, lambda lemma, lam, y: [
        verify_T(lemma, lam, 2, y, PHASE_TOL, T_THETA_TOL)]))


def criterion_8(quick=False):
    """Propositions for normalized characters (S and T laws, conformal
    anomaly phases); the type-II S-law is the Kac-Peterson case."""
    return _summary(_laws(quick, _PROPS, 1, lambda prop, lam, y: [
        verify_props(prop, lam, 2, y, TOL, THETA_TOL, law)
        for law in ("S", "T")]))


def criterion_9(quick=False):
    """Mapping table of the S/T arrows between the three character families
    (least squares), Gram rank 3|P_{2,+}|, and the closure of the fourth
    family under S and T."""
    ok, rep, rep_psi = verify_sl2(1, 2, TOL, THETA_TOL)
    return {"pass": ok,
            "arrows": rep["arrows"] + rep_psi["arrows"],
            "gram_rank": rep["gram_rank"],
            "expected_gram_rank": rep["expected_gram_rank"],
            "gram_sigma_ratio": rep["gram_sigma_ratio"]}


def criterion_10(quick=False):
    """Poisson resummation on Z^l (5 seeded random (a, tau) per rank,
    rel err <= 1e-8) and the sine product formula for 2 <= N <= 50."""
    rng = random.Random(POISSON_SEED)
    details = []
    ranks = (1, 2) if quick else (1, 2, 3)
    for l in ranks:
        for _ in range(5):
            rep = poisson_check(l, *poisson_args(rng, l), POISSON_TOL)
            details.append({"rank": l, "rel_err": rep.rel_err,
                            "pass": rep.passed})
    details.append({"check": "sine product 2..50",
                    "pass": not sin_product_failures(50, SIN_PRODUCT_TOL)})
    return {"pass": all(d["pass"] for d in details), "checks": len(details)}


def criterion_11(quick=False):
    """osp(1|2): bracket identities exact on w_0..w_20; dim L(N alpha) =
    2N+1 for N <= 10; Verma reducibility iff lambda(H) in 2Z_{>=0}."""
    details = []
    for lam in (Fraction(0), Fraction(4), Fraction(-1), Fraction(1, 2),
                Fraction(7, 3), Fraction(9)):
        bad = check_bracket_relations(lam, 20)
        details.append({"check": f"brackets lambda(H)={lam}", "pass": not bad})
    dims_ok = all(osp_irreducible_dim(N) == 2 * N + 1 for N in range(11))
    details.append({"check": "dim L(N alpha) = 2N+1, N <= 10", "pass": dims_ok})
    red_ok = all(verma_reducible(x) == expected for x, expected in (
        (Fraction(-1), False), (Fraction(1, 2), False), (Fraction(1), False),
        (Fraction(3), False), (Fraction(0), True), (Fraction(2), True),
        (Fraction(10), True)))
    details.append({"check": "reducible iff lambda(H) in 2Z>=0", "pass": red_ok})
    return {"pass": all(d["pass"] for d in details), "details": details}


def criterion_12(quick=False):
    """Coordinate geometry: the transition map squares to the identity, the
    phi involution and its projection intertwining hold exactly, and the
    commutative diagrams hold to 1e-12 on 100 random points."""
    rng = random.Random(991)
    n_pts = 30 if quick else 100
    exact_ok = True
    worst = 0.0
    for _ in range(n_pts):
        l = rng.choice((1, 2, 3))
        # rational layer: exact
        w = Weight(tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4)))
                         for _ in range(l)),
                   Fraction(rng.randint(-20, 20), 2),
                   Fraction(rng.randint(-20, 20), 2))
        if phi_involution(phi_involution(w)) != w:
            exact_ok = False
        if phi_involution(w.project_finite("I")) != \
                phi_involution(w).project_finite("II"):
            exact_ok = False
        lhs = inner(phi_involution(w), phi_involution(w))
        if lhs != inner(w, w):
            exact_ok = False
        # complex layer
        y = YPoint(complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.2)),
                   tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(l)),
                   complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        yy = transition(transition(y))
        worst = max(worst, abs(yy.tau - y.tau), abs(yy.t - y.t),
                    max(abs(a - b) for a, b in zip(yy.z, y.z)))
        # triangle: phi^(I) = transition o phi^(II) on the complex domain
        v = point_to_weight("II", y)
        y_I = weight_to_point("I", v)
        ty = transition(y)
        worst = max(worst, abs(y_I.tau - ty.tau), abs(y_I.t - ty.t),
                    max(abs(a - b) for a, b in zip(y_I.z, ty.z)))
        # involution square: phi^(II)(phi(v)) = phi^(I)(v)
        y_phi = weight_to_point("II", v.phi())
        y_dir = weight_to_point("I", v)
        worst = max(worst, abs(y_phi.tau - y_dir.tau), abs(y_phi.t - y_dir.t),
                    max(abs(a - b) for a, b in zip(y_phi.z, y_dir.z)))
        # chart round trip
        rt = weight_to_point("II", point_to_weight("II", y))
        worst = max(worst, abs(rt.tau - y.tau), abs(rt.t - y.t),
                    max(abs(a - b) for a, b in zip(rt.z, y.z)))
    return {"pass": exact_ok and worst <= CHART_TOL, "exact_layer": exact_ok,
            "worst_complex_err": worst, "points": n_pts}


CRITERIA = (
    ("1 denominator identity", criterion_1),
    ("2 twisted denominator identity", criterion_2),
    ("3 super-denominator identity", criterion_3),
    ("4 character positivity / chi_0", criterion_4),
    ("5 super-character = twisted character", criterion_5),
    ("6 S-transformation lemmas", criterion_6),
    ("7 T-transformation lemmas", criterion_7),
    ("8 character transformation propositions", criterion_8),
    ("9 SL2(Z) closure and Gram rank", criterion_9),
    ("10 Poisson resummation / sine product", criterion_10),
    ("11 osp(1|2) structure", criterion_11),
    ("12 coordinate geometry", criterion_12),
)


def run_suite(quick=False):
    """Every criterion in order, each printed as it passes or fails; the
    printed lines and the results hold no timings, so both reproduce."""
    results = []
    for name, fn in CRITERIA:
        out = fn(quick=quick)
        out["name"] = name
        results.append(out)
        print(f"[{'PASS' if out['pass'] else 'FAIL'}] criterion {name}")
    return results
