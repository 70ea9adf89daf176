"""The benchmark's workloads: job lists drawn from a seed, and the judges that
read each job's output after the timed region.

A job is one call into kacmod's public API.  Its judge returns an Outcome:
kacmod's own verdict, the benchmark's independent output check, the
(rel_err, tol) pair of every floating-point law the job verified, and a
digest of every exact output (so two commits can be shown to produce the
same series).

Every draw that changes how much work a job does is held fixed (depth, rank,
the size of each weight set), so the seed moves the inputs but not the cost
of a pass; see NOTES.md for the reasons and the sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

WORKLOADS = ("exact-products", "exact-division", "analytic-laws", "suite")

# (rank, level) pairs whose dominant-weight tables each workload draws from
TABLES = {
    "exact-products": ((2, 2), (2, 4)),
    "exact-division": ((3, 2), (2, 4)),
    "analytic-laws": ((1, 2), (2, 2), (3, 2), (1, 4)),
    "suite": ((1, 2), (2, 2)),
}

MODULES = ("lattice", "roots", "weyl", "qseries", "characters", "modular",
           "superalg", "suite", "cli")

# tolerances of the analytic checks: kacmod's own defaults
S_TOL, T_TOL, POISSON_TOL, SL2_TOL = 1e-6, 1e-10, 1e-8, 1e-6
EXACT_TOL = 1.0  # an exact comparison enters the accuracy metrics as 0 or 1


def load_kacmod() -> SimpleNamespace:
    """Import every kacmod module (kacmod.modular pulls in numpy)."""
    return SimpleNamespace(**{m: importlib.import_module(f"kacmod.{m}")
                              for m in MODULES})


def build_tables(kac, workload) -> dict:
    """The RootSystemCtx of each rank and the dominant-weight tables the
    workload's jobs draw from."""
    pairs = TABLES[workload]
    ctx = {l: kac.roots.RootSystemCtx.build(l)
           for l in sorted({l for l, _ in pairs})}
    weights = {(l, k): kac.roots.enumerate_dominant(l, k) for l, k in pairs}
    return {"ctx": ctx, "weights": weights}


@dataclass
class Outcome:
    verdict: bool                 # kacmod's own pass/fail
    checked: bool                 # the benchmark's independent check
    laws: list = field(default_factory=list)  # (rel_err, tol) per law


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    digest: Callable[[Any], str | None] = lambda out: None  # exact outputs


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _sha(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def series_digest(kac, s) -> str:
    return _sha([s.rank, kac.lattice.weight_to_json(s.apex), s.height_cap,
                 s.q_cap, [[list(v), c] for v, c in s.sorted_items()]])


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------

def _exact_outcome(ok) -> Outcome:
    """An exact comparison enters the accuracy metrics as rel_err 0 or 1."""
    return Outcome(True, ok, [(0.0 if ok else 1.0, EXACT_TOL)])


def _denominator_job(kac, l, d, twisted):
    ch = kac.characters
    # the built-in Weyl-sum vs product comparison is the check
    return Job(f"denominator l={l} d={d} twisted={twisted}",
               lambda: ch.check_denominator_identity(l, d, twisted),
               lambda rep: _exact_outcome(rep["equal"]), _sha)


def _super_denominator_job(kac, l, d):
    sa, ch, lat, roots = kac.superalg, kac.characters, kac.lattice, kac.roots

    def judge(sd):
        # criterion-3 route: the twisted anti-invariant, delta-shifted
        anti = ch.anti_invariant(lat.Weight.zero(l), "I", True, d, sd.height_cap)
        shift = lat.norm_sq(roots.rho(l)) / (2 * (2 * l + 1))
        return _exact_outcome(sd == anti.shift_apex_delta(shift))
    return Job(f"super_denominator l={l} d={d}",
               lambda: sa.super_denominator(l, d), judge,
               lambda sd: series_digest(kac, sd))


def _super_character_job(kac, ctx, lam, k, d, idx):
    sa, ch = kac.superalg, kac.characters

    def judge(sch):
        # criterion-5 route: the twisted character by series division
        req = ch.CharacterRequest(ctx, lam, k, "I", True, d)
        tw = ch.character(req, height_cap=sch.height_cap)
        anomaly = ch.conformal_anomaly(lam)
        return _exact_outcome(sch == tw.shift_apex_delta(anomaly))
    return Job(f"super_character l={ctx.rank} k={k} d={d} lam={idx}",
               lambda: sa.super_character(lam, d), judge,
               lambda sch: series_digest(kac, sch))


def _character_job(kac, ctx, lam, k, d, sharp, twisted, idx):
    ch, qs, lat = kac.characters, kac.qseries, kac.lattice
    req = ch.CharacterRequest(ctx, lam, k, sharp, twisted, d)

    def judge(chi):
        # re-multiplication: chi * A_rho == A_{lam+rho} in the same ring
        hc = chi.height_cap
        num = ch.anti_invariant(lam, sharp, twisted, d, hc)
        den = ch.anti_invariant(lat.Weight.zero(ctx.rank), sharp, twisted, d, hc)
        return _exact_outcome(qs.mul(chi, den) == num)
    return Job(f"character l={ctx.rank} k={k} d={d} lam={idx} sharp={sharp} "
               f"twisted={twisted}", lambda: ch.character(req), judge,
               lambda chi: series_digest(kac, chi))


def _report_judge(tol):
    def judge(rep):
        return Outcome(bool(rep.passed), True, [(rep.rel_err, tol)])
    return judge


def _sl2_job(kac, l, k, psi_arrows):
    md = kac.modular
    arrows = md.PSI_I_ARROWS if psi_arrows else md.SL2_ARROWS

    def judge(out):
        laws = [(a["residual"], SL2_TOL) for a in out["arrows"]]
        return Outcome(bool(out["pass"]), True, laws)
    return Job(f"sl2 l={l} k={k} arrows={'psiI' if psi_arrows else 'main'}",
               lambda: md.verify_sl2_closure(l, k, arrows=arrows,
                                             include_gram=not psi_arrows),
               judge)


def _smatrix_job(kac, kind, k, l, n):
    md = kac.modular

    def judge(sm):
        ok = (len(sm.entries) == n and all(len(row) == n for row in sm.entries)
              and all(math.isfinite(abs(x)) for row in sm.entries for x in row))
        return Outcome(True, ok)
    return Job(f"smatrix {kind} l={l} k={k}", lambda: md.smatrix(kind, k, l),
               judge)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def exact_products(kac, tables, rng):
    """Product expansion (qseries.mul) with no division: the denominator
    identity at ranks 3 and 4, the super-denominator and super-characters.
    The seed draws each job's twist and the order of the jobs."""
    jobs = [_denominator_job(kac, 3, 12, rng.random() < 0.5),
            _denominator_job(kac, 4, 5, rng.random() < 0.5),
            _super_denominator_job(kac, 3, 6)]
    ctx = tables["ctx"][2]
    for k, d in ((2, 8), (4, 6)):
        for i, lam in enumerate(tables["weights"][(2, k)]):
            jobs.append(_super_character_job(kac, ctx, lam, k, d, i))
    rng.shuffle(jobs)
    return jobs


def exact_division(kac, tables, rng):
    """Graded long division (qseries.divide) with no products: character()
    for every weight of P_{2,+} at rank 3 and of P_{4,+} at rank 2.  The
    seed draws each job's twist and numeration and the order of the jobs."""
    jobs = []
    for (l, k), d in (((3, 2), 7), ((2, 4), 8)):
        ctx = tables["ctx"][l]
        for i, lam in enumerate(tables["weights"][(l, k)]):
            sharp = rng.choice(("I", "II"))
            jobs.append(_character_job(kac, ctx, lam, k, d, sharp,
                                       rng.random() < 0.5, i))
    rng.shuffle(jobs)
    return jobs


IM_TAU = (0.5, 8.0)
POINTS_PER_RANK = 4


def draw_point(md, rng, l, p):
    """Point p of POINTS_PER_RANK: Im tau on a log-spaced grid from 1/2 to 8,
    both ends included (1/2, 1.26, 3.17, 8); Re tau ~ U[-1/2, 1/2]; z_j with
    Re ~ U[-1/2, 1/2] and Im ~ U[-1/4, 1/4]; real t ~ U[-1/5, 1/5].

    Im tau is not drawn: the size of a lattice-sum box jumps with it, and a
    drawn Im tau made the cost of a pass the seed's, not the code's."""
    lo, hi = IM_TAU
    im = lo * (hi / lo) ** (p / (POINTS_PER_RANK - 1))
    tau = complex(rng.uniform(-0.5, 0.5), im)
    z = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.25, 0.25))
              for _ in range(l))
    return md.YPoint(tau, z, rng.uniform(-0.2, 0.2))


def _verify(md, family, law, which, lam, y):
    # looked up at call time, so a traced run sees the call
    if family == "lemma":
        return getattr(md, f"verify_{law}")(which, lam, 2, y)
    return md.verify_props(which, lam, 2, y, law=law)


# (family, lemmas or propositions, (law, tol) of each)
LAW_FAMILIES = (
    ("lemma", ("4.2", "4.3", "4.4", "4.5"), (("S", S_TOL), ("T", T_TOL))),
    ("prop", ("4.6", "4.7", "4.8", "4.9"), (("S", S_TOL), ("T", S_TOL))))


def analytic_laws(kac, tables, rng):
    """The lattice-sum layer only: S/T laws of lemmas 4.2-4.5 and
    propositions 4.6-4.9 at seeded points, the SL2(Z) closure, the S-matrix
    tables and Poisson resummation.  At each rank the lemmas and the
    propositions get POINTS_PER_RANK points each, one per Im(tau) grid
    value, and all 8 laws of a family run at each of its points.  The seed draws the
    points, the weight of each law check and the Poisson arguments."""
    md = kac.modular
    jobs = []
    for l in (1, 2, 3):
        lams = tables["weights"][(l, 2)]
        for family, names, laws in LAW_FAMILIES:
            for p in range(POINTS_PER_RANK):
                y = draw_point(md, rng, l, p)
                for which in names:
                    for law, tol in laws:
                        i = rng.randrange(len(lams))
                        jobs.append(Job(
                            f"{law} {family} {which} l={l} point={p} lam={i}",
                            lambda a=(md, family, law, which, lams[i], y):
                                _verify(*a),
                            _report_judge(tol)))
    for l, k in ((1, 2), (1, 4), (2, 2)):
        for psi_arrows in (False, True):
            jobs.append(_sl2_job(kac, l, k, psi_arrows))
    n = len(tables["weights"][(3, 2)])
    for kind in ("aI", "aI_II", "aII_I", "aII"):
        jobs.append(_smatrix_job(kac, kind, 2, 3, n))
    # criterion 10's draws
    for l in (1, 2, 3, 4):
        for j in range(5):
            a = tuple(complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.5, 0.5))
                      for _ in range(l))
            tau = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.5, 2.0))
            jobs.append(Job(
                f"poisson l={l} draw={j}",
                lambda l=l, a=a, tau=tau: md.poisson_check(l, a, tau),
                _report_judge(POISSON_TOL)))
    return jobs


def suite(kac, report_dir):
    """`kacmod suite --report <file>` in process; the seed is ignored.  The
    (rel_err, tol) of every law report the battery makes is recorded on the
    way out of modular.make_report, for the accuracy metrics."""
    md = kac.modular
    path = os.path.join(report_dir, "suite-report.json")

    def run():
        laws, make_report = [], md.make_report

        def recording(*args, **kwargs):
            rep = make_report(*args, **kwargs)
            laws.append((rep.rel_err, rep.metadata["tol"]))
            return rep
        md.make_report = recording
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = kac.cli.main(["suite", "--report", path])
        finally:
            md.make_report = make_report
        with open(path, "rb") as fh:
            return code, fh.read(), laws

    def judge(out):
        code, raw, laws = out
        rep = json.loads(raw)
        results = rep["results"]
        ok = len(results) == 12 and rep["pass"] == (code == 0)
        for r in results:
            if r["name"].startswith("9 "):
                laws = laws + [(a["residual"], SL2_TOL) for a in r["arrows"]]
        return Outcome(code == 0, ok, laws)
    return [Job("suite --report", run, judge, lambda out: _sha(out[1].decode()))]


SEEDED = {"exact-products": exact_products, "exact-division": exact_division,
          "analytic-laws": analytic_laws}


def build_jobs(kac, tables, workload, seed, report_dir):
    """The job list of one pass; the same seed gives the same jobs.
    report_dir takes the suite's report file."""
    if workload == "suite":
        return suite(kac, report_dir)
    return SEEDED[workload](kac, tables, random.Random(f"{workload}:{seed}"))
