"""Command-line front end: root-datum dumps, character q-expansions,
identity checks, transformation-law verifiers and the acceptance suite.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error, 141 stdout closed by the reader.  JSON output is deterministic: fixed
key order, floats at 15 significant digits, complex numbers as [re, im]
pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import qseries as qs
from .characters import (CharacterRequest, character,
                         check_denominator_identity, conformal_anomaly)
from .lattice import Weight, frac_to_str, level, weight_to_json
from .modular import (YPoint, poisson_args, poisson_check, sample_points,
                      sin_product_failures, smatrix, verify_S, verify_T,
                      verify_props, verify_sl2)
from .roots import RootSystemCtx, enumerate_dominant, from_dynkin_labels
from .suite import POISSON_SEED, THETA_TOL, T_THETA_TOL, run_suite
from .superalg import (GENERATORS, check_bracket_relations,
                       check_super_character, check_super_denominator,
                       osp_action_matrix, osp_irreducible_dim)


def _f(x: float):
    return float(f"{x:.15g}")


def _c(x: complex):
    x = complex(x)
    return [_f(x.real), _f(x.imag)]


def _jsonable(obj):
    if isinstance(obj, complex):
        return _c(obj)
    if isinstance(obj, float):
        return _f(obj)
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if isinstance(obj, Weight):
        return weight_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and callable(obj.item):
        return _jsonable(obj.item())  # numpy scalars
    return obj


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        print(json.dumps(_jsonable(payload)))


# verify sinprod does O(nmax^2) work, about a second at this cap on one core;
# a larger --nmax is refused rather than run for hours
_NMAX_CAP = 4000
# super osp writes (2N+1)^2 entries per generator matrix: about a second and
# 3 MB at this cap
_N_CAP = 100
# weights builds and writes every weight of P_{k,+}, C(l + k/2, l) of them:
# about a second per 5,000 as a process
_WEIGHTS_CAP = 5000
# roots and weights build and write rows of l + 1 exact coordinates; near
# this cap `roots --rank 110` and `weights --rank 157 --level 2` each take
# about half a second as a process (a weight is summed from the fundamental
# weights of its nonzero labels only)
_OUTPUT_CAP = 50_000


def _parse_complex(s, flag):
    try:
        x = complex(s.replace(" ", "").replace("i", "j"))
        if cmath.isfinite(x):
            return x
    except ValueError:
        pass
    raise ValueError(f"{flag} must be a finite complex number such as "
                     f"0.37+1.13i, got {s!r}")


def _check_args(args):
    """Reject out-of-range flags before any work is done."""
    if "rank" in args and args.rank < 1:
        raise ValueError(f"--rank must be >= 1, got {args.rank}")
    if not 0 < getattr(args, "tol", 1) < float("inf"):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    if "nmax" in args and not 2 <= args.nmax <= _NMAX_CAP:
        raise ValueError(f"--nmax must be in 2..{_NMAX_CAP} (the check costs "
                         f"O(nmax^2)), got {args.nmax}")
    if "N" in args and not 0 <= args.N <= _N_CAP:
        raise ValueError(f"--N must be in 0..{_N_CAP} (the output has "
                         f"O(N^2) entries), got {args.N}")
    if args.cmd == "weights" and args.level >= 0 and args.level % 2 == 0:
        count = _dominant_count(args.rank, args.level // 2)
        if count is None or count > _WEIGHTS_CAP:
            count = count or f"more than {_WEIGHTS_CAP}"
            raise ValueError(f"--rank {args.rank} --level {args.level} has "
                             f"{count} dominant weights; at most "
                             f"{_WEIGHTS_CAP} are listed")
        # the weights, and the l + 1 fundamental weights they are sums of
        _check_output(f"--rank {args.rank} --level {args.level}",
                      count + args.rank + 1, args.rank)
    if args.cmd == "roots":
        # four bases of l + 1 weights, rho and the two level tables
        _check_output(f"--rank {args.rank}", 4 * args.rank + 7, args.rank)
    if "depth" in args and args.depth < 0:
        raise ValueError(f"--depth must be >= 0, got {args.depth}")
    if getattr(args, "tau", None) is None and (
            getattr(args, "z", None) or getattr(args, "t", None)):
        raise ValueError("--z and --t need --tau")


def _check_output(flags, rows, l):
    """Refuse rows of l + 1 coordinates past _OUTPUT_CAP numbers in all."""
    if rows * (l + 1) > _OUTPUT_CAP:
        raise ValueError(f"{flags} writes {rows} rows of {l + 1} coordinates,"
                         f" {rows * (l + 1)} numbers; at most {_OUTPUT_CAP} "
                         "are written")


def _dominant_count(l, m):
    """|P_{2m,+}| = C(l + m, m), or None where l or m alone is past
    _WEIGHTS_CAP: C(l + m, m) > max(l, m) once m >= 1, so the count is past
    the cap too, and no huge binomial is formed."""
    return None if m and max(l, m) > _WEIGHTS_CAP else math.comb(l + m, m)


def _parse_labels(s):
    try:
        return [int(x) for x in s.split(",")]
    except ValueError:
        raise ValueError("--labels must be comma-separated integers such as "
                         f"1,0, got {s!r}") from None


def _point_from_args(args, l) -> YPoint:
    default = sample_points(l, 1)[0]
    if args.tau is None:
        return default
    z = tuple(_parse_complex(v, "--z") for v in args.z.split(",")) \
        if args.z else default.z
    if len(z) != l:
        raise ValueError(f"--z needs {l} comma-separated values (the rank), "
                         f"got {len(z)}")
    t = _parse_complex(args.t, "--t") if args.t else 0.05
    return YPoint(_parse_complex(args.tau, "--tau"), z, t)


def _weight_from_args(args, l):
    lams = enumerate_dominant(l, args.level)
    if not 0 <= args.index < len(lams):
        raise ValueError(f"--index must lie in 0..{len(lams) - 1} at rank {l},"
                         f" level {args.level}; got {args.index}")
    return lams[args.index]


def _report_payload(rep):
    return {
        "lhs": rep.lhs, "rhs": rep.rhs,
        "abs_err": rep.abs_err, "rel_err": rep.rel_err,
        "pass": rep.passed, "metadata": rep.metadata,
    }


# -- subcommand handlers -----------------------------------------------------

def cmd_roots(args):
    ctx = RootSystemCtx.build(args.rank)
    payload = {
        "rank": ctx.rank,
        "labels": list(ctx.labels),
        "colabels": list(ctx.colabels),
        "simple_roots_I": [weight_to_json(a) for a in ctx.simple_roots_I],
        "simple_roots_II": [weight_to_json(a) for a in ctx.simple_roots_II],
        "fundamental_weights_I": [weight_to_json(w) for w in ctx.fund_weights_I],
        "fundamental_weights_II": [weight_to_json(w) for w in ctx.fund_weights_II],
        "rho": weight_to_json(ctx.rho),
        "level_table_I": [frac_to_str(x) for x in ctx.level_table("I")],
        "level_table_II": [frac_to_str(x) for x in ctx.level_table("II")],
    }
    _emit(payload, args.json)
    return 0


def cmd_weights(args):
    lams = enumerate_dominant(args.rank, args.level)
    payload = {
        "rank": args.rank, "level": args.level, "count": len(lams),
        "weights": [{"index": i, "weight": weight_to_json(w)}
                    for i, w in enumerate(lams)],
    }
    _emit(payload, args.json)
    return 0


def cmd_char(args):
    l = args.rank
    labels = _parse_labels(args.labels)
    ctx = RootSystemCtx.build(l)
    try:
        lam = from_dynkin_labels(l, labels)
        k = int(level(lam))
        req = CharacterRequest(ctx, lam, k, args.sharp, args.twisted,
                               args.depth)
    except ValueError as exc:
        raise ValueError(f"--labels {args.labels}: {exc}") from None
    ch = character(req)
    payload = {
        "rank": l, "labels": labels, "level": k, "sharp": args.sharp,
        "twisted": args.twisted, "depth": args.depth,
        "conformal_anomaly": frac_to_str(conformal_anomaly(lam)),
        "truncation": {"height_cap": ch.height_cap, "q_cap": ch.q_cap},
        "apex": weight_to_json(ch.apex),
        "q_expansion": qs.qexpansion_json(ch),
    }
    _emit(payload, args.json)
    return 0


def cmd_check(args):
    rep = check_denominator_identity(args.rank, args.depth, args.twisted)
    payload = {"check": "denominator", "rank": args.rank, "depth": args.depth,
               "twisted": args.twisted, "pass": rep["equal"],
               "mismatches": rep["mismatches"],
               "first_mismatch_q": rep["first_mismatch_q"],
               "terms": rep["terms"]}
    _emit(payload, args.json)
    return 0 if rep["equal"] else 1


def cmd_smatrix(args):
    sm = smatrix(args.kind, args.level, args.rank)
    payload = {
        "kind": sm.kind, "level": sm.k, "rank": args.rank,
        "index": [weight_to_json(w) for w in sm.index],
        "entries": [[_c(e) for e in row] for row in sm.entries],
    }
    _emit(payload, args.json)
    return 0


# the law verifier of each verify subcommand that checks one law at one point
_LAW_VERIFIERS = {"s-lemma": verify_S, "t-lemma": verify_T,
                  "prop": verify_props}


def cmd_verify(args):
    if args.what == "sinprod":
        bad = sin_product_failures(args.nmax, args.tol)
        _emit({"verify": "sinprod", "nmax": args.nmax, "pass": not bad,
               "failures": bad}, True)
        return 0 if not bad else 1
    l = args.rank
    if args.what == "sl2":
        ok, out, out_psi = verify_sl2(l, args.level, args.tol, THETA_TOL)
        _emit({"verify": "sl2", "rank": l, "level": args.level, "pass": ok,
               "closure": out, "psi_I_closure": out_psi}, True)
        return 0 if ok else 1
    if args.what == "poisson":
        rng = random.Random(POISSON_SEED)
        reports = [poisson_check(l, *poisson_args(rng, l), args.tol)
                   for _ in range(5)]
        ok = all(r.passed for r in reports)
        _emit({"verify": "poisson", "rank": l, "pass": ok,
               "reports": [_report_payload(r) for r in reports]}, True)
        return 0 if ok else 1
    theta_tol = T_THETA_TOL if args.what == "t-lemma" else THETA_TOL
    law = (args.law,) if args.what == "prop" else ()
    rep = _LAW_VERIFIERS[args.what](args.which, _weight_from_args(args, l),
                                    args.level, _point_from_args(args, l),
                                    args.tol, theta_tol, *law)
    _emit({"verify": args.what, "which": args.which,
           **_report_payload(rep)}, True)
    return 0 if rep.passed else 1


def cmd_super(args):
    if args.what == "verify":
        den_ok = check_super_denominator(args.rank, args.depth)["equal"]
        char_ok = all(check_super_character(lam, args.depth)["pass"]
                      for lam in enumerate_dominant(args.rank, args.level))
        ok = den_ok and char_ok
        _emit({"super": "verify", "rank": args.rank, "level": args.level,
               "depth": args.depth, "denominator_pass": den_ok,
               "character_pass": char_ok, "pass": ok}, True)
        return 0 if ok else 1
    n = args.N
    lam = Fraction(2 * n)
    dim = osp_irreducible_dim(n)
    bad = check_bracket_relations(lam, 2 * n + 6)
    payload = {
        "super": "osp", "N": n, "lambda_H": frac_to_str(lam),
        "dim": dim, "brackets_exact": not bad,
        "basis": [f"w_{i}" for i in range(dim)],
        "action_matrices": {
            g: [[frac_to_str(c) for c in row]
                for row in osp_action_matrix(g, lam, dim - 1)]
            for g in GENERATORS},
    }
    _emit(payload, True)
    return 0


def cmd_suite(args):
    results = run_suite(quick=args.quick)
    ok = all(r["pass"] for r in results)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(_jsonable({"pass": ok, "results": results}), fh,
                      indent=2)
    print(f"suite: {'PASS' if ok else 'FAIL'} "
          f"({sum(r['pass'] for r in results)}/{len(results)} criteria)")
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so that main refuses it like any
    other bad input: one error line and exit 2.  A flag must be spelled in
    full, so that `--t` never stands for `--tol`."""

    def __init__(self, *a, **kw):
        super().__init__(*a, allow_abbrev=False, **kw)

    def error(self, message):
        raise ValueError(message)


def build_parser():
    p = _Parser(
        prog="kacmod",
        description="Characters, theta series and modular transformation "
                    "laws of the twisted affine root system BC_l^(2).")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("roots", help="dump the root datum")
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_roots)

    q = sub.add_parser("weights", help="dominant weights of a level")
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_weights)

    q = sub.add_parser("char", help="normalized (twisted) character")
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--labels", required=True,
                   help="comma-separated Dynkin labels m0,...,ml")
    q.add_argument("--depth", type=int, default=8)
    q.add_argument("--twisted", action="store_true")
    q.add_argument("--sharp", choices=("I", "II"), default="I",
                   help="numeration, only recorded: the series is the same "
                        "in both")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_char)

    q = sub.add_parser("check", help="identity checks")
    q.add_argument("what", choices=("denominator",))
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--depth", type=int, default=10)
    q.add_argument("--twisted", action="store_true")
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_check)

    q = sub.add_parser("smatrix", help="transformation matrices")
    q.add_argument("--kind", choices=("aI", "aI_II", "aII_I", "aII"),
                   required=True)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=cmd_smatrix)

    q = sub.add_parser("verify", help="numerical transformation laws")
    what = q.add_subparsers(dest="what", required=True)
    d = "default %(default)s"
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-6, help=d)
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--rank", type=int, default=1, help=d)
    point.add_argument("--level", type=int, default=2, help=d)
    point.add_argument("--index", type=int, default=0,
                       help="index into the dominant-weight list "
                            "(default %(default)s)")
    point.add_argument("--tau", help="complex, e.g. 0.37+1.13i")
    point.add_argument("--z", help="comma-separated complex values")
    point.add_argument("--t")
    for name, which, about in (
            ("s-lemma", "4.2", "S law of lemma 4.2..4.5"),
            ("t-lemma", "4.2", "T law of lemma 4.2..4.5"),
            ("prop", "4.6", "S or T law of proposition 4.6..4.9")):
        w = what.add_parser(name, parents=[tol, point], help=about)
        w.add_argument("--which", default=which, help=d)
    what.choices["prop"].add_argument("--law", choices=("S", "T"),
                                      default="S", help=d)
    w = what.add_parser("sl2", parents=[tol],
                        help="SL2(Z) closure of the character spans")
    w.add_argument("--rank", type=int, default=1, help=d)
    w.add_argument("--level", type=int, default=2, help=d)
    w = what.add_parser("poisson", parents=[tol],
                        help="Poisson resummation at five seeded points")
    w.add_argument("--rank", type=int, default=1, help=d)
    w = what.add_parser("sinprod", parents=[tol], help="the sine product")
    w.add_argument("--nmax", type=int, default=50, help=d)
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("super", help="superalgebra checks")
    what = q.add_subparsers(dest="what", required=True)
    w = what.add_parser("verify",
                        help="super-denominator and super-characters")
    w.add_argument("--rank", type=int, default=1, help=d)
    w.add_argument("--level", type=int, default=2, help=d)
    w.add_argument("--depth", type=int, default=8, help=d)
    w = what.add_parser("osp", help="exact action matrices on L(N a)")
    w.add_argument("--N", type=int, default=3, help=d)
    q.set_defaults(fn=cmd_super)

    q = sub.add_parser("suite", help="run the acceptance battery")
    q.add_argument("--quick", action="store_true",
                   help="restrict to the rank {1,2} subset")
    q.add_argument("--report", default=None, help="write JSON results here")
    q.set_defaults(fn=cmd_suite)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the exit-time
        # flush stays quiet, and exit as a process stopped by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
