#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, written to one JSON file.

    python3 scripts/bench_pairs.py --parent ../kacmod-parent --change . \
        --run analytic-laws:1:10 --run suite:1:5 --trace analytic-laws:1:3 \
        --cli "verify sl2 --rank 4 --level 2" --seconds 30 --out BENCH_5.json

`--parent` is a checkout directory, or else a git revision of the change
checkout (`--parent HEAD~1`), which is extracted with `git archive` into a
temporary directory for the runs; `parent_commit` records the commit either
way, or null for a directory outside git.
Each `--run WORKLOAD:SEED:PAIRS` runs `bench/run.py --trace 0` PAIRS times in
each checkout, one process at a time, alternating which side goes first;
PAIRS is at least 2, so each side has quartiles.  Each
`--trace WORKLOAD:SEED:RUNS` runs `--trace 1` RUNS times per side (RUNS at
least 2), alternating the same way.  Every spec is checked against the
workloads of BENCHMARK.json before the first run.  The last stdout line of
every run is kept verbatim under `runs`; `summary` gives the quartiles of
each end-to-end metric per side, the change/parent ratio of the medians
(null when the parent's median is 0) and the number of pairs the change
wins, and `traced` the same for each per-layer metric of LAYERS that every
traced run reports; `same_outputs` says whether every `# digest` and
`# failed` line of each pair agreed.  Each `--cli ARGV`
times CLI_PAIRS pairs of whole `python -m kacmod ARGV` processes, one per
checkout, alternating which goes first, and records them under `cli` with
the same quartiles, ratio and wins, the exit codes, and whether each pair
printed the same stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# end-to-end metrics and whether lower is better
E2E = {"setup_s": True, "wall_s": True, "peak_rss_mb": True,
       "pass_ratio": False, "accuracy_digits_p50": False,
       "accuracy_digits_low": False}
# per-layer metrics kept from the traced runs, with each suite criterion's
# time
LAYERS = ("qseries.mul.self_s", "qseries.divide.self_s",
          "qseries.divide.calls", "characters.anti_invariant.self_s",
          "characters.denominator_product.self_s",
          "characters.character.self_s", "superalg.super_denominator.self_s",
          "superalg.super_character.self_s",
          "superalg.check_bracket_relations.self_s",
          "modular.eval_anti_invariant.self_s",
          "modular.eval_anti_invariant.calls", "modular.eval_theta.calls",
          "modular.smatrix_entry.self_s", "modular.smatrix_entry.calls",
          "modular.poisson_check.self_s", "modular.eval_character.calls",
          "modular.verify.self_s", "modular.verify_sl2_closure.self_s",
          "weyl.enumerate_finite.calls", "roots.enumerate_dominant.self_s",
          "roots.enumerate_dominant.calls", "trace.overhead_ratio",
          *(f"suite.criterion_{i}.s" for i in range(1, 13)))
# pairs of processes per --cli command: as many as a gain claim needs
CLI_PAIRS = 10
# the workloads the benchmark declares
WORKLOADS = tuple(w["name"] for w in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    ["workloads"])


def run_bench(root: Path, workload, seed, seconds, trace):
    """(last stdout line as JSON, the `# digest` / `# failed` lines)."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    marks = [ln for ln in lines if ln.startswith(("# digest", "# failed"))]
    return json.loads(lines[-1]), marks


def run_cli(root: Path, argv):
    """(wall seconds, exit code, sha256 of stdout) of one `python -m kacmod`
    process on the sources of the checkout at root."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kacmod", *argv], cwd=root,
                          env=env, capture_output=True)
    return (time.perf_counter() - start, proc.returncode,
            hashlib.sha256(proc.stdout).hexdigest())


def time_cli(sides, argv, n):
    """n alternating pairs of run_cli, summarized like a workload."""
    secs, codes = {"parent": [], "change": []}, {"parent": [], "change": []}
    same = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            s, code, digests[side] = run_cli(sides[side], argv)
            secs[side].append(s)
            codes[side].append(code)
        same.append(digests["parent"] == digests["change"])
        print(f"kacmod {shlex.join(argv)} pair {i + 1}/{n}: "
              f"{secs['parent'][-1]:.3f} -> {secs['change'][-1]:.3f} s",
              file=sys.stderr)
    return {"argv": shlex.join(argv), "pairs": n,
            "parent_s": secs["parent"], "change_s": secs["change"],
            **compare(secs["parent"], secs["change"]),
            "exit_parent": codes["parent"], "exit_change": codes["change"],
            "same_stdout": same}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, med, q3]


def compare(par, chg, lower=True):
    """Quartiles of the parent's and the change's values of one metric, the
    change/parent ratio of the medians (None when the parent's is 0) and the
    number of pairs the change wins."""
    med = statistics.median(par)
    return {"parent_q1_med_q3": quartiles(par),
            "change_q1_med_q3": quartiles(chg),
            "change_over_parent_median":
                statistics.median(chg) / med if med else None,
            "change_wins": sum((c < p) if lower else (c > p)
                               for p, c in zip(par, chg))}


def values(pairs, name):
    """The parent's and the change's values of one metric over pairs."""
    return ([p["parent"]["metrics"][name]["value"] for p in pairs],
            [p["change"]["metrics"][name]["value"] for p in pairs])


def summarize(workload, seed, pairs):
    metrics = {name: compare(*values(pairs, name), lower)
               for name, lower in E2E.items()}
    return {"workload": workload, "seed": seed, "pairs": len(pairs),
            "failed_parent": [p["parent"]["failed"] for p in pairs],
            "failed_change": [p["change"]["failed"] for p in pairs],
            "correct": all(p[s]["correct"] for p in pairs
                           for s in ("parent", "change")),
            "same_outputs": all(p["same_outputs"] for p in pairs),
            "metrics": metrics}


def parse_spec(ap, flag, spec, count):
    """(workload, seed, n) from WORKLOAD:SEED:N, where count names N (PAIRS
    or RUNS); a malformed spec ends the program through ap.error."""
    parts = spec.split(":")
    shape = f"WORKLOAD:SEED:{count}"
    if len(parts) != 3:
        ap.error(f"{flag} {spec!r}: expected {shape}")
    if parts[0] not in WORKLOADS:
        ap.error(f"{flag} {spec!r}: unknown workload {parts[0]!r} "
                 f"(choose from {', '.join(WORKLOADS)})")
    try:
        seed, n = int(parts[1]), int(parts[2])
    except ValueError:
        ap.error(f"{flag} {spec!r}: expected {shape} with integer SEED "
                 f"and {count}")
    if n < 2:
        ap.error(f"{flag} {spec!r}: {count} must be at least 2 for quartiles")
    return parts[0], seed, n


def parse_cli(ap, argv):
    """The words of one --cli command; an empty or unbalanced one ends the
    program through ap.error."""
    try:
        words = shlex.split(argv)
    except ValueError as exc:
        ap.error(f"--cli {argv!r}: {exc}")
    if not words:
        ap.error(f"--cli {argv!r}: expected the arguments of a kacmod command")
    return words


def git_commit(root: Path, rev="HEAD"):
    """The commit id of rev in the repository at root, or None."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
            cwd=root, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def resolve_parent(ap, parent, change: Path, tmp: Path):
    """(checkout directory, commit id or None) of --parent: a directory as it
    is, or else a git revision of the change checkout, whose tree git archive
    writes under tmp.  A name that is neither ends the program through
    ap.error."""
    if Path(parent).is_dir():
        root = Path(parent).resolve()
        return root, git_commit(root)
    commit = git_commit(change, parent)
    if commit is None:
        ap.error(f"--parent {parent!r}: neither a directory nor a git "
                 f"revision of {change}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=change, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
    return tmp, commit


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="checkout directory, or a git revision of --change")
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--run", action="append", default=[],
                    help="WORKLOAD:SEED:PAIRS with PAIRS >= 2, repeatable")
    ap.add_argument("--trace", action="append", default=[],
                    help="WORKLOAD:SEED:RUNS with RUNS >= 2, repeatable")
    ap.add_argument("--cli", action="append", default=[],
                    help="the arguments of one kacmod command, quoted; "
                         "repeatable")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    runs = [parse_spec(ap, "--run", spec, "PAIRS") for spec in args.run]
    traces = [parse_spec(ap, "--trace", spec, "RUNS") for spec in args.trace]
    clis = [parse_cli(ap, argv) for argv in args.cli]
    change = args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent, commit = resolve_parent(ap, args.parent, change, Path(tmp))
        doc = run_pairs(args.seconds, runs, traces, clis, commit,
                        {"parent": parent, "change": change})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


def alternate(sides, workload, seed, seconds, trace, n):
    """n pairs of run_bench, one per side, alternating which side goes
    first; each pair keeps both results and whether their marks agree."""
    pairs = []
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"workload": workload, "seed": seed, "trace": trace,
                "first": order[0]}
        marks = {}
        for side in order:
            pair[side], marks[side] = run_bench(
                sides[side], workload, seed, seconds, trace)
        pair["same_outputs"] = marks["parent"] == marks["change"]
        pairs.append(pair)
        line = f"{workload} seed {seed} trace {trace} pair {i + 1}/{n}"
        if not trace:  # a traced run reports per-layer metrics only
            par, chg = (pair[s]["metrics"]["wall_s"]["value"]
                        for s in ("parent", "change"))
            line += f": wall_s {par:.3f} -> {chg:.3f}"
        print(line, file=sys.stderr)
    return pairs


def run_pairs(seconds, runs, traces, clis, parent_commit, sides):
    """The document of the paired runs of the checkouts in sides."""
    import numpy
    doc = {"what": f"bench/run.py --seconds {seconds:g}, parent vs "
                   "change, pairs alternating which side runs first; every "
                   "run's last stdout line is kept verbatim under "
                   "runs[].parent / runs[].change; cli[] times whole "
                   "`python -m kacmod` processes in pairs the same way",
           "parent_commit": parent_commit,
           "machine": {"python": platform.python_version(),
                       "numpy": numpy.__version__, "cpus": os.cpu_count()},
           "summary": [], "traced": [], "cli": [], "runs": []}
    for workload, seed, n in runs:
        pairs = alternate(sides, workload, seed, seconds, 0, n)
        doc["runs"] += pairs
        doc["summary"].append(summarize(workload, seed, pairs))
    for workload, seed, n in traces:
        pairs = alternate(sides, workload, seed, seconds, 1, n)
        doc["runs"] += pairs
        # the layers every traced run of both sides reports
        names = [k for k in LAYERS if all(k in p[side]["metrics"]
                                          for p in pairs
                                          for side in ("parent", "change"))]
        doc["traced"].append({
            "workload": workload, "seed": seed, "runs": n,
            "same_outputs": all(p["same_outputs"] for p in pairs),
            "layers": {k: compare(*values(pairs, k)) for k in names}})
    for argv in clis:
        doc["cli"].append(time_cli(sides, argv, CLI_PAIRS))
    return doc


if __name__ == "__main__":
    main()
