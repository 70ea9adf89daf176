#!/usr/bin/env python3
"""The kacmod benchmark: run one workload for a fixed time, check its
outputs, and print its metrics.

    python3 bench/run.py --workload exact-products --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; kacmod is imported from its src/
directory and from nowhere else.  One process runs the workload: numpy's BLAS
is pinned to one thread, and no other threads or worker processes are
started (set-up is also timed in a few short child processes, run one at a
time).

A pass runs the workload's job list once.  Passes repeat until --seconds of
pass time is used (at least one pass).  With --trace 0 the end-to-end
metrics are printed; with --trace 1 half the time goes to untraced passes and
half to traced passes, and the per-layer metrics are printed.  The outputs
of the first pass are judged after all passes, outside the timed region, and
every later pass must reproduce its exact-output digests.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# pinned before anything can import numpy
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 4        # extra set-up samples, each in a fresh process
FLOAT_EPS = 2.2e-16
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "pass_ratio": "ratio", "accuracy_digits_p50": "digits",
             "accuracy_digits_low": "digits"}


def _use_checkout_source():
    if not (SRC / "kacmod" / "__init__.py").is_file():
        raise SystemExit(f"error: no kacmod sources under {SRC}; run from "
                         "the root of a kacmod checkout")
    sys.path.insert(0, str(SRC))


def setup(workload):
    """Import kacmod and build the tables the jobs draw from; return the
    seconds it took, the module namespace and the tables."""
    t0 = time.perf_counter()
    import workloads as wl
    kac = wl.load_kacmod()
    tables = wl.build_tables(kac, workload)
    seconds = time.perf_counter() - t0
    if not Path(kac.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: kacmod was imported from {kac.cli.__file__}")
    return seconds, kac, tables


def probe_setup(workload) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


def run_pass(jobs, tracer=None):
    """Run every job once; a job that raises is recorded and the pass goes
    on.  Returns the pass time and per job (output, error)."""
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
            idx = tracer.open("job")
        try:
            results.append((job.run(), None))
        except Exception as exc:
            results.append((None, f"{type(exc).__name__}: {exc}"))
        finally:
            if tracer:
                tracer.close(idx)
    return time.perf_counter() - t0, results


def signature(jobs, results) -> list:
    """What a later pass must reproduce: exact digests and raised errors."""
    return [job.digest(out) if err is None else err
            for job, (out, err) in zip(jobs, results)]


def repeat(jobs, budget, tracing=None):
    """Passes until `budget` seconds of pass time are used, at least one.
    Returns pass times, the first pass's results, and each pass's signature
    (and tracer, when tracing)."""
    times, sigs, tracers, first = [], [], [], None
    while not times or sum(times) + times[-1] <= budget:
        gc.collect()  # garbage of earlier passes is not charged to this one
        tracer = None
        if tracing:
            tracer = tracing()
        try:
            dt, results = run_pass(jobs, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        times.append(dt)
        sigs.append(signature(jobs, results))
        tracers.append(tracer)
        first = first or results
    return times, first, sigs, tracers


def judge(jobs, results):
    """Failures (raised, kacmod's verdict false, or check rejected), whether
    every output check passed, and the (rel_err, tol) of every law."""
    failed, laws, checked = [], [], True
    for job, (out, err) in zip(jobs, results):
        if err is not None:
            failed.append((job.name, err))
            continue
        oc = job.judge(out)
        laws.extend(oc.laws)
        checked = checked and oc.checked
        if not oc.checked:
            failed.append((job.name, "output check rejected"))
        elif not oc.verdict:
            failed.append((job.name, "kacmod verdict: fail"))
    return failed, checked, laws


def accuracy_digits(laws):
    """log10(tol / max(rel_err, eps)) per law: the median, and the lowest
    value with at least ten laws below it (the minimum under eleven laws)."""
    digits = sorted(math.log10(tol / max(rel, FLOAT_EPS)) for rel, tol in laws)
    low = digits[10] if len(digits) > 10 else digits[0]
    return statistics.median(digits), low


def parse_args(argv):
    import workloads as wl
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    args = parse_args(argv)
    _use_checkout_source()
    if args.setup_probe:
        print(setup(args.workload)[0])
        return 0

    setup_main, kac, tables = setup(args.workload)
    setup_s = statistics.median([setup_main] + probe_setup(args.workload))

    import tracing
    import workloads as wl
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".run-") as tmp:
        jobs = wl.build_jobs(kac, tables, args.workload, args.seed, tmp)
        budget = args.seconds / 2 if args.trace else args.seconds
        times, first, sigs, _ = repeat(jobs, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            def tracing_pass():
                tracer = tracing.Tracer()
                tracer.install(kac)
                tracer.job = "setup"  # the set-up tables, under the tracer
                wl.build_tables(kac, args.workload)
                return tracer
            ttimes, _, tsigs, tracers = repeat(jobs, args.seconds - sum(times),
                                               tracing_pass)
            sigs += tsigs
        failed, checked, laws = judge(jobs, first)

    counts_repeat = True
    if args.trace:
        metrics = tracing.layer_metrics(tracers, times, ttimes)
        counts_repeat = all(tracing.counters(t) == tracing.counters(tracers[0])
                            for t in tracers)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as fh:
            for n, t in enumerate(tracers):
                t.dump(fh, n)
    else:
        p50, low = accuracy_digits(laws)
        values = {"setup_s": setup_s, "wall_s": statistics.median(times),
                  "peak_rss_mb": peak_rss_mb,
                  "pass_ratio": 1 - len(failed) / len(jobs),
                  "accuracy_digits_p50": p50, "accuracy_digits_low": low}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    reproducible = all(s == sigs[0] for s in sigs)
    all_digests = hashlib.sha256(json.dumps(sigs[0]).encode()).hexdigest()[:16]
    print(f"# workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"passes={len(sigs)} blas={','.join(f'{k}={v}' for k, v in BLAS_ENV.items())}")
    for job, (out, err), sig in zip(jobs, first, sigs[0]):
        if err is None and sig is not None:
            print(f"# digest {sig}  {job.name}")
    print(f"# digest {all_digests}  all jobs")
    for name, why in failed:
        print(f"# failed {name}: {why}")
    if not reproducible:
        print("# a later pass did not reproduce the first pass's outputs")
    if not counts_repeat:
        print("# traced passes disagree on the work counts")
    print(json.dumps({"correct": checked and reproducible and counts_repeat,
                      "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
