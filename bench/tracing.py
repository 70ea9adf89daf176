"""Outside-in tracing of kacmod: wrappers rebound into kacmod's modules from
the benchmark's side, spans kept in memory, and the per-layer metrics derived
from them.

A span is [name, start, end, parent index, job id].  Every wrapped function
is rebound in each kacmod module that holds a reference to it (so
`suite.character` and `cli.character` are traced as well as
`characters.character`), and `uninstall` puts the originals back.  Nothing
under src/ changes.  `lattice` is not wrapped: its Weight/Fraction operations
are too fine-grained for a wrapper, so their cost shows in the callers' self
time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _mul_counts(counts, args, out):
    a, b = args[0], args[1]
    counts["qseries.mul.pairs"] += len(a.terms) * len(b.terms)
    counts["qseries.mul.terms_out"] += len(out.terms)


def _divide_counts(counts, args, out):
    counts["qseries.divide.pairs"] += len(out.terms) * len(args[1].terms)
    counts["qseries.divide.terms_out"] += len(out.terms)


def _anti_counts(counts, args, out):
    counts["characters.anti_invariant.terms_out"] += len(out.terms)


def _verify_counts(counts, args, out):
    # a pass granted by make_report's absolute-error switch
    if out.passed and out.rel_err > out.metadata["tol"]:
        counts["modular.verify.abs_switch_passes"] += 1


def _degenerate(counts, exc):
    if type(exc).__name__ == "DegeneratePointError":
        counts["modular.eval_character.degenerate"] += 1


# (module, attribute, span name, hook on return, hook on exception)
WRAPPED = (
    ("qseries", "mul", "qseries.mul", _mul_counts, None),
    ("qseries", "divide", "qseries.divide", _divide_counts, None),
    ("qseries", "add", "qseries.add", None, None),
    ("characters", "anti_invariant", "characters.anti_invariant", _anti_counts, None),
    ("characters", "denominator_product", "characters.denominator_product", None, None),
    ("characters", "character", "characters.character", None, None),
    ("superalg", "super_denominator", "superalg.super_denominator", None, None),
    ("superalg", "super_character", "superalg.super_character", None, None),
    ("superalg", "check_bracket_relations", "superalg.check_bracket_relations", None, None),
    ("modular", "eval_theta", "modular.eval_theta", None, None),
    ("modular", "eval_anti_invariant", "modular.eval_anti_invariant", None, None),
    ("modular", "eval_character", "modular.eval_character", None, _degenerate),
    ("modular", "smatrix_entry", "modular.smatrix_entry", None, None),
    ("modular", "poisson_check", "modular.poisson_check", None, None),
    ("modular", "verify_S", "modular.verify", _verify_counts, None),
    ("modular", "verify_T", "modular.verify", _verify_counts, None),
    ("modular", "verify_props", "modular.verify", _verify_counts, None),
    ("modular", "verify_sl2_closure", "modular.verify_sl2_closure", None, None),
    ("modular", "sample_points", "modular.sample_points", None, None),
    ("roots", "enumerate_dominant", "roots.enumerate_dominant", None, None),
    ("cli", "main", "cli.main", None, None),
)

SELF_S = ("qseries.mul", "qseries.divide", "qseries.add",
          "characters.anti_invariant", "characters.denominator_product",
          "characters.character", "superalg.super_denominator",
          "superalg.super_character", "superalg.check_bracket_relations",
          "modular.eval_theta", "modular.eval_anti_invariant",
          "modular.smatrix_entry", "modular.poisson_check", "modular.verify",
          "modular.eval_character", "modular.verify_sl2_closure",
          "roots.enumerate_dominant", "roots.RootSystemCtx.build", "cli.main")
CALLS = ("qseries.mul", "qseries.divide", "characters.anti_invariant",
         "modular.eval_theta", "modular.eval_anti_invariant",
         "modular.smatrix_entry", "modular.eval_character",
         "roots.enumerate_dominant")
COUNTS = ("qseries.mul.terms_out", "qseries.mul.pairs",
          "qseries.divide.terms_out", "qseries.divide.pairs",
          "characters.anti_invariant.terms_out",
          "modular.eval_character.degenerate",
          "modular.verify_sl2_closure.resamples",
          "modular.verify.abs_switch_passes",
          "weyl.enumerate_finite.calls", "weyl.enumerate_finite.elements")
N_CRITERIA = 12


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in SELF_S:
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["qseries.mul.yield"] = "ratio"
    for i in range(1, N_CRITERIA + 1):
        units[f"suite.criterion_{i}.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Spans and work counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_return=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(self.counts, exc)
                raise
            finally:
                self.close(idx)
            if on_return:
                on_return(self.counts, args, out)
            return out
        return wrapper

    def wrap_generator(self, name, fn):
        """A generator is timed by its consumer; count calls and elements."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1

            def counted():
                for item in fn(*args, **kwargs):
                    counts[f"{name}.elements"] += 1
                    yield item
            return counted()
        return wrapper

    # -- rebinding ---------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patch(mod, key, wrapper)

    def install(self, kac):
        """Rebind every wrapped function in every loaded kacmod module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kacmod" or n.startswith("kacmod.")]
        for owner, attr, name, on_return, on_error in WRAPPED:
            original = getattr(getattr(kac, owner), attr)
            self._rebind(modules, original,
                         self.wrap(name, original, on_return, on_error))
        enum = kac.weyl.enumerate_finite
        self._rebind(modules, enum,
                     self.wrap_generator("weyl.enumerate_finite", enum))
        ctx_cls = kac.roots.RootSystemCtx
        self._patch(ctx_cls, "build", staticmethod(
            self.wrap("roots.RootSystemCtx.build", ctx_cls.build)))
        # run_suite walks the CRITERIA tuple, not the module attributes
        suite = kac.suite
        self._patch(suite, "CRITERIA", tuple(
            (label, self.wrap(f"suite.criterion_{i}", fn))
            for i, (label, fn) in enumerate(suite.CRITERIA, start=1)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def dump(self, fh, pass_no):
        for name, start, end, parent, job in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start": start,
                                 "end": end, "parent": parent, "job": job})
                     + "\n")


def self_times(spans) -> dict:
    """Per span name: the summed duration minus the part covered by direct
    children (spans nest, so direct children never overlap)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def resamples(spans) -> int:
    """verify_sl2_closure calls that drew their sample points twice."""
    draws = Counter(parent for name, _, _, parent, _ in spans
                    if name == "modular.sample_points" and parent >= 0)
    return sum(1 for i, s in enumerate(spans)
               if s[0] == "modular.verify_sl2_closure" and draws[i] >= 2)


def counters(tracer) -> dict:
    """The deterministic work counts of one traced pass."""
    calls = Counter(s[0] for s in tracer.spans)
    out = {f"{name}.calls": calls[name] for name in CALLS}
    out.update({name: tracer.counts[name] for name in COUNTS})
    out["modular.verify_sl2_closure.resamples"] = resamples(tracer.spans)
    return out


def layer_metrics(tracers, untraced_s, traced_s) -> dict:
    """Per-layer metrics over one or more traced passes of the same job list:
    counts from the first pass, times as the median over passes."""
    def median(xs):
        xs = sorted(xs)
        n = len(xs)
        return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2

    values = counters(tracers[0])
    pairs = values["qseries.mul.pairs"]
    values["qseries.mul.yield"] = (values["qseries.mul.terms_out"] / pairs
                                   if pairs else 0.0)
    selfs = [self_times(t.spans) for t in tracers]
    for name in SELF_S:
        values[f"{name}.self_s"] = median([s.get(name, 0.0) for s in selfs])
    for i in range(1, N_CRITERIA + 1):
        name = f"suite.criterion_{i}"
        values[f"{name}.s"] = median([
            sum((e - s for n, s, e, _, _ in t.spans if n == name), 0.0)
            for t in tracers])
    values["trace.overhead_ratio"] = median(traced_s) / median(untraced_s)
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
