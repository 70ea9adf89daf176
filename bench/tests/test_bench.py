"""Tests of the benchmark's own code (not of kacmod):

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def kac():
    return wl.load_kacmod()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs(kac, workload, tmp_path):
    tables = wl.build_tables(kac, workload)

    def names(seed):
        return [j.name for j in wl.build_jobs(kac, tables, workload, seed, tmp_path)]
    assert names(7) == names(7)
    if workload != "suite":
        assert any(names(s) != names(7) for s in (8, 9, 10))


def test_points_cover_the_im_tau_range(kac):
    import random
    rng = random.Random(3)
    ims = [wl.draw_point(kac.modular, rng, 2, p).tau.imag
           for p in range(wl.POINTS_PER_RANK)]
    assert ims[0] == pytest.approx(wl.IM_TAU[0])
    assert ims[-1] == pytest.approx(wl.IM_TAU[1])
    ratios = [b / a for a, b in zip(ims, ims[1:])]
    assert ratios == pytest.approx([ratios[0]] * len(ratios))


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 5.0, 9.0, 0, 0],
             ["c", 6.0, 8.0, 2, 0],
             ["a", 11.0, 12.0, -1, 1]]
    st = tracing.self_times(spans)
    assert st == pytest.approx({"root": 3.0, "a": 4.0, "b": 2.0, "c": 2.0})


def test_resamples_counts_double_draws():
    spans = [["modular.verify_sl2_closure", 0, 5, -1, 0],
             ["modular.sample_points", 1, 2, 0, 0],
             ["modular.sample_points", 2, 3, 0, 0],
             ["modular.verify_sl2_closure", 6, 9, -1, 1],
             ["modular.sample_points", 7, 8, 3, 1]]
    assert tracing.resamples(spans) == 1


def test_raising_job_is_failed_and_run_goes_on():
    def boom():
        raise ZeroDivisionError("x")
    jobs = [wl.Job("ok", lambda: 1, lambda out: wl.Outcome(True, True)),
            wl.Job("raises", boom, lambda out: wl.Outcome(True, True)),
            wl.Job("verdict", lambda: 2, lambda out: wl.Outcome(False, True)),
            wl.Job("rejected", lambda: 3, lambda out: wl.Outcome(True, False)),
            wl.Job("last", lambda: 4, lambda out: wl.Outcome(True, True))]
    _, results = run.run_pass(jobs)
    assert [out for out, _ in results] == [1, None, 2, 3, 4]
    failed, checked, _ = run.judge(jobs, results)
    assert [name for name, _ in failed] == ["raises", "verdict", "rejected"]
    assert "ZeroDivisionError" in failed[0][1]
    assert checked is False


def test_accuracy_digits():
    laws = [(10.0 ** -i, 1.0) for i in range(15)]  # digits 0, 1, ..., 14
    p50, low = run.accuracy_digits(laws)
    assert p50 == pytest.approx(7.0)
    assert low == pytest.approx(10.0)  # ten laws sit below it
    assert run.accuracy_digits(laws[:5])[1] == pytest.approx(0.0)
    exact = run.accuracy_digits([(0.0, 1.0)])
    assert exact == (pytest.approx(-math.log10(run.FLOAT_EPS)),) * 2


def _small_exact_jobs(kac):
    tables = {"ctx": {l: kac.roots.RootSystemCtx.build(l) for l in (1, 2)}}
    lam = kac.roots.enumerate_dominant(2, 2)[1]
    return [wl._denominator_job(kac, 2, 5, True),
            wl._super_denominator_job(kac, 2, 4),
            wl._super_character_job(kac, tables["ctx"][2], lam, 2, 4, 1),
            wl._character_job(kac, tables["ctx"][2], lam, 2, 4, "II", True, 1)]


def test_traced_and_untraced_digests_agree(kac):
    jobs = _small_exact_jobs(kac)
    original = kac.qseries.mul
    _, plain = run.run_pass(jobs)
    tracer = tracing.Tracer()
    tracer.install(kac)
    try:
        assert kac.characters.qs.mul is not original
        _, traced = run.run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    assert kac.qseries.mul is original
    assert kac.suite.character is kac.characters.character
    assert run.signature(jobs, plain) == run.signature(jobs, traced)
    assert all(sig for sig in run.signature(jobs, plain))
    failed, checked, _ = run.judge(jobs, plain)
    assert not failed and checked
    counts = tracing.counters(tracer)
    assert counts["qseries.mul.calls"] > 0 and counts["qseries.divide.calls"] == 1


def test_rebinding_reaches_every_importer(kac):
    tracer = tracing.Tracer()
    tracer.install(kac)
    try:
        wrapped = kac.characters.character
        assert kac.suite.character is wrapped and kac.cli.character is wrapped
        assert kac.suite.CRITERIA[0][1].__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert kac.suite.character is kac.characters.character
    assert not hasattr(kac.characters.character, "__wrapped__")


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.metric_units())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
