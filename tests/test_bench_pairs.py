"""scripts/bench_pairs.py: spec checking before any run, and the JSON it
writes, with the benchmark runs replaced by canned results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flag,spec", [
    ("--run", "suite:1:1"),          # one pair has no quartiles
    ("--run", "suite:1"),            # PAIRS missing
    ("--run", "no-such-load:1:3"),   # unknown workload
    ("--run", "suite:one:3"),        # SEED not an integer
    ("--trace", "suite:1:1"),        # one run per side has no quartiles
    ("--trace", "no-such-load:1"),   # RUNS missing
    ("--trace", "no-such-load:1:2"),
    ("--cli", ""),                   # no command
    ("--cli", "verify 'sl2"),        # unbalanced quote
])
def test_bad_spec_exits_2_before_any_run(bench_pairs, monkeypatch, capsys,
                                         tmp_path, flag, spec):
    started = []
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: started.append(args))
    monkeypatch.setattr(bench_pairs, "run_cli",
                        lambda *args: started.append(args))
    out = tmp_path / "pairs.json"
    # a good spec first: nothing may run before every spec is checked
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", ".",
                          "--run", "exact-division:1:2", "--cli", "roots",
                          flag, spec, "--out", str(out)])
    assert exc.value.code == 2
    assert started == [] and not out.exists()
    err = capsys.readouterr().err
    assert spec in err and "Traceback" not in err


def test_layers_are_per_layer_metrics_of_the_benchmark(bench_pairs):
    # a misspelt name would drop out of every traced entry unnoticed
    doc = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    assert set(bench_pairs.LAYERS) <= {m["name"] for m in doc["per_layer"]}
    # the product layers and every suite criterion are kept
    kept = set(bench_pairs.LAYERS)
    assert {"qseries.mul.self_s", "characters.denominator_product.self_s",
            "superalg.super_denominator.self_s",
            "superalg.super_character.self_s",
            "superalg.check_bracket_relations.self_s"} <= kept
    assert {f"suite.criterion_{i}.s" for i in range(1, 13)} <= kept


def test_two_pairs_write_summary_and_traced_layers(bench_pairs, monkeypatch,
                                                   tmp_path):
    walls = iter([4.0, 1.0, 1.1, 4.2])  # parent, change, change, parent
    divides = iter([0.5, 0.4, 0.3, 0.6])  # the traced runs, in the same order

    def fake_run(root, workload, seed, seconds, trace):
        # a traced run reports per-layer metrics and no end-to-end ones
        if trace:
            metrics = {"qseries.divide.self_s": {"value": next(divides)},
                       "suite.criterion_12.s": {"value": 0.0},
                       "no.such.layer": {"value": 9.0}}
        else:
            metrics = {name: {"value": 1.0} for name in bench_pairs.E2E}
            metrics["wall_s"] = {"value": next(walls)}
        res = {"correct": True, "failed": 0, "metrics": metrics}
        return res, [f"# digest {workload} {seed}"]
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", ".", "--change", ".",
                      "--run", "exact-division:1:2",
                      "--trace", "exact-division:1:2", "--out", str(out)])
    doc = json.loads(out.read_text())
    (summary,) = doc["summary"]
    assert summary["pairs"] == 2 and summary["correct"]
    assert summary["same_outputs"]
    wall = summary["metrics"]["wall_s"]
    assert wall["change_wins"] == 2
    assert wall["change_over_parent_median"] == pytest.approx(1.05 / 4.1)
    # two traced runs per side, alternating which side goes first
    (traced,) = doc["traced"]
    assert traced["runs"] == 2 and traced["same_outputs"]
    assert sorted(traced["layers"]) == ["qseries.divide.self_s",
                                        "suite.criterion_12.s"]
    divide = traced["layers"]["qseries.divide.self_s"]
    assert divide["parent_q1_med_q3"] == pytest.approx([0.525, 0.55, 0.575])
    assert divide["change_q1_med_q3"] == pytest.approx([0.325, 0.35, 0.375])
    assert divide["change_over_parent_median"] == pytest.approx(0.35 / 0.55)
    assert divide["change_wins"] == 2
    # a layer that reads 0 on the parent has no ratio
    assert traced["layers"]["suite.criterion_12.s"][
        "change_over_parent_median"] is None
    assert [r["first"] for r in doc["runs"] if r["trace"]] == ["parent",
                                                               "change"]


def test_cli_pairs_time_whole_processes(bench_pairs, monkeypatch, tmp_path):
    # pairs alternate which checkout goes first; stdout is compared per pair
    calls = []
    secs = {"parent": iter([6.0, 7.0, 6.5]), "change": iter([1.0, 0.5, 0.8])}
    monkeypatch.setattr(bench_pairs, "CLI_PAIRS", 3)

    def fake_cli(root, argv):
        side = "parent" if root.name == "p" else "change"
        calls.append((side, argv))
        return next(secs[side]), 0, "same" if len(calls) < 5 else side
    monkeypatch.setattr(bench_pairs, "run_cli", fake_cli)
    out = tmp_path / "pairs.json"
    (tmp_path / "p").mkdir()
    (tmp_path / "c").mkdir()
    bench_pairs.main(["--parent", str(tmp_path / "p"),
                      "--change", str(tmp_path / "c"),
                      "--cli", "verify sl2 --rank 4 --level 2",
                      "--out", str(out)])
    argv = ["verify", "sl2", "--rank", "4", "--level", "2"]
    assert calls == [("parent", argv), ("change", argv), ("change", argv),
                     ("parent", argv), ("parent", argv), ("change", argv)]
    (entry,) = json.loads(out.read_text())["cli"]
    assert entry["argv"] == "verify sl2 --rank 4 --level 2"
    assert entry["parent_s"] == [6.0, 7.0, 6.5]
    assert entry["change_q1_med_q3"] == [0.65, 0.8, 0.9]
    assert entry["change_wins"] == 3
    assert entry["change_over_parent_median"] == pytest.approx(0.8 / 6.5)
    assert entry["exit_change"] == [0, 0, 0]
    assert entry["same_stdout"] == [True, True, False]


def _git_repo(path):
    """A throwaway repository at path with two commits of version.txt
    ("parent", then "change") and an uncommitted edit on top; returns the
    commit id of the first."""
    path.mkdir()

    def git(*argv):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c",
             "user.email=bench@example.org", *argv], cwd=path,
            capture_output=True, text=True, check=True).stdout.strip()
    git("init", "-q")
    (path / "version.txt").write_text("parent\n")
    git("add", "version.txt")
    git("commit", "-q", "-m", "parent")
    first = git("rev-parse", "HEAD")
    (path / "version.txt").write_text("change\n")
    git("commit", "-q", "-am", "change")
    (path / "version.txt").write_text("uncommitted\n")
    return first


def test_parent_revision_is_archived_and_recorded(bench_pairs, monkeypatch,
                                                  tmp_path):
    repo = tmp_path / "repo"
    first = _git_repo(repo)
    seen = []

    def fake_run(root, workload, seed, seconds, trace):
        seen.append((root, (root / "version.txt").read_text()))
        metrics = {name: {"value": 1.0} for name in bench_pairs.E2E}
        return {"correct": True, "failed": 0, "metrics": metrics}, []
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", "HEAD~1", "--change", str(repo),
                      "--run", "suite:1:2", "--out", str(out)])
    # the parent side ran on the committed tree of HEAD~1, the change side
    # on the working tree
    texts = {text: root for root, text in seen}
    assert sorted(texts) == ["parent\n", "uncommitted\n"] and len(seen) == 4
    assert texts["uncommitted\n"] == repo.resolve()
    assert not texts["parent\n"].exists()  # the extracted tree is removed
    assert json.loads(out.read_text())["parent_commit"] == first


def test_parent_directory_records_its_head(bench_pairs, monkeypatch,
                                           tmp_path):
    repo = tmp_path / "repo"
    _git_repo(repo)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                          capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(bench_pairs, "run_cli",
                        lambda root, argv: (1.0, 0, "same"))
    monkeypatch.setattr(bench_pairs, "CLI_PAIRS", 2)
    out = tmp_path / "pairs.json"
    bench_pairs.main(["--parent", str(repo), "--change", str(repo),
                      "--cli", "roots --rank 1", "--out", str(out)])
    assert json.loads(out.read_text())["parent_commit"] == head


def test_unknown_parent_exits_2_before_any_run(bench_pairs, monkeypatch,
                                               capsys, tmp_path):
    repo = tmp_path / "repo"
    _git_repo(repo)
    started = []
    monkeypatch.setattr(bench_pairs, "run_bench",
                        lambda *args: started.append(args))
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "no-such-rev", "--change", str(repo),
                          "--run", "suite:1:2", "--out", str(out)])
    assert exc.value.code == 2 and started == [] and not out.exists()
    assert "no-such-rev" in capsys.readouterr().err
