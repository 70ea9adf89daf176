import json

import pytest

from kacmod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "--rank", "2", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["labels"] == [1, 2, 2] and d["colabels"] == [2, 2, 1]
    assert d["level_table_I"] == ["2/1", "2/1", "1/1"]
    assert d["level_table_II"] == ["1/1", "2/1", "2/1"]
    assert len(d["simple_roots_I"]) == 3


def test_weights_json(capsys):
    code, out = run(capsys, "weights", "--rank", "2", "--level", "2", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 3
    assert [w["index"] for w in d["weights"]] == [0, 1, 2]


def test_char_json(capsys):
    code, out = run(capsys, "char", "--rank", "1", "--labels", "1,0",
                    "--depth", "4", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["conformal_anomaly"] == "-1/60"
    assert d["q_expansion"][0]["q_degree"] == "-1/60"
    assert d["q_expansion"][0]["terms"][0]["coeff"] == 1


def test_check_denominator_exit_codes(capsys):
    code, out = run(capsys, "check", "denominator", "--rank", "1",
                    "--depth", "10")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_smatrix_json(capsys):
    code, out = run(capsys, "smatrix", "--kind", "aII", "--rank", "1",
                    "--level", "2", "--json")
    assert code == 0
    d = json.loads(out)
    assert len(d["entries"]) == 2 and len(d["entries"][0][0]) == 2


def test_verify_subcommands(capsys):
    code, out = run(capsys, "verify", "s-lemma", "--which", "4.4",
                    "--rank", "1", "--level", "2", "--tol", "1e-6")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(capsys, "verify", "t-lemma", "--which", "4.5",
                    "--rank", "1", "--level", "2", "--tol", "1e-9")
    assert code == 0
    code, out = run(capsys, "verify", "sinprod")
    assert code == 0
    code, out = run(capsys, "verify", "poisson", "--rank", "1",
                    "--tol", "1e-8")
    assert code == 0


def test_verify_custom_point(capsys):
    code, out = run(capsys, "verify", "s-lemma", "--which", "4.2",
                    "--rank", "1", "--level", "2",
                    "--tau", "0.2+1.4i", "--z", "0.15+0.1i", "--t", "0.02")
    assert code == 0 and json.loads(out)["pass"] is True


def test_super_subcommands(capsys):
    code, out = run(capsys, "super", "osp", "--N", "2")
    assert code == 0
    d = json.loads(out)
    assert d["dim"] == 5 and d["brackets_exact"] is True
    code, out = run(capsys, "super", "verify", "--rank", "1", "--level", "2",
                    "--depth", "6")
    assert code == 0 and json.loads(out)["pass"] is True


def test_suite_quick_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run(capsys, "suite", "--quick", "--report", str(report))
    assert code == 0
    assert "suite: PASS" in out
    d = json.loads(report.read_text())
    assert d["pass"] is True and len(d["results"]) == 12


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "smatrix", "--kind", "aI", "--rank", "1",
                  "--level", "2", "--json")
    _, out2 = run(capsys, "smatrix", "--kind", "aI", "--rank", "1",
                  "--level", "2", "--json")
    assert out1 == out2
    _, c1 = run(capsys, "char", "--rank", "1", "--labels", "0,2",
                "--depth", "6", "--json")
    _, c2 = run(capsys, "char", "--rank", "1", "--labels", "0,2",
                "--depth", "6", "--json")
    assert c1 == c2


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["roots"])  # missing --rank
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    pytest.param(("smatrix", "--kind", "aI", "--rank", "0", "--level", "2"),
                 "--rank", id="rank-zero"),
    pytest.param(("roots", "--rank", "-1"), "--rank", id="rank-negative"),
    pytest.param(("char", "--rank", "1", "--labels", "1,0", "--depth", "-3"),
                 "--depth", id="char-depth-negative"),
    pytest.param(("check", "denominator", "--rank", "1", "--depth", "-1"),
                 "--depth", id="check-depth-negative"),
    pytest.param(("verify", "prop", "--rank", "1", "--level", "2",
                  "--index", "5"), "--index", id="index-past-end"),
    pytest.param(("verify", "s-lemma", "--rank", "1", "--level", "2",
                  "--index", "-1"), "--index", id="index-negative"),
    pytest.param(("verify", "s-lemma", "--rank", "2", "--z", "0.1+0.1i"),
                 "--tau", id="z-without-tau"),
    pytest.param(("verify", "t-lemma", "--rank", "1", "--t", "0.02"),
                 "--tau", id="t-without-tau"),
    pytest.param(("verify", "s-lemma", "--rank", "2", "--tau", "0.3+1.1i",
                  "--z", "0.1+0.1i"), "--z", id="z-count"),
])
def test_rejected_input_exits_2_with_message(capsys, argv, flag):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


def test_depth_zero_accepted(capsys):
    code, out = run(capsys, "char", "--rank", "1", "--labels", "1,0",
                    "--depth", "0", "--json")
    assert code == 0 and json.loads(out)["depth"] == 0


def test_lattice_sum_overflow_exits_2(capsys):
    code = main(["verify", "s-lemma", "--tau", "0.3+1i", "--z", "0+40i"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "floating-point range" in captured.err
    assert "Traceback" not in captured.err
