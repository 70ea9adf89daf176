import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kacmod
from kacmod import characters, cli, modular, suite, superalg
from kacmod import qseries as qs
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
    # without --json the same payload is printed on one line
    code, line = run(capsys, "smatrix", "--kind", "aII", "--rank", "1",
                     "--level", "2")
    assert code == 0 and line.count("\n") == 1 and json.loads(line) == d


def test_verify_subcommands(capsys):
    code, out = run(capsys, "verify", "s-lemma", "--which", "4.4",
                    "--rank", "1", "--level", "2", "--tol", "1e-6")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(capsys, "verify", "t-lemma", "--which", "4.5",
                    "--rank", "1", "--level", "2", "--tol", "1e-9")
    assert code == 0
    code, out = run(capsys, "verify", "sinprod")
    assert code == 0
    code, out = run(capsys, "verify", "sl2", "--rank", "2", "--level", "4")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out = run(capsys, "verify", "poisson", "--rank", "1",
                    "--tol", "1e-8")
    assert code == 0


def test_verify_sinprod_past_float_underflow(capsys):
    # the closed form n / 2^(n-1) is 0.0 in floats from n = 1087 on, and
    # the sine product subnormal from about n = 1040
    code = main(["verify", "sinprod", "--nmax", "1100"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    d = json.loads(captured.out)
    assert d["pass"] is True and d["failures"] == []


def test_verify_sinprod_nmax_cap(capsys):
    # the O(nmax^2) check is refused past the cap, which leaves room for the
    # underflow case above
    assert cli._NMAX_CAP >= 1100
    code = main(["verify", "sinprod", "--nmax", str(cli._NMAX_CAP + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--nmax must be in 2..{cli._NMAX_CAP}" in captured.err


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


def test_super_osp_at_the_N_cap(capsys):
    # the largest admitted --N answers; one more is refused in
    # test_rejected_input_exits_2_with_message
    code, out = run(capsys, "super", "osp", "--N", str(cli._N_CAP))
    d = json.loads(out)
    assert code == 0 and d["dim"] == 2 * cli._N_CAP + 1
    assert d["brackets_exact"] is True


def test_super_verify_past_rank_cap_refused_before_any_work(capsys,
                                                            monkeypatch):
    def expand(*args):
        raise AssertionError("super_denominator ran past the rank cap")

    monkeypatch.setattr(superalg, "super_denominator", expand)
    code = main(["super", "verify", "--rank", "7", "--depth", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "exceeds enumeration cap" in err


def test_weights_past_the_count_cap_refused_before_any_work(capsys,
                                                            monkeypatch):
    # |P_{12,+}| at rank 40 is C(46, 6) = 9,366,819
    def enumerate_all(*args):
        raise AssertionError("weights enumerated past the count cap")

    monkeypatch.setattr(cli, "enumerate_dominant", enumerate_all)
    for level, count in (("12", "9366819"), (str(10**9), "more than 5000")):
        code = main(["weights", "--rank", "40", "--level", level])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"--rank 40 --level {level} has {count}" in captured.err
    # rank 12, level 8 has 1,820 weights: refused under a cap of 1,819,
    # answered under the real one
    monkeypatch.setattr(cli, "_WEIGHTS_CAP", 1819)
    assert main(["weights", "--rank", "12", "--level", "8"]) == 2
    assert "has 1820 dominant weights" in capsys.readouterr().err
    monkeypatch.undo()
    code, out = run(capsys, "weights", "--rank", "12", "--level", "8")
    assert code == 0 and json.loads(out)["count"] == 1820
    # an odd level keeps its message
    assert main(["weights", "--rank", "2", "--level", "3"]) == 2
    assert "level must be even" in capsys.readouterr().err


def test_roots_and_weights_past_the_output_cap_refused_before_any_work(
        capsys, monkeypatch):
    def build(*args):
        raise AssertionError("built past the output cap")

    monkeypatch.setattr(cli, "enumerate_dominant", build)
    monkeypatch.setattr(cli.RootSystemCtx, "build", build)
    # one weight and the 10^6 + 1 fundamental weights it is summed from;
    # 4 * 10^5 + 7 rows of 10^5 + 1 coordinates
    for argv, size in ((("weights", "--rank", "1000000", "--level", "0"),
                        "1000002 rows of 1000001 coordinates, "
                        "1000003000002 numbers"),
                       (("roots", "--rank", "100000"),
                        "400007 rows of 100001 coordinates, 40001100007 "
                        "numbers")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{' '.join(argv[1:])} writes {size}" in captured.err
    # roots at rank 100 (40,905 numbers) and weights at rank 12, level 8
    # (1,820 weights and 13 fundamental weights of 13 coordinates) are
    # answered
    monkeypatch.undo()
    code, out = run(capsys, "roots", "--rank", "100")
    assert code == 0 and len(json.loads(out)["simple_roots_I"]) == 101
    code, out = run(capsys, "weights", "--rank", "12", "--level", "8")
    assert code == 0 and json.loads(out)["count"] == 1820


def test_smatrix_past_the_phase_cap_refused_before_any_work(capsys,
                                                           monkeypatch):
    # rank 20, level 6: dim C(23, 3) = 1,771 and 1771^2 * 20^2 phases
    def build(*args):
        raise AssertionError("S-matrix built past the phase cap")

    monkeypatch.setattr(modular, "_smatrix_rows", build)
    monkeypatch.setattr(modular, "enumerate_dominant", build)
    for level, count in (("6", "1254576400"),
                         (str(10**9), f"more than {modular._SMATRIX_PHASES}")):
        code = main(["smatrix", "--kind", "aI", "--rank", "20", "--level",
                     level])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"has {count} phases" in captured.err
    # rank 1, level 2 has 2^2 * 1^2 = 4 phases: refused under a cap of 3,
    # answered under the real one
    monkeypatch.undo()
    monkeypatch.setattr(modular, "_SMATRIX_PHASES", 3)
    assert main(["smatrix", "--kind", "aI", "--rank", "1", "--level", "2"]) \
        == 2
    assert "has 4 phases" in capsys.readouterr().err
    monkeypatch.undo()
    code, out = run(capsys, "smatrix", "--kind", "aI", "--rank", "1",
                    "--level", "2", "--json")
    assert code == 0 and len(json.loads(out)["entries"]) == 2


def test_char_past_the_division_radix_refused_before_any_work(capsys,
                                                            monkeypatch):
    # at rank 6 and level 8 the division's radix packs up to depth 20 only
    def build(*args):
        raise AssertionError("anti_invariant ran past the division radix")

    monkeypatch.setattr(characters, "anti_invariant", build)
    code = main(["char", "--rank", "6", "--labels", "4,0,0,0,0,0,0",
                 "--depth", "21"])
    err = capsys.readouterr().err
    assert code == 2 and "too far apart to pack into int64" in err
    qs.division_radix(6, characters.default_height_cap(6, 8, 20), 20)
    # past the rank cap the refusal names the rank cap, although the radix
    # would not pack either
    code = main(["char", "--rank", "7", "--labels", "0,0,0,0,0,0,0,2",
                 "--depth", "5"])
    err = capsys.readouterr().err
    assert code == 2 and "rank 7 exceeds enumeration cap 6" in err
    with pytest.raises(ValueError, match="int64"):
        qs.division_radix(7, characters.default_height_cap(7, 2, 5), 5)


def test_suite_quick_and_report(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run(capsys, "suite", "--quick", "--report", str(report))
    assert code == 0
    # stdout holds no timings: it is the same on every run
    assert out == "".join(f"[PASS] criterion {name}\n"
                          for name, _ in suite.CRITERIA) + \
        "suite: PASS (12/12 criteria)\n"
    d = json.loads(report.read_text())
    assert d["pass"] is True and len(d["results"]) == 12
    # the report file is byte-reproducible; any change to it is deliberate
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "8106fb7378986cf35d8b2cd8e96e3469634f997736317d0a8a5d1d0c58ba2f38")


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
    pytest.param(("char", "--rank", "1", "--labels", "a,b"), "--labels",
                 id="labels-malformed"),
    pytest.param(("char", "--rank", "1", "--labels", "1,0,"), "--labels",
                 id="labels-trailing-comma"),
    pytest.param(("char", "--rank", "1", "--labels", "1,0,0"), "--labels",
                 id="labels-count"),
    pytest.param(("char", "--rank", "1", "--labels", "0,1"), "--labels",
                 id="labels-odd-level"),
    pytest.param(("char", "--rank", "1", "--labels", "2,-2"), "--labels",
                 id="labels-not-dominant"),
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
    pytest.param(("verify", "poisson", "--rank", "1", "--tau", "0.3+1i"),
                 "--tau", id="poisson-tau"),
    pytest.param(("verify", "sl2", "--rank", "1", "--tau", "0.3+1i",
                  "--z", "0.1"), "--tau", id="sl2-tau"),
    pytest.param(("verify", "sinprod", "--tau", "0.3+1i", "--t", "0.02"),
                 "--tau", id="sinprod-tau"),
    pytest.param(("verify", "s-lemma", "--tau", "abc"), "--tau",
                 id="tau-malformed"),
    pytest.param(("verify", "s-lemma", "--tau", "1+1i", "--z", "0.1",
                  "--t", "nan"), "--t", id="t-nan"),
    pytest.param(("verify", "s-lemma", "--tau", "1+1i", "--z", "nan"), "--z",
                 id="z-nan"),
    pytest.param(("verify", "s-lemma", "--tau", "nan+1i"), "--tau",
                 id="tau-nan"),
    pytest.param(("verify", "t-lemma", "--rank", "1", "--tau", "0.3+1i",
                  "--z", "x"), "--z", id="z-malformed"),
    pytest.param(("verify", "sinprod", "--which", "4.9", "--law", "T",
                  "--level", "6", "--index", "3", "--rank", "9"), "--which",
                 id="sinprod-which"),
    pytest.param(("verify", "sinprod", "--rank", "9"), "--rank",
                 id="sinprod-rank"),
    pytest.param(("verify", "sl2", "--which", "4.6"), "--which",
                 id="sl2-which"),
    pytest.param(("verify", "sl2", "--index", "1"), "--index", id="sl2-index"),
    pytest.param(("verify", "poisson", "--level", "4"), "--level",
                 id="poisson-level"),
    pytest.param(("verify", "poisson", "--law", "T"), "--law",
                 id="poisson-law"),
    pytest.param(("verify", "s-lemma", "--law", "T"), "--law",
                 id="s-lemma-law"),
    pytest.param(("verify", "t-lemma", "--nmax", "10"), "--nmax",
                 id="t-lemma-nmax"),
    pytest.param(("verify", "sinprod", "--tol", "-1"), "--tol",
                 id="tol-negative"),
    pytest.param(("verify", "sinprod", "--tol", "nan"), "--tol",
                 id="tol-nan"),
    pytest.param(("verify", "s-lemma", "--tol", "inf"), "--tol",
                 id="tol-inf"),
    pytest.param(("verify", "poisson", "--tol", "0"), "--tol", id="tol-zero"),
    pytest.param(("verify", "sinprod", "--nmax", "1"), "--nmax",
                 id="nmax-one"),
    pytest.param(("verify", "sinprod", "--nmax", "-5"), "--nmax",
                 id="nmax-negative"),
    pytest.param(("verify", "sinprod", "--nmax", "1000000"), "--nmax",
                 id="nmax-past-cap"),
    pytest.param(("super", "osp", "--N", str(cli._N_CAP + 1)), "--N",
                 id="N-past-cap"),
    pytest.param(("super", "osp", "--N", "-1"), "--N", id="N-negative"),
    pytest.param(("super", "osp", "--N", "1", "--rank", "9"), "--rank",
                 id="super-osp-rank"),
    pytest.param(("super", "verify", "--N", "7"), "--N",
                 id="super-verify-N"),
    pytest.param(("roots", "--rank", "100000"), "--rank",
                 id="roots-past-output-cap"),
    pytest.param(("weights", "--rank", "1000000", "--level", "0"), "--rank",
                 id="weights-past-output-cap"),
])
def test_rejected_input_exits_2_with_message(capsys, argv, flag):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and flag in captured.err


def test_verify_prop_default_which(capsys):
    code, out = run(capsys, "verify", "prop", "--rank", "1", "--level", "2")
    d = json.loads(out)
    assert code == 0 and d["which"] == "4.6" and d["pass"] is True
    _, out = run(capsys, "verify", "s-lemma", "--rank", "1", "--level", "2")
    assert json.loads(out)["which"] == "4.2"


# sha256 of stdout for the README's CLI examples (all but `suite`), plus one
# product route of non-trivial size; any change to these bytes is deliberate
PINNED_STDOUT = {
    "roots --rank 2 --json":
        "b0935bcc55385ff1e2a43d14548a5a5e6b1d98aa26a5270a49c2c0957147bfd6",
    "weights --rank 2 --level 2 --json":
        "9ed3d2c4c2af52f7aa285d429489f65df642f75d524c3f05210d8e40097ab92d",
    "char --rank 1 --labels 1,0 --depth 12 --json":
        "d4d35967fdb81ea476a52466f5af4469c1853f12b461161678c250b660b167ac",
    "char --rank 1 --labels 1,0 --depth 12 --twisted --json":
        "7ff502c0603d768849c3a30227d541e8da4c8149398e4a2b7731dd9c2af2557e",
    "char --rank 1 --labels 1,0 --depth 12 --sharp II --json":
        "e8f11b93f442a37ec52cb6fe77f727dc6277cbfc3369ceb3c50b08322eac18e4",
    "char --rank 1 --labels 1,0 --depth 12 --twisted --sharp II --json":
        "975bfdb0f5b7f12ae97579a858502d7d9a751369f5a02d4fdc91a1b9e2a2eb89",
    "char --rank 3 --labels 0,0,0,2 --depth 7 --json":
        "45c7730f60ae9378ce15de24e9ae06ed82b950a9c8dd2ee7cfebe3a5cf08e825",
    "char --rank 3 --labels 0,0,0,2 --depth 7 --twisted --json":
        "c426c851b17d8c6281acc06bd5e9cf6d7eb3c5b96cb8bcd54208a352a5683869",
    "char --rank 3 --labels 0,0,0,2 --depth 7 --sharp II --json":
        "bc511eac8c452323b5b6f80bf143fbc7e66ce9c8dd1795dd50a899b014bfc026",
    "char --rank 3 --labels 0,0,0,2 --depth 7 --twisted --sharp II --json":
        "64abdbd9a694f1ac88a15aeae541cbc34a8f7f0717d4691fdaf1b6e8c9da5f89",
    "char --rank 2 --labels 0,0,4 --depth 8 --twisted --sharp II --json":
        "a2121b6f1c72cfa86b017033b249cdf71efed3bf8ecc236b79bd221b11595d15",
    "check denominator --rank 2 --depth 10":
        "b38fd0606ecba176a41b8a8b3ef9d60a9ca8f624935a0f585b70c06a5edba771",
    "check denominator --rank 2 --depth 10 --twisted":
        "9ad12d03e9ebd544edc47c2fd79a86d579189905a9a218bc51ef660bef4863fa",
    "check denominator --rank 3 --depth 8 --twisted":
        "8a0c77116e2c784152a99164e77383a63d67eb16ae4b675e795692f7a08dda6d",
    "smatrix --kind aII --rank 1 --level 2 --json":
        "791a8668575554dcb6eae5447e113d8ec659a666763e0e4dc91fc68702f285e5",
    "verify s-lemma --which 4.3 --rank 1 --level 2 --tol 1e-6":
        "95ac6a6b5b64e75d1edd9b6877293057c9b2893eb001d030bd784ba69ab43317",
    "verify s-lemma --which 4.3 --rank 1 --level 2 --tol 1e-6 "
    "--tau 0.37+1.13i --z 0.11+0.07i --t 0.05":
        "95ac6a6b5b64e75d1edd9b6877293057c9b2893eb001d030bd784ba69ab43317",
    "verify t-lemma --which 4.4 --rank 1 --level 2":
        "5257aef70fbdc8ee6cafc41c9bd681a6e3a52b225c90fa5e2d6fb8b970e39b50",
    "verify prop --which 4.8 --law S --rank 1 --level 2":
        "a794876566da92d077b9bb8af36098f47c3881aa5746bed035c47b1d8c7ac506",
    "verify sl2 --rank 1 --level 2":
        "14b56cb915c647393fe81b292aae59b4803a7dcd8484323d129f6ed393472488",
    "verify sl2 --rank 2 --level 4":
        "75f1062f9d21835896ad5fc00ad246f2b95246e7f145098dc2eebb5fb35ad381",
    "verify sl2 --rank 3 --level 2":
        "4b66bea375efe99b972bb6e2e3b1375efa1d66b64e9d42c64a09364b37eb4833",
    "verify poisson --rank 2":
        "07b0b1c077df02a08b186081b8400f465d76ed714a834c82b0078c3383036b3a",
    "verify sinprod":
        "72a58aaa4b24bc0d15a84341efb2ac9ebbca00738306d3f633a66ed6a31cfc0c",
    "super verify --rank 2 --level 2 --depth 8":
        "bce52f03ecb6d2914e10dadea5f490dcbb8d66385d3a03bd09572bb36970be94",
    "super osp --N 3":
        "1cdd43dcbde5a9d5c7d0295e4609d6475fa8a1b38436fc728475abbec631289d",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, argv):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


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


def test_closed_stdout_exits_141_without_traceback():
    # 140 kB of JSON, more than a pipe buffers, so the CLI is still writing
    # when the reader closes its end
    env = {**os.environ, "PYTHONPATH": str(Path(kacmod.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "kacmod", "char", "--rank", "1", "--labels",
         "1,0", "--depth", "40", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert err == ""  # no traceback, no message
