"""Command-line behavior: exit codes, output shapes, JSON stability.

Everything runs in-process through main(argv) so stdout/stderr land in
capsys and no subprocesses are needed.
"""

from __future__ import annotations

import json

import pytest

from minordet.acceptance import CriterionResult
from minordet.cli import main


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def test_verify_single_check_human(capsys):
    rc = main(["verify", "--check", "sylvester", "--n", "2", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sylvester n=2 k=1: PASS" in out
    assert out.strip().endswith("all checks passed")


def test_verify_omitted_k_sweeps(capsys):
    rc = main(["verify", "--check", "sylvester", "--n", "2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 3
    assert [d["k"] for d in payload] == [0, 1, 2]
    assert all(d["pass"] for d in payload)


def test_verify_single_report_is_json_object(capsys):
    rc = main(["verify", "--check", "chio", "--n", "2", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert isinstance(payload, dict)
    assert payload["check"] == "chio" and payload["pass"] is True


def test_verify_json_stable_across_runs(capsys):
    argv = ["verify", "--check", "lemma-adb0", "--n", "2", "--json"]
    rc1 = main(argv)
    first = capsys.readouterr().out
    rc2 = main(argv)
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert _strip_elapsed(json.loads(first)) == _strip_elapsed(json.loads(second))


def test_verify_b0_symbolic_sweep(capsys):
    rc = main(["verify", "--check", "b0", "--n", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [d["k"] for d in payload] == [0, 1, 2]
    assert all(d["check"] == "quotient" and d["pass"] for d in payload)


def test_verify_b0_large_n_goes_pointwise(capsys):
    rc = main([
        "verify", "--check", "b0", "--n", "4", "--k", "1",
        "--trials", "5", "--seed", "2", "--bound", "20", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["theorem"] == "b0"
    assert payload["evidence"] == "pointwise"
    assert payload["failures"] == 0


def test_verify_pointwise_human_line(capsys):
    rc = main([
        "verify", "--check", "b0", "--n", "4", "--k", "1",
        "--trials", "5", "--seed", "2", "--bound", "20",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines() == ["b0 n=4 k=1: PASS (5 passes, 0 failures)", "all checks passed"]


def test_verify_verbose_logs_to_stderr(capsys):
    rc = main(["verify", "--check", "chio", "--n", "2", "--json", "--verbose"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[minordet]" in captured.err
    json.loads(captured.out)  # stdout stays pure JSON


def test_verify_usage_errors(capsys):
    cases = [
        ["verify", "--check", "chio", "--n", "0"],
        ["verify", "--check", "chio", "--n", "2", "--k", "1"],
        ["verify", "--check", "sylvester", "--n", "0"],
        ["verify", "--check", "sylvester", "--n", "2", "--k", "5"],
        ["verify", "--check", "griolv", "--n", "1"],
        ["verify", "--check", "griolv", "--n", "2", "--k", "2"],
        ["verify", "--check", "griolv", "--n", "9"],
        ["verify", "--check", "lemma-adb0", "--n", "4"],
        ["verify", "--check", "b0", "--n", "10", "--k", "1",
         "--trials", "5", "--seed", "0", "--bound", "5"],
        ["verify", "--check", "cauchy-binet", "--n", "3", "--k", "2", "--bound", "0"],
        ["verify", "--check", "cauchy-binet", "--n", "3", "--k", "2", "--bound", "-2"],
        # refused at the symbolic sizes as at the pointwise ones
        ["verify", "--check", "b0", "--n", "3", "--k", "1", "--trials", "0"],
        ["verify", "--check", "griolv", "--n", "3", "--bound", "0"],
        # refused by every check, also by those that ignore them
        ["verify", "--check", "sylvester", "--n", "2", "--k", "1", "--trials", "0", "--bound", "0"],
        ["verify", "--check", "chio", "--n", "2", "--bound", "0"],
        ["verify", "--check", "lemma-adb0", "--n", "2", "--k", "1", "--trials", "0"],
    ]
    for argv in cases:
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.err.startswith("error:"), argv
        assert captured.out == ""


def test_power_identity_ceiling_refuses_before_building(capsys):
    # n = 8 is refused before any matrix is built, so neither request can run out of memory
    for check in ("chio", "sylvester"):
        assert main(["verify", "--check", check, "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the power identity is checked symbolically up to n = 7\n"
        assert captured.out == ""


def test_unknown_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--check", "sylvester", "--n", "2", "--wat"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    capsys.readouterr()


def test_quotient_json_shape(capsys):
    rc = main(["quotient", "--mode", "ab0", "--n", "1", "--k", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert list(payload) == [
        "check", "n", "k", "mode", "pass", "stats", "detw_stats", "elapsed_ms",
    ]
    assert payload["mode"] == "ab0" and payload["pass"] is True


def test_quotient_human_output_and_count(capsys):
    rc = main(["quotient", "--mode", "b0", "--n", "1", "--k", "1", "--unconstrained-count"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "quotient n=1 k=1: PASS quotient monomials=1" in out
    assert "unconstrained compound determinant monomials: 4" in out


def test_quotient_usage_errors(capsys):
    assert main(["quotient", "--mode", "b0", "--n", "4", "--k", "1"]) == 2
    capsys.readouterr()
    assert main(["quotient", "--mode", "b0", "--n", "2", "--k", "3"]) == 2
    capsys.readouterr()


def test_fuzz_divisibility_pass(capsys):
    rc = main([
        "fuzz", "--theorem", "adb0", "--n", "3", "--k", "1",
        "--trials", "10", "--seed", "4", "--bound", "25",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "adb0 n=3 k=1: PASS (10 passes, 0 failures)" in out


def test_fuzz_negative_control_passes_on_failures(capsys):
    rc = main([
        "fuzz", "--theorem", "b0", "--n", "2", "--k", "1",
        "--trials", "20", "--seed", "11", "--bound", "50",
        "--negative-control", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["failures"] == 20
    assert "first_failure" in payload


def test_fuzz_negative_control_vacuous_note(capsys):
    rc = main([
        "fuzz", "--theorem", "b0", "--n", "2", "--k", "2",
        "--trials", "5", "--seed", "3", "--bound", "10",
        "--negative-control", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["note"] == "vacuous"


def test_fuzz_negative_control_anomaly_exits_1(capsys):
    # seed 0 at bound 1 stays clean even after escalation; that is a failure
    rc = main([
        "fuzz", "--theorem", "b0", "--n", "1", "--k", "0",
        "--trials", "1", "--seed", "0", "--bound", "1",
        "--negative-control",
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "note=anomaly" in out


def test_fuzz_usage_errors(capsys):
    rc = main([
        "fuzz", "--theorem", "b0", "--n", "2", "--k", "1",
        "--trials", "0", "--seed", "0", "--bound", "5",
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: trials must be positive\n"
    with pytest.raises(SystemExit) as e:  # the power identity is proved by verify --check sylvester
        main(["fuzz", "--theorem", "sylv", "--n", "4", "--k", "2", "--trials", "1", "--seed", "0", "--bound", "1"])
    assert e.value.code == 2
    assert "invalid choice: 'sylv'" in capsys.readouterr().err


def test_selftest_runs_all_criteria(capsys):
    rc = main(["selftest", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["pass"] is True
    assert [c["criterion"] for c in payload["criteria"]] == list(range(1, 12))
    assert all(c["pass"] for c in payload["criteria"])
    assert [(c["criterion"], c["name"], c["detail"]) for c in payload["criteria"]] == [
        (1, "generic monomial count", "monomials=110268 vars=32"),
        (2, "power identity sweep", "all 14 cases exact"),
        (3, "b0 quotient sweep", "all 10 cases divisible"),
        (4, "ab0 quotient sweep", "quotient degree=10 detW degree=18"),
        (5, "divisibility fuzzing", "24 runs x 100 trials, 0 failures"),
        (6, "negative control", "failures=99/100 note=None"),
        (7, "condensation identity", "all 4 sizes exact"),
        (8, "minor-of-product expansion", "105 instances, empty-sum cases hit=True"),
        (9, "borders-one k=2 case", "entries match closed form, quotient exact"),
        (10, "determinant oracle agreement", "250 comparisons, 0 mismatches"),
        (11, "content computations",
         "content(4x^2+6y^2)=2 content(det 2x2)=1 content(det 3x3)=1 content(det 4x4)=1"),
    ]


def test_selftest_failure_exits_1(capsys, monkeypatch):
    results = [
        CriterionResult(1, "first", True, "fine", 0.5),
        CriterionResult(2, "second", False, "broken", 0.5),
    ]
    monkeypatch.setattr("minordet.cli.run_all", lambda: results)
    rc = main(["selftest"])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        "criterion  1 first                            PASS  fine",
        "criterion  2 second                           FAIL  broken",
        "selftest: FAILED criteria [2]",
    ]
    rc = main(["selftest", "--json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out) == {
        "criteria": [r.to_json_dict() for r in results],
        "pass": False,
    }


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(plan):
        raise MemoryError

    monkeypatch.setattr("minordet.cli.fuzz_divisibility", exhausted)
    rc = main([
        "fuzz", "--theorem", "b0", "--n", "2", "--k", "1",
        "--trials", "1", "--seed", "0", "--bound", "5",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: MemoryError\n"
