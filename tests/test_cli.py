import dataclasses
import hashlib
import json
import re
import subprocess
import sys

import pytest

from binomid.catalog import load_builtin
from binomid.cli import main
from binomid.resexpr import parse_resexpr

from test_proofs import DISJOINT, with_disjoint_windows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_chugen_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "chugen", "--range", "*=0..5", "--jobs", "4",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["instances"] == 7776
    assert data["failures"] == []
    assert set(data) == {"identity", "grid", "instances", "failures", "elapsed_ms"}


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "eq3", "--range", "*=0..3")
    assert code == 0
    assert "eq3" in out and "instances" in out and "ok" in out


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "bogus")
    assert code == 2
    assert "unknown identity 'bogus'" in err
    assert "chugen" in err  # the valid names are listed


@pytest.mark.parametrize("argv, message, known", [
    (("specialize", "--claim", "bogus"), "unknown claim 'bogus'", "nanjundiah1"),
    (("prove", "--script", "bogus"), "unknown proof script 'bogus'", "proof-eq1"),
])
def test_unknown_claim_or_script_is_usage_error(capsys, argv, message, known):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert known in err
    assert out == ""


def test_verify_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "chugen", "--range", "a=5")
    assert code == 2
    assert "bad range" in err
    code, _, err = run_cli(capsys, "verify", "--identity", "chugen", "--range", "n=3..1")
    assert code == 2
    assert "bad range 'n=3..1': empty interval" in err


def test_range_names_any_parameter_the_catalog_declares(capsys, tmp_path, monkeypatch):
    path = tmp_path / "accent.bid"
    path.write_text("identity sq params(é) :: sum(k,0,é)[C(é,k)*C(é,é-k)] == C(2*é,é)\n",
                    encoding="utf-8")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    named = run_cli(capsys, "verify", "--all", "--range", "é=0..2", "--format", "json")
    filled = run_cli(capsys, "verify", "--all", "--range", "*=0..2", "--format", "json")
    assert named[0] == filled[0] == 0
    assert json.loads(named[1])[0]["grid"] == {"é": [0, 2]}
    assert json.loads(named[1])[0]["instances"] == 3


@pytest.mark.parametrize("spec", ["*=\u0660..\u0661", "n=0..\uff12", "=0..2", "n=0..2\n"])
def test_a_range_needs_a_name_and_ascii_digit_bounds(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--identity", "chugen", "--range", spec)
    assert code == 2 and out == ""
    assert f"bad range '{spec}'" in err


@pytest.mark.parametrize("argv, grids", [
    (("verify", "--identity", "chugen", "--identity", "chu2gen", "--range", "n=0..2",
      "--range", "*=0..1"), [{"a": [0, 1], "b": [0, 1], "c": [0, 1], "d": [0, 1], "n": [0, 2]},
                             {"a": [0, 1], "b": [0, 1], "c": [0, 1], "d": [0, 1], "m": [0, 1]}]),
    (("prove", "--all", "--range", "b=0..0", "--range", "*=0..1"), None),
])
def test_range_applies_to_the_items_that_declare_it(capsys, argv, grids):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 2
    if grids:
        assert [r["grid"] for r in reports] == grids
    else:  # only proof-eq1 has a b, and b=0..0 leaves 16 of its 28 instances on *=0..1
        assert [(r["script"], r["instances"]) for r in reports] == [("proof-eq1", 16),
                                                                   ("proof-eq2", 24)]


@pytest.mark.parametrize("argv", [
    ("verify", "--all", "--range", "zz=0..1"),
    ("verify", "--identity", "chugen", "--identity", "eq3", "--range", "m=0..1"),
    ("prove", "--all", "--range", "zz=0..1"),
])
def test_range_no_selected_item_declares_is_refused_before_any_check(capsys, monkeypatch,
                                                                     argv):
    ran = []
    monkeypatch.setattr("binomid.cli.verify_grid", lambda *a, **k: ran.append(a))
    monkeypatch.setattr("binomid.cli.run_proof_script", lambda *a, **k: ran.append(a))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "range for unknown parameter(s): " in err
    assert out == "" and ran == []


def test_usage_error_without_selection(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_failure_exit_code(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.bid"
    bad.write_text("identity wrong params(n) :: sum(k,0,n)[C(n,k)] == C(2*n,1)\n")
    monkeypatch.setenv("BINOMID_CATALOG", str(bad))
    code, out, _ = run_cli(capsys, "verify", "--identity", "wrong", "--range", "*=0..3")
    assert code == 1
    assert "FAILURES" in out


@pytest.mark.parametrize("argv", [("verify", "--all"),
                                  ("fuzz", "--all", "--trials", "10", "--lo", "0")])
def test_all_prints_a_list_even_of_one_report(capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "one.bid"
    path.write_text("identity one params(n) :: sum(k,0,n)[C(n,k)*C(n,n-k)] == C(2*n,n)\n")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and len(reports) == 1
    assert reports[0]["identity"] == "one"


def test_catalog_env_override(capsys, tmp_path, monkeypatch):
    path = tmp_path / "mine.bid"
    path.write_text("identity vander params(m,n,r) :: sum(k,0,r)[C(m,k)*C(n,r-k)] == C(m+n,r)\n")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    code, out, err = run_cli(capsys, "catalog")
    assert code == 0
    assert "vander" in out
    assert str(path) in err  # diagnostics on stderr


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "26 identities" in out
    assert "10 specialization claims" in out
    assert "proof-eq1" in out


def test_catalog_print_identity(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--identity", "gould")
    assert code == 0
    assert out.strip().startswith("identity gould")


def test_specialize_claim(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--claim", "nanjundiah1")
    assert code == 0
    assert 'structural verdict "match"' in out


def test_specialize_all_json(capsys):
    code, out, _ = run_cli(capsys, "specialize", "--all", "--jobs", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 10
    assert all(entry["structural"] == "match" for entry in data)


def test_prove_small_range(capsys):
    code, out, _ = run_cli(
        capsys, "prove", "--script", "proof-eq2", "--range", "*=0..1", "--jobs", "2"
    )
    assert code == 0
    assert "per-step passes" in out
    assert "Recognize" in out


def test_prove_dump_trace(capsys):
    code, out, _ = run_cli(
        capsys, "prove", "--script", "proof-eq1",
        "--range", "b=0..0", "--range", "c=1..1", "--range", "d=0..0",
        "--range", "n=1..1", "--range", "p=0..0",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "prove", "--script", "proof-eq1", "--dump-trace",
        "--range", "b=0..0", "--range", "c=1..1", "--range", "d=0..0",
        "--range", "n=1..1", "--range", "p=0..0",
    )
    assert code == 0
    assert "step 0 before" in out


def test_prove_dump_trace_keeps_json_stdout_parsable(capsys):
    code, out, err = run_cli(
        capsys, "prove", "--script", "proof-eq1", "--range", "*=0..0", "--dump-trace",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["script"] == "proof-eq1"
    assert "step 0 before" in err


def test_closed_reader_leaves_the_verdict(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["catalog"]) == 0


def test_closed_trace_reader_leaves_the_verdict(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stderr", ClosedPipe())
    code = main(["prove", "--script", "proof-eq1", "--range", "*=0..1", "--dump-trace",
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []


def test_negative_power_of_three_terms_fails_its_own_step(capsys, monkeypatch):
    cat = load_builtin()
    script = cat.scripts["proof-eq1"]
    steps = list(script.steps)
    text = "(1+x+y)^(-1)"
    steps[1] = dataclasses.replace(steps[1], after=parse_resexpr(text))
    scripts = {**cat.scripts, script.name: dataclasses.replace(script, steps=tuple(steps))}
    monkeypatch.setattr("binomid.cli.load_builtin",
                        lambda: dataclasses.replace(cat, scripts=scripts))
    code, out, _ = run_cli(capsys, "prove", "--script", "proof-eq1", "--range", "*=0..0",
                           "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert failures and all(f["step"] == 1 for f in failures)
    assert all(f["message"].startswith("NonUnitError: negative power needs a base")
               for f in failures)


def test_disjoint_accuracy_windows_fail_their_own_step(capsys, monkeypatch):
    cat = load_builtin()
    script = with_disjoint_windows(cat.scripts["proof-eq1"])
    monkeypatch.setattr("binomid.cli.load_builtin",
                        lambda: dataclasses.replace(cat, scripts={**cat.scripts, script.name: script}))
    code, out, _ = run_cli(capsys, "prove", "--script", "proof-eq1", "--range", "*=0..1",
                           "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert {f["step"] for f in failures} == {1, 2}
    assert all(f["message"] == DISJOINT for f in failures if f["step"] == 2)


def test_fuzz_deterministic_output(capsys):
    args = ("fuzz", "--identity", "chugen", "--seed", "1", "--trials", "200",
            "--lo", "0", "--hi", "8", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b
    assert a["seed"] == 1


def test_check_arith(capsys):
    code, out, _ = run_cli(capsys, "check-arith", "--bound", "12")
    assert code == 0
    assert "pascal" in out and "FAIL" not in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "binomid.cli", "catalog", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["identities"]) == 26


def test_json_report_schema_on_verify(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--identity", "takacs", "--range", "*=0..2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    for param, pair in data["grid"].items():
        assert isinstance(param, str) and len(pair) == 2
    for f in data["failures"]:
        assert set(f) == {"env", "lhs", "rhs"}


@pytest.mark.parametrize("argv, flag", [
    (("prove", "--script", "proof-eq1", "--window", "-50"), "--window"),
    (("fuzz", "--identity", "chugen", "--trials", "-5"), "--trials"),
    (("check-arith", "--bound", "-3"), "--bound"),
    (("verify", "--identity", "chugen", "--jobs", "0"), "--jobs"),
    (("fuzz", "--identity", "chugen", "--lo", "5", "--hi", "1"), "--lo"),
    (("verify", "--identity", "chugen", "--range", "n=0..1", "--range", "n=0..3"), "--range"),
    (("verify", "--identity", "chugen", "--range", "*=0..1", "--range", "*=0..0"), "--range"),
    (("prove", "--script", "proof-eq1", "--range", "b=0..0", "--range", "b=0..0"), "--range"),
])
def test_bad_numeric_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert flag in err
    assert out == ""


@pytest.mark.parametrize("content", [None, b"identity \xff\xfe"])
def test_unreadable_catalog_file_is_input_error(capsys, tmp_path, monkeypatch, content):
    path = tmp_path / "mine.bid"
    if content is not None:
        path.write_bytes(content)
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    code, _, err = run_cli(capsys, "catalog")
    assert code == 2
    assert "cannot read catalog" in err


def test_check_arith_reads_no_catalog(capsys, monkeypatch):
    monkeypatch.setenv("BINOMID_CATALOG", "/nonexistent.bid")
    code, out, err = run_cli(capsys, "check-arith", "--bound", "3")
    assert code == 0 and "pascal" in out
    assert "using catalog" not in err
    code, _, err = run_cli(capsys, "verify", "--identity", "chugen")
    assert code == 2
    assert "cannot read catalog /nonexistent.bid" in err


def test_unparsable_catalog_file_is_input_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "mine.bid"
    path.write_text("identity sq params(n) :: C(n,²) == C(n,2)\n", encoding="utf-8")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    code, out, err = run_cli(capsys, "catalog")
    assert code == 2
    assert "unexpected character" in err
    assert out == ""


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("binomid.cli.run_proof_script", broken)
    code, out, err = run_cli(capsys, "prove", "--script", "proof-eq1", "--range", "*=0..0")
    assert code == 3
    assert "internal error: ValueError: internal bug" in err
    assert "Traceback" in err
    assert out == ""


def test_engine_error_in_a_step_is_a_failed_proof(capsys, monkeypatch):
    from binomid.series import EngineError

    def failing(node, ctx):
        raise EngineError("not a series variable")

    monkeypatch.setattr("binomid.proofs.evaluate", failing)
    code, out, _ = run_cli(capsys, "prove", "--script", "proof-eq1", "--range", "*=0..0")
    assert code == 1
    assert "FAILURES" in out and "EngineError" in out


def without_timings(text):
    text = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    return re.sub(r"\(\d+ ms\)", "(0 ms)", text)


def with_a_failing_identity(tmp_path, monkeypatch):
    path = tmp_path / "wrong.bid"
    path.write_text("identity wrong params(n) :: sum(k,0,n)[C(n,k)] == C(2*n,1)\n")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    return str(path)


def with_an_error_on_line_3(tmp_path, monkeypatch):
    path = tmp_path / "bad.bid"
    path.write_text("# one identity, then a bad one\r\nidentity one params(n) :: C(n,0) == C(0,0)\n"
                    "identity two params(n) ::\tC(n,1) == C(n,\t²)\n", encoding="utf-8")
    monkeypatch.setenv("BINOMID_CATALOG", str(path))
    return str(path)


def with_a_broken_proof_step(tmp_path, monkeypatch):
    cat = load_builtin()
    script = cat.scripts["proof-eq2"]
    steps = list(script.steps)
    steps[2] = dataclasses.replace(steps[2], after=parse_resexpr("1"))
    scripts = {**cat.scripts, script.name: dataclasses.replace(script, steps=tuple(steps))}
    monkeypatch.setattr("binomid.cli.load_builtin",
                        lambda: dataclasses.replace(cat, scripts=scripts))
    return None


# Every subcommand in both formats, pinned by a digest of its exit code, stdout
# and stderr with the timings taken out, so that a change to any report line,
# JSON shape or stream shows.
PINNED_OUTPUT = [
    ("16a44434511705df", None, ("catalog",)),
    ("c105642a25d49f6e", None, ("catalog", "--format", "json")),
    ("8206a0146b6cebc3", None, ("catalog", "--identity", "gould")),
    ("66dfc0d381475041", None, ("catalog", "--identity", "gould", "--format", "json")),
    ("5e4820c5f7b4af27", None,
     ("catalog", "--identity", "gould", "--identity", "chugen", "--format", "json")),
    ("1276983779dd46e1", None, ("verify", "--all", "--range", "*=0..1")),
    ("38fb5fe4c210a964", None, ("verify", "--all", "--range", "*=0..1", "--format", "json")),
    ("c91f398b15567ee6", None, ("verify", "--identity", "chugen", "--range", "*=0..2")),
    ("8b82ee35fb7ee2ec", None,
     ("verify", "--identity", "chugen", "--range", "*=0..2", "--format", "json")),
    ("31baea99eabd41a3", None, ("fuzz", "--all", "--trials", "20")),
    ("3a57ab58b921df60", None, ("fuzz", "--all", "--trials", "20", "--format", "json")),
    ("cefe30982c9def4c", None, ("fuzz", "--identity", "eq7", "--seed", "1", "--trials", "100")),
    ("7336a99c61fcc679", None,
     ("fuzz", "--identity", "eq7", "--seed", "1", "--trials", "100", "--format", "json")),
    ("9ca0f8db7a8cdbac", None, ("specialize", "--claim", "nanjundiah1")),
    ("31d1e5d1cd73d9cc", None, ("specialize", "--claim", "nanjundiah1", "--format", "json")),
    ("cd6d6c2a83612c3d", None, ("specialize", "--all")),
    ("2a6562f478b4cce3", None, ("specialize", "--all", "--format", "json")),
    ("479f37987ecac204", None, ("prove", "--all", "--range", "*=0..1")),
    ("ee3bd5d410b029e0", None, ("prove", "--all", "--range", "*=0..1", "--format", "json")),
    ("7f55609d023448fa", None,
     ("prove", "--script", "proof-eq1", "--range", "*=0..1", "--dump-trace")),
    ("64ccccb153768eb2", None,
     ("prove", "--script", "proof-eq1", "--range", "*=0..1", "--dump-trace", "--format", "json")),
    ("b2d9ea78da92c3fb", None, ("check-arith", "--bound", "10")),
    ("d29be0c4b89e0dfd", None, ("check-arith", "--bound", "10", "--format", "json")),
    ("97d2a70c9e16c5b7", with_an_error_on_line_3, ("catalog", "--format", "text")),
    ("0af2f6b3f013353a", with_a_failing_identity,
     ("verify", "--identity", "wrong", "--range", "*=0..3")),
    ("0ad40e5c7d260bc4", with_a_failing_identity,
     ("verify", "--identity", "wrong", "--range", "*=0..3", "--format", "json")),
    ("976580348ce756f9", with_a_failing_identity,
     ("fuzz", "--identity", "wrong", "--trials", "30")),
    ("f4522706a9c229e2", with_a_broken_proof_step,
     ("prove", "--script", "proof-eq2", "--range", "*=0..1")),
    ("193cfc5a218beb66", with_a_broken_proof_step,
     ("prove", "--script", "proof-eq2", "--range", "*=0..1", "--format", "json")),
]


@pytest.mark.parametrize("digest, setup, argv", PINNED_OUTPUT,
                         ids=[" ".join(argv) for _, _, argv in PINNED_OUTPUT])
def test_output_is_pinned(capsys, tmp_path, monkeypatch, digest, setup, argv):
    catalog_path = setup(tmp_path, monkeypatch) if setup else None
    code, out, err = run_cli(capsys, *argv)
    if catalog_path:
        err = err.replace(catalog_path, "<catalog>")
    seen = f"exit {code}\n--- stdout\n{without_timings(out)}--- stderr\n{without_timings(err)}"
    assert hashlib.sha256(seen.encode()).hexdigest()[:16] == digest, seen[:2000]
