import dataclasses
import json
import subprocess
import sys

import pytest

from binomid.catalog import load_builtin
from binomid.cli import main
from binomid.resexpr import parse_resexpr


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


def test_verify_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--identity", "chugen", "--range", "a=5")
    assert code == 2
    assert "bad range" in err


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
    steps[1] = dataclasses.replace(steps[1], after_text=text, after=parse_resexpr(text))
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
