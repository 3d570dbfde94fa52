"""Smoke test of the benchmark at its smallest size (one chunk or block per run).

    python3 -m pytest -q benchmarks/test_smoke.py

Takes about a minute: every workload runs untraced, traced, and against a
wrong reference.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import DESCRIPTIONS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("grid", "prove", "sharded")
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_metric_has_a_description():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(DESCRIPTIONS) == set(END_TO_END) | set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, res = result(run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    assert any(line.startswith("fail_ratio") for line in lines)
    record = json.loads(lines[-2])["record"]
    assert {"nproc", "python", "platform", "seed"} <= set(record)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    _, res = result(run(workload, 1))
    assert res["correct"]
    metrics = {name: m["value"] for name, m in res["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    series = [v for n, v in metrics.items() if n.startswith("series.")]
    if workload == "grid":
        assert not any(series)
    if workload == "prove":
        steps = sum(v for n, v in metrics.items() if n.startswith("proofs.step."))
        assert steps > 0
        # the step split covers the serial proof time up to a small per-call overhead
        assert metrics["proofs.unattributed_s"] < 0.05 * steps
        assert metrics["series.mul.pairs"] > 0
    if workload == "sharded":
        assert metrics["shard_speedup"] > 0


def copy_benchmark(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / HERE.name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_every_operation(tmp_path, workload):
    bench = copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    ref = json.loads((HERE / "reference.json").read_text())
    for table in ("grid", "sharded"):
        ref[table] = {key: value[::-1] for key, value in ref[table].items()}
    ref["prove"]["reports"] = [text.replace('"passes": 1', '"passes": 2')
                               for text in ref["prove"]["reports"]]
    (bench / "reference.json").write_text(json.dumps(ref))
    _, res = result(run(workload, 0, cwd=tmp_path, script=bench / "run.py"))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


def test_exits_without_result_when_source_is_missing(tmp_path):
    bench = copy_benchmark(tmp_path)
    proc = run("grid", 0, cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
