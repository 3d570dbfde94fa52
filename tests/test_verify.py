import gc
import itertools
import json
import multiprocessing.connection
import os
import select
import signal
import subprocess
import sys
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from binomid.catalog import specialized_form
from binomid.cli import main
from binomid.model import BinomFactor, CompiledIdentity, Identity, LinExpr, Term
from binomid import verify
from binomid.verify import GridError, GridSpec, fuzz, shard_map, verify_grid

from conftest import RecordingPool, comb_oracle, grid_verdicts, walk_reference


def naive_chugen_check(env):
    """Second, independent spelling of the first base identity."""
    a, b, c, d, n = env["a"], env["b"], env["c"], env["d"], env["n"]
    lhs = 0
    for k in range(0, n + 1):
        lhs += (
            comb_oracle(a, k)
            * comb_oracle(b, n - k)
            * comb_oracle(k, c)
            * comb_oracle(n - k, d)
        )
    rhs = comb_oracle(a + b - c - d, n - c - d) * comb_oracle(a, c) * comb_oracle(b, d)
    return lhs, rhs


def test_verify_chugen_full_grid(catalog):
    ident = catalog.identity("chugen")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 5))
    assert report.instances == 7776
    assert report.ok
    # independence check: re-derive a sample with the naive implementation
    for vals in itertools.product(range(0, 6, 2), repeat=5):
        env = dict(zip(ident.params, vals))
        lhs, rhs = naive_chugen_check(env)
        assert lhs == rhs


def test_verify_eq1_grid(catalog):
    ident = catalog.identity("eq1")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 4))
    assert report.instances == 5 ** 5
    assert report.ok


def corrupted(ident):
    """Add +1 to the first constant of the first rhs factor's upper index."""
    first = ident.rhs.factors[0]
    bumped = BinomFactor(first.upper + LinExpr(1), first.lower)
    rhs = Term(ident.rhs.sign_exponent, (bumped,) + ident.rhs.factors[1:])
    return Identity(ident.name + "-corrupt", ident.params, ident.lhs, rhs, ident.constraints)


def test_corrupted_identity_fails_in_order(catalog):
    ident = corrupted(catalog.identity("chugen"))
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 2))
    assert not report.ok
    envs = [tuple(f.env[p] for p in ident.params) for f in report.failures]
    assert envs == sorted(envs)
    assert all(f.lhs != f.rhs for f in report.failures)


def all_rhs_mutations(ident):
    """Every identity variant with one rhs index constant bumped by +1."""
    for i, factor in enumerate(ident.rhs.factors):
        for field in ("upper", "lower"):
            bumped = BinomFactor(
                factor.upper + LinExpr(1) if field == "upper" else factor.upper,
                factor.lower + LinExpr(1) if field == "lower" else factor.lower,
            )
            factors = ident.rhs.factors[:i] + (bumped,) + ident.rhs.factors[i + 1 :]
            rhs = Term(ident.rhs.sign_exponent, factors)
            yield Identity(ident.name, ident.params, ident.lhs, rhs, ident.constraints)


def first_failing_env(ident, lo, hi):
    """First admissible environment of [lo, hi]^params where the sides differ."""
    compiled = CompiledIdentity(ident)
    for point in itertools.product(range(lo, hi + 1), repeat=len(ident.params)):
        if compiled.admissible(point) and len(set(compiled.evaluate(point))) == 2:
            return point
    return None


def test_mutation_sensitivity_every_catalog_identity(catalog):
    # bumping any single rhs constant must be caught on the default grid
    for name, ident in catalog.identities.items():
        for bad in all_rhs_mutations(ident):
            assert first_failing_env(bad, 0, 5) is not None, (name, bad.rhs)


def test_grid_missing_param(catalog):
    with pytest.raises(GridError, match="missing"):
        verify_grid(catalog.identity("chugen"), GridSpec.of({"a": (0, 1)}))


def test_empty_range_rejected():
    with pytest.raises(GridError):
        GridSpec.of({"a": (3, 1)})


def test_grid_cardinality():
    g = GridSpec.of({"a": (0, 5), "b": (-5, 5)})
    assert g.cardinality() == 6 * 11


def test_shard_determinism(catalog):
    ident = catalog.identity("eq4")
    grid = GridSpec.uniform(ident.params, 0, 4)
    reports = [verify_grid(ident, grid, jobs=j) for j in (1, 2, 8)]
    blobs = {r.canonical_json() for r in reports}
    assert len(blobs) == 1
    assert reports[0].instances == 5 ** 5


@pytest.mark.parametrize(
    "cpus, jobs, total, workers",
    [
        (2, 64, 100, 2),  # clamped to the cores
        (None, 4, 100, None),  # unknown core count: one worker
        (64, 8, 100, 8),
        (64, 8, 15, None),  # fewer than two items per worker
        (64, 1, 100, None),
    ],
)
def test_shard_map_clamps_workers(monkeypatch, recording_pool, cpus, jobs, total, workers):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    for _ in range(2):
        shards = shard_map(lambda shard: shard, total, jobs, lambda shard: shard)
        # every item once; shard j holds the items that are j modulo the worker count
        assert sorted(i for shard in shards for i in shard) == list(range(total))
        assert all(i % len(shards) == j for j, shard in enumerate(shards) for i in shard)
        if workers is None:
            assert RecordingPool.made == [] and shards == [range(total)]
        else:
            # the second call reuses the pool the first one made
            assert [pool.max_workers for pool in RecordingPool.made] == [workers]
            assert len(shards) == workers


def test_report_is_independent_of_clamped_jobs(catalog, monkeypatch, recording_pool):
    ident = catalog.identity("eq4")
    grid = GridSpec.uniform(ident.params, 0, 4)
    serial = verify_grid(ident, grid).canonical_json()
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    for jobs in (2, 3, 1000, 2):
        assert verify_grid(ident, grid, jobs=jobs).canonical_json() == serial
    # a new pool only when the worker count changes, and the old one is shut down
    assert [pool.max_workers for pool in RecordingPool.made] == [2, 3, 2]
    assert [pool.closed for pool in RecordingPool.made] == [True, True, False]


def test_failures_from_every_shard_merge_in_enumeration_order(catalog, monkeypatch,
                                                              recording_pool):
    ident = corrupted(catalog.identity("chugen"))
    grid = GridSpec.uniform(ident.params, 0, 3)  # 4 ** 5 points: 3 shards do not divide them
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    reports = {jobs: verify_grid(ident, grid, jobs=jobs) for jobs in (1, 2, 3)}
    assert [pool.max_workers for pool in RecordingPool.made] == [2, 3]
    serial = reports[1].canonical_json()
    assert reports[2].canonical_json() == serial and reports[3].canonical_json() == serial
    points = list(itertools.product(range(4), repeat=len(ident.params)))
    failing = [points.index(tuple(f.env[p] for p in ident.params)) for f in reports[3].failures]
    assert failing == sorted(failing)
    assert {i % 2 for i in failing} == {0, 1} and {i % 3 for i in failing} == {0, 1, 2}


def test_constraints_skip_envs(catalog):
    stan2 = catalog.identity("stanley2")
    report = verify_grid(stan2, GridSpec.uniform(stan2.params, 0, 5))
    assert report.ok
    assert report.instances < 6 ** 4  # constraint-violating envs skipped


# -- the generated grid walk ------------------------------------------------------

# grid shapes by parameter count: the default grid, negative arguments (13
# catalog identities fail there), unequal widths, and a last axis narrower
# than most worker counts below
GRID_SHAPES = {
    "0..5": lambda count: [(0, 5)] * count,
    "-3..3": lambda count: [(-3, 3)] * count,
    "unequal": lambda count: [(-1 - i % 2, 1 + i) for i in range(count)],
    "narrow-last": lambda count: [(-2, 3)] * (count - 1) + [(1, 2)],
}


@pytest.mark.parametrize("shape", GRID_SHAPES)
def test_walk_shards_agree_with_the_point_loop(catalog, shape):
    idents = list(catalog.identities.values())
    idents += [specialized_form(catalog, claim) for claim in catalog.claims.values()]
    for ident in idents:
        compiled = CompiledIdentity(ident)
        ranges = GRID_SHAPES[shape](len(ident.params))
        verdicts = grid_verdicts(compiled, ranges)
        checked, failed = walk_reference(verdicts, 0, 1)
        if shape == "0..5" and ident.name == "stanley2":
            assert checked == 1086
        for w in range(1, 5):
            shards = [compiled.walk(ranges, j, w) for j in range(w)]
            # shard j is the point loop over the flat indices j modulo w, so
            # the shards are disjoint and together check every point once
            assert shards == [walk_reference(verdicts, j, w) for j in range(w)], (ident.name, w)
            assert sum(count for count, _ in shards) == checked
            assert sorted(f for _, part in shards for f in part) == sorted(failed)


def test_the_walk_memo_is_freed_on_return_without_the_collector(catalog, monkeypatch):
    memos = []

    class Watched(CompiledIdentity):
        def __init__(self, ident):
            super().__init__(ident)
            memos.append(weakref.ref(self.walk.__globals__["cache"]))

    monkeypatch.setattr(verify, "CompiledIdentity", Watched)
    ident = catalog.identity("chugen")
    gc.disable()
    try:
        assert verify_grid(ident, GridSpec.uniform(ident.params, 0, 2)).instances == 3 ** 5
        assert len(memos) == 1 and memos[0]() is None
    finally:
        gc.enable()


# -- fuzz -----------------------------------------------------------------------


def test_fuzz_chugen(catalog):
    report = fuzz(catalog.identity("chugen"), seed=1, trials=1000, lo=0, hi=8)
    assert report.trials == 1000
    assert report.ok
    assert report.exploratory == []


def test_fuzz_zero_trials(catalog):
    report = fuzz(catalog.identity("chugen"), seed=9, trials=0, lo=0, hi=3)
    assert report.instances == 0
    assert report.failures == [] and report.exploratory == []


def test_fuzz_deterministic(catalog):
    a = fuzz(catalog.identity("eq7"), seed=42, trials=500, lo=-4, hi=4)
    b = fuzz(catalog.identity("eq7"), seed=42, trials=500, lo=-4, hi=4)
    assert a.canonical_json() == b.canonical_json()


def test_fuzz_exploratory_classification(catalog):
    # stanley2 fails outside its recorded constraint; those failures are
    # exploratory data, not verification failures
    report = fuzz(catalog.identity("stanley2"), seed=3, trials=2000, lo=0, hi=4)
    assert report.ok
    assert len(report.exploratory) > 0


def test_fuzz_rejects_empty_interval(catalog):
    with pytest.raises(ValueError):
        fuzz(catalog.identity("chugen"), seed=0, trials=10, lo=2, hi=1)


# -- report schema ----------------------------------------------------------------


def test_report_json_schema(catalog):
    ident = catalog.identity("chugen")
    report = verify_grid(ident, GridSpec.uniform(ident.params, 0, 2))
    data = report.to_json_dict()
    assert set(data) == {"identity", "grid", "instances", "failures", "elapsed_ms"}
    assert data["identity"] == "chugen"
    assert all(isinstance(v, list) and len(v) == 2 for v in data["grid"].values())
    assert isinstance(data["instances"], int)
    corrupted_report = verify_grid(
        corrupted(ident), GridSpec.uniform(ident.params, 0, 2)
    )
    entry = corrupted_report.to_json_dict()["failures"][0]
    assert set(entry) == {"env", "lhs", "rhs"}
    assert isinstance(entry["lhs"], str) and isinstance(entry["rhs"], str)
    int(entry["lhs"])  # decimal strings


# -- worker pool lifetime -----------------------------------------------------------

SRC = Path(verify.__file__).resolve().parents[1]

# Starts the pool with two workers (whatever the core count), prints the pids
# of its processes, then exits or waits on stdin to be killed.
POOL_CHILD = """
import multiprocessing, multiprocessing.resource_tracker, os, sys
from binomid import verify
from binomid.catalog import load_builtin
os.cpu_count = lambda: 2
ident = load_builtin().identity("eq4")
report = verify.verify_grid(ident, verify.GridSpec.uniform(ident.params, 0, 4), jobs=2)
assert report.ok and report.instances == 5 ** 5
pids = [p.pid for p in multiprocessing.active_children()]
tracker = getattr(multiprocessing.resource_tracker._resource_tracker, "_pid", None)
print(len(pids), *pids, *([tracker] if tracker else []), flush=True)
if sys.argv[1] == "kill":
    sys.stdin.read()
"""


def running(pid):
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:  # exited since, or a system without /proc
        return not os.path.isdir("/proc/self")


@pytest.mark.parametrize("ending", ["exit", "kill"])
def test_workers_end_with_their_process(ending):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pids = []
    with subprocess.Popen([sys.executable, "-c", POOL_CHILD, ending], env=env, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as child:
        try:
            assert select.select([child.stdout], [], [], 60)[0], "no pids within 60 s"
            workers, *pids = map(int, child.stdout.readline().split())
            assert workers == 2 and len(pids) >= workers
            assert all(running(pid) for pid in pids)
            if ending == "kill":
                child.kill()
            assert child.wait(timeout=60) == (0 if ending == "exit" else -signal.SIGKILL)
            deadline = time.monotonic() + 10
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if running(pid)]
        finally:
            child.kill()
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)


def test_broken_pool_is_dropped_and_the_next_call_starts_a_new_one(catalog, monkeypatch,
                                                                    own_workers):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(BrokenProcessPool):
        shard_map(os._exit, 4, 2, lambda shard: 1)
    assert own_workers.pool is None
    ident = catalog.identity("eq4")
    grid = GridSpec.uniform(ident.params, 0, 4)
    assert verify_grid(ident, grid, jobs=2).canonical_json() == verify_grid(ident, grid).canonical_json()


def report_of(out):
    report = json.loads(out)
    del report["elapsed_ms"]
    return report


def test_cli_run_on_a_broken_pool_is_an_internal_error(capsys, monkeypatch, own_workers):
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    argv = ["verify", "--identity", "eq4", "--range", "*=0..4", "--jobs", "2", "--format", "json"]
    before = set(multiprocessing.active_children())
    assert main(argv) == 0
    first = report_of(capsys.readouterr().out)
    workers = [p for p in multiprocessing.active_children() if p not in before]
    assert len(workers) == 2
    # a worker killed from outside, as the system's out-of-memory killer would
    os.kill(workers[0].pid, signal.SIGKILL)
    # the sentinel, not is_alive(): the pool's manager thread may reap the worker first
    assert multiprocessing.connection.wait([workers[0].sentinel], timeout=10)
    assert main(argv) == 3
    assert "internal error: BrokenProcessPool" in capsys.readouterr().err
    # the broken pool was dropped: the next run starts a new one
    assert main(argv) == 0
    assert report_of(capsys.readouterr().out) == first
