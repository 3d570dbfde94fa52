"""Exhaustive and randomized verification of identities over integer grids.

Grid evaluation may be sharded across worker processes. Shards are
interleaved: with w workers, worker j takes points j, j+w, j+2w, ... of the
enumeration, so each worker gets an equal mix of cheap and costly points.
Each shard is one call of the identity's generated `walk` (see
`binomid.model.CompiledIdentity`), which runs the grid's nested loops itself
and returns the admissible count and the failing points.
Every environment evaluation is pure and shard results merge back in
enumeration order, so reports do not depend on scheduling. The worker
processes start once per process and are reused by later sharded calls (see
`shard_map`); proof runs shard on the same helper and send each proof
script to a worker once (see `binomid.proofs`). Failures are listed
lexicographically in the identity's declared parameter order.
"""
from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .model import CompiledIdentity, Identity


class GridError(Exception):
    """A grid does not bind every parameter of the identity."""


@dataclass(frozen=True)
class GridSpec:
    """Inclusive integer range per parameter."""

    ranges: tuple[tuple[str, tuple[int, int]], ...]

    @staticmethod
    def of(ranges: Mapping[str, tuple[int, int]]) -> "GridSpec":
        for name, (lo, hi) in ranges.items():
            if lo > hi:
                raise GridError(f"empty range {lo}..{hi} for parameter '{name}'")
        return GridSpec(tuple(ranges.items()))

    @staticmethod
    def uniform(params, lo: int, hi: int) -> "GridSpec":
        return GridSpec.of({p: (lo, hi) for p in params})

    def as_dict(self) -> dict[str, tuple[int, int]]:
        return dict(self.ranges)

    def cardinality(self) -> int:
        total = 1
        for _, (lo, hi) in self.ranges:
            total *= hi - lo + 1
        return total

    def ordered_for(self, ident: Identity) -> list[tuple[int, int]]:
        table = self.as_dict()
        missing = [p for p in ident.params if p not in table]
        if missing:
            raise GridError(f"grid missing parameter(s) {', '.join(missing)} of '{ident.name}'")
        return [table[p] for p in ident.params]


@dataclass(frozen=True)
class Failure:
    env: dict[str, int]
    lhs: int
    rhs: int

    def as_json(self) -> dict:
        return {"env": self.env, "lhs": str(self.lhs), "rhs": str(self.rhs)}


@dataclass
class VerificationReport:
    identity: str
    grid: dict[str, tuple[int, int]]
    instances: int
    failures: list[Failure]
    elapsed_ms: int
    exploratory: list[Failure] = field(default_factory=list)
    seed: Optional[int] = None
    trials: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out: dict = {
            "identity": self.identity,
            "grid": {p: [lo, hi] for p, (lo, hi) in self.grid.items()},
            "instances": self.instances,
            "failures": [f.as_json() for f in self.failures],
        }
        if self.seed is not None:
            out["seed"] = self.seed
            out["trials"] = self.trials
            out["exploratory"] = [f.as_json() for f in self.exploratory]
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def canonical_json(self) -> str:
        """Deterministic serialization (elapsed time omitted) for comparisons."""
        return json.dumps(self.to_json_dict(include_elapsed=False), sort_keys=True)


def _grid_shard(args):
    ident, ranges, shard = args
    checked, failed = CompiledIdentity(ident).walk(ranges, shard.start, shard.step)
    return checked, [Failure(dict(zip(ident.params, point)), lhs, rhs) for point, lhs, rhs in failed]


def _exit_with_parent() -> None:
    """Worker initializer: end the worker as soon as its parent process dies.

    A worker blocked on the task queue would otherwise outlive a parent that
    was killed, since nothing closes that queue.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="binomid-parent-watch", daemon=True).start()


class _Workers:
    """The process's worker pool: started on first use, kept for later calls.

    At a normal interpreter exit `concurrent.futures` shuts every executor
    down and joins its workers; `_exit_with_parent` covers a killed process.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.pool: Optional[ProcessPoolExecutor] = None
        self.size = 0

    def map(self, worker, tasks: list) -> list:
        """`worker` over `tasks`, one worker process per task, results in order.

        A pool of another size is shut down first. A broken pool is dropped
        so that the next call starts a fresh one; the error propagates.
        """
        with self.lock:
            if self.pool is not None and self.size != len(tasks):
                self.close()
            if self.pool is None:
                self.pool = ProcessPoolExecutor(
                    max_workers=len(tasks),
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_exit_with_parent,
                )
                self.size = len(tasks)
            try:
                return list(self.pool.map(worker, tasks))
            except BrokenProcessPool:
                self.close()
                raise

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None


_WORKERS = _Workers()


def shard_map(worker, total: int, jobs: int, task) -> list:
    """`worker(task(shard))` over interleaved shards of range(total).

    With w workers, shard j is `range(j, total, w)`, so item cost that grows
    along the item order is spread evenly; callers merge the results back
    in item order. Results come back in shard order. At most
    `os.cpu_count()` worker processes run; with one worker, or fewer than
    two items per worker, the single shard `range(total)` runs in-process.
    Otherwise each worker takes one shard. The workers are started with
    the spawn method by the first such call, which pays their start-up,
    and are reused by every later call with the same worker count; a call
    with another count replaces them. They exit with this process, also
    when it is killed. Workers keep only inputs between calls (code caches
    and the proof scripts they loaded), never results, so reports are
    byte-identical for any worker count.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 2 * jobs:
        return [worker(task(range(total)))]
    return _WORKERS.map(worker, [task(range(j, total, jobs)) for j in range(jobs)])


def verify_grid(ident: Identity, grid: GridSpec, jobs: int = 1) -> VerificationReport:
    """Evaluate every admissible environment of the Cartesian grid.

    Environments violating the identity's constraints are skipped. The report
    is identical for any number of jobs (elapsed time aside): the merged
    failures are sorted by their point, which is enumeration order.
    """
    started = time.perf_counter()
    ranges = grid.ordered_for(ident)
    total = 1
    for lo, hi in ranges:
        total *= hi - lo + 1
    checked, failures = 0, []
    for shard_checked, shard_failures in shard_map(
        _grid_shard, total, jobs, lambda shard: (ident, ranges, shard)
    ):
        checked += shard_checked
        failures.extend(shard_failures)
    failures.sort(key=lambda f: [f.env[p] for p in ident.params])
    elapsed = int((time.perf_counter() - started) * 1000)
    grid_dict = {p: r for p, r in zip(ident.params, ranges)}
    return VerificationReport(ident.name, grid_dict, checked, failures, elapsed)


def fuzz(ident: Identity, seed: int, trials: int, lo: int, hi: int) -> VerificationReport:
    """Randomized check over [lo, hi]^params, deterministic for a given seed.

    Failing environments that violate the identity's declared constraints are
    exploratory data (the identity makes no claim there) and are reported
    separately rather than counted as failures.
    """
    if lo > hi:
        raise ValueError(f"empty sample range {lo}..{hi}")
    started = time.perf_counter()
    rng = random.Random(seed)
    compiled = CompiledIdentity(ident)
    failures: list[Failure] = []
    exploratory: list[Failure] = []
    for _ in range(trials):
        point = [rng.randint(lo, hi) for _ in ident.params]
        admissible = compiled.admissible(point)
        lhs, rhs = compiled.evaluate(point)
        if lhs != rhs:
            failure = Failure(dict(zip(ident.params, point)), lhs, rhs)
            (failures if admissible else exploratory).append(failure)
    elapsed = int((time.perf_counter() - started) * 1000)
    grid = {p: (lo, hi) for p in ident.params}
    return VerificationReport(
        ident.name, grid, trials, failures, elapsed, exploratory=exploratory, seed=seed, trials=trials
    )
