"""Exhaustive and randomized verification of identities over integer grids.

Grid evaluation may be sharded across worker processes; every environment
evaluation is pure and shard results merge in enumeration order, so reports
do not depend on scheduling. Failures are listed lexicographically in the
identity's declared parameter order.
"""
from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .model import CompiledIdentity, Identity, LinExpr, SumExpr, eval_side


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


def _decode(index: int, ranges) -> list[int]:
    vals = []
    for lo, hi in reversed(ranges):
        width = hi - lo + 1
        index, digit = divmod(index, width)
        vals.append(lo + digit)
    vals.reverse()
    return vals


def _grid_shard(args):
    ident, ranges, start, stop = args
    compiled = CompiledIdentity(ident)
    checked = 0
    failures = []
    vals = [0] * (len(ident.params) + 1)
    for index in range(start, stop):
        vals[: len(ident.params)] = _decode(index, ranges)
        if not compiled.admissible(vals):
            continue
        checked += 1
        lhs, rhs = compiled.evaluate(vals)
        if lhs != rhs:
            env = dict(zip(ident.params, vals[: len(ident.params)]))
            failures.append(Failure(env, lhs, rhs))
    return checked, failures


def shard_map(worker, total: int, jobs: int, task) -> list:
    """`worker(task(start, stop))` over contiguous shards of range(total).

    Results come back in shard order. At most `os.cpu_count()` worker
    processes run; with one worker, or fewer than two items per worker,
    the single shard runs in-process.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 2 * jobs:
        return [worker(task(0, total))]
    bounds = [total * i // jobs for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, [task(bounds[i], bounds[i + 1]) for i in range(jobs)]))


def verify_grid(ident: Identity, grid: GridSpec, jobs: int = 1) -> VerificationReport:
    """Evaluate every admissible environment of the Cartesian grid.

    Environments violating the identity's constraints are skipped. The report
    is identical for any number of jobs (elapsed time aside).
    """
    started = time.perf_counter()
    ranges = grid.ordered_for(ident)
    total = 1
    for lo, hi in ranges:
        total *= hi - lo + 1
    checked, failures = 0, []
    for shard_checked, shard_failures in shard_map(
        _grid_shard, total, jobs, lambda start, stop: (ident, ranges, start, stop)
    ):
        checked += shard_checked
        failures.extend(shard_failures)
    elapsed = int((time.perf_counter() - started) * 1000)
    grid_dict = {p: r for p, r in zip(ident.params, ranges)}
    return VerificationReport(ident.name, grid_dict, checked, failures, elapsed)


@dataclass(frozen=True)
class BoundSensitivity:
    stated: int
    extended: int

    @property
    def equal(self) -> bool:
        return self.stated == self.extended


def bound_sensitivity(ident: Identity, env: Mapping[str, int], window: int) -> BoundSensitivity:
    """Compare the stated-bounds sum against [lower-window, upper+window].

    They agree exactly when every out-of-range summand vanishes.
    """
    if not isinstance(ident.lhs, SumExpr):
        raise ValueError(f"identity '{ident.name}' has no summation side")
    if window < 0:
        raise ValueError("window must be nonnegative")
    s = ident.lhs
    wide = SumExpr(s.bound_var, s.lower - LinExpr(window), s.upper + LinExpr(window), s.body)
    return BoundSensitivity(eval_side(s, env), eval_side(wide, env))


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
    vals = [0] * (len(ident.params) + 1)
    for _ in range(trials):
        point = [rng.randint(lo, hi) for _ in ident.params]
        vals[: len(ident.params)] = point
        admissible = compiled.admissible(vals)
        lhs, rhs = compiled.evaluate(vals)
        if lhs != rhs:
            failure = Failure(dict(zip(ident.params, point)), lhs, rhs)
            (failures if admissible else exploratory).append(failure)
    elapsed = int((time.perf_counter() - started) * 1000)
    grid = {p: (lo, hi) for p in ident.params}
    return VerificationReport(
        ident.name, grid, trials, failures, elapsed, exploratory=exploratory, seed=seed, trials=trials
    )
