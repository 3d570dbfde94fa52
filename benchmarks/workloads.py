"""The three benchmark workloads and their reference check.

Each workload is a closed loop with a single caller: the next call into
binomid starts only after the previous one returned. A workload hands out
chunks (a list of operations drawn from the seeded generator) and runs a
chunk, timing every call to a public entry point and checking every
report against the reference recorded from the seed commit.

    grid     verify_grid on every catalog identity over its default grid,
             plus check_specialization on every claim; the seed sets the
             order. One chunk is one pass over the catalog.
    prove    run_proof_script on one instance per call, instances drawn
             from the 0..3 grids of both scripts, stratified by cost class
             (see make_reference.py) so every chunk has the same mix.
    sharded  a wide verify grid and a proof sample per script, each run at
             jobs=1 and at jobs=nproc on the same inputs. One chunk is one
             such round; each call at jobs=nproc is one latency sample.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field

from binomid import arith, catalog, proofs, verify
from binomid.verify import GridSpec

PROVE_LO, PROVE_HI = 0, 3
PROVE_WINDOW = 2
PROVE_CLASSES = 4  # cost classes per script; one prove group holds one of each
PROVE_GROUPS_PER_CHUNK = 4
SHARD_IDENTITY = "chugen"
SHARD_LO, SHARD_HI = 0, 7
SHARD_PER_CLASS = 3  # proof instances per cost class and script in a round, at least nproc


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def claim_json(result) -> str:
    """The canonical form of a ClaimResult: its JSON without elapsed time."""
    out = result.to_json_dict()
    out["verification"] = result.report.to_json_dict(include_elapsed=False)
    return json.dumps(out, sort_keys=True)


def instance_key(script, env) -> str:
    return f"{script.name}:" + ",".join(str(env[p]) for p in script.params)


def prove_pool(cat):
    """Every admissible proof instance of the 0..3 grids, per script."""
    return {
        name: script.instances({p: (PROVE_LO, PROVE_HI) for p in script.params})
        for name, script in cat.scripts.items()
    }


def merged_proof_json(ref, script, envs) -> str:
    """Expected canonical report of one call over several instances,
    merged from the per-instance references in instance order."""
    table = ref["prove"]
    merged = None
    for env in envs:
        one = json.loads(table["reports"][table["instances"][instance_key(script, env)][0]])
        if merged is None:
            merged = one
            continue
        merged["instances"] += one["instances"]
        for step, extra in zip(merged["steps"], one["steps"]):
            step["passes"] += extra["passes"]
        merged["failures"].extend(one["failures"])
    return json.dumps(merged, sort_keys=True)


@dataclass
class Chunk:
    """What one chunk did: work counts, the timed seconds they took, and
    per-call latencies, attempts and failures."""

    envs: int = 0
    env_s: float = 0.0
    instances: int = 0
    instance_s: float = 0.0
    timed_s: float = 0.0  # every timed call, whatever it counts toward
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sums: dict = field(default_factory=dict)

    def add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def count(self, envs, instances, seconds):
        self.envs += envs
        self.instances += instances
        self.env_s += seconds
        self.instance_s += seconds
        self.latencies_ms.append(seconds * 1000)


class Workload:
    name = ""

    def __init__(self, cat, ref, seed: int):
        self.cat = cat
        self.ref = ref
        self.rng = random.Random(seed)
        self.jobs = nproc()
        self.errors_shown = 0

    def block_chunks(self) -> int:
        """Chunks in one traced block (a fixed list of operations)."""
        return 1

    def warm(self) -> None:
        """Fill lazy state before timing: the factorial memo and imports."""
        arith.factorial(256)
        ident = self.cat.identity("riordan")
        verify.verify_grid(ident, GridSpec.uniform(ident.params, 0, 1))

    def _call(self, chunk: Chunk, fn, *args, **kwargs):
        """Time one entry-point call; an exception counts as a failed op."""
        chunk.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            chunk.failed += 1
            if self.errors_shown < 3:
                self.errors_shown += 1
                traceback.print_exc()
            return None, 0.0
        dt = time.perf_counter() - t0
        chunk.timed_s += dt
        return result, dt

    def _expect(self, chunk: Chunk, ok: bool) -> None:
        if not ok:
            chunk.failed += 1


class Grid(Workload):
    name = "grid"

    def next_chunk(self):
        ops = [("verify", n) for n in self.cat.identities] + [("claim", n) for n in self.cat.claims]
        self.rng.shuffle(ops)
        return ops

    def run(self, ops) -> Chunk:
        chunk = Chunk()
        table = self.ref["grid"]
        for kind, name in ops:
            if kind == "verify":
                ident = self.cat.identity(name)
                grid = GridSpec.uniform(ident.params, catalog.DEFAULT_GRID_LO, catalog.DEFAULT_GRID_HI)
                report, dt = self._call(chunk, verify.verify_grid, ident, grid)
                text = report.canonical_json() if report else None
            else:
                claim = self.cat.claim(name)
                grid = claim.grid(params=self.cat.identity(name).params)
                result, dt = self._call(chunk, catalog.check_specialization, self.cat, claim)
                report = result.report if result else None
                text = claim_json(result) if result else None
            if report is None:
                continue
            self._expect(chunk, digest(text) == table[f"{kind}:{name}"])
            chunk.count(grid.cardinality(), report.instances, dt)
            chunk.add("grid_envs", grid.cardinality())
            chunk.add("grid_checked", report.instances)
            if kind == "verify":
                chunk.add("verify_s", dt)
                chunk.add("verify_envs", grid.cardinality())
        return chunk


class _Strata:
    """Seeded draws of proof instances, balanced over (script, cost class)."""

    def __init__(self, cat, ref, rng):
        self.rng = rng
        self.pools = {}
        for name, envs in prove_pool(cat).items():
            script = cat.script(name)
            for env in envs:
                cls = ref["prove"]["instances"][instance_key(script, env)][1]
                self.pools.setdefault((name, cls), []).append(env)
        self.queues = {key: [] for key in self.pools}

    def draw(self, key):
        queue = self.queues[key]
        if not queue:
            queue.extend(self.pools[key])
            self.rng.shuffle(queue)
        return queue.pop()


class Prove(Workload):
    name = "prove"

    def __init__(self, cat, ref, seed):
        super().__init__(cat, ref, seed)
        self.strata = _Strata(cat, ref, self.rng)

    def block_chunks(self):
        return 4

    def warm(self):
        super().warm()
        script = self.cat.script("proof-eq1")
        proofs.run_proof_script(script, [dict.fromkeys(script.params, 0)], window=PROVE_WINDOW)

    def next_chunk(self):
        ops = []
        for _ in range(PROVE_GROUPS_PER_CHUNK):
            group = [(key[0], self.strata.draw(key)) for key in self.strata.pools]
            self.rng.shuffle(group)
            ops.extend(group)
        return ops

    def run(self, ops) -> Chunk:
        chunk = Chunk()
        table = self.ref["prove"]
        for name, env in ops:
            script = self.cat.script(name)
            report, dt = self._call(chunk, proofs.run_proof_script, script, [env], window=PROVE_WINDOW)
            if report is None:
                continue
            expected = table["reports"][table["instances"][instance_key(script, env)][0]]
            self._expect(chunk, report.canonical_json() == expected)
            chunk.count(1, 1, dt)
        return chunk


class Sharded(Workload):
    name = "sharded"

    def __init__(self, cat, ref, seed):
        super().__init__(cat, ref, seed)
        self.strata = _Strata(cat, ref, self.rng)
        # run_proof_script runs serially below 2*jobs instances, so the sample
        # grows with jobs to keep the pool busy on any host
        self.per_class = max(SHARD_PER_CLASS, self.jobs)
        self.round = 0

    def warm(self):
        super().warm()
        ident = self.cat.identity("riordan")
        verify.verify_grid(ident, GridSpec.uniform(ident.params, 0, 3), jobs=self.jobs)

    def next_chunk(self):
        samples = {}
        for key in self.strata.pools:
            samples.setdefault(key[0], []).extend(
                self.strata.draw(key) for _ in range(self.per_class))
        self.round += 1
        # alternate which side runs first, so slow drift does not favour one
        sides = (1, self.jobs) if self.jobs > 1 else (1,)
        order = sides if self.round % 2 else sides[::-1]
        return {"samples": samples, "order": order}

    def run(self, spec) -> Chunk:
        chunk = Chunk()
        n = self.jobs
        ident = self.cat.identity(SHARD_IDENTITY)
        grid = GridSpec.uniform(ident.params, SHARD_LO, SHARD_HI)
        want = self.ref["sharded"][f"verify:{SHARD_IDENTITY}:{SHARD_LO}..{SHARD_HI}"]
        wall = {}
        texts = {}
        checked = 0
        complete = True
        for jobs in spec["order"]:
            report, dt = self._call(chunk, verify.verify_grid, ident, grid, jobs=jobs)
            if report is None:
                complete = False
                continue
            texts[jobs] = report.canonical_json()
            wall["verify", jobs] = dt
            if jobs == n:
                chunk.latencies_ms.append(dt * 1000)
            checked = report.instances
        for jobs, text in texts.items():
            # the determinism contract: sharded reports equal serial ones byte for byte
            self._expect(chunk, digest(text) == want and text == texts.get(1, text))
        for name, sample in spec["samples"].items():
            script = self.cat.script(name)
            expected = merged_proof_json(self.ref, script, sample)
            for jobs in spec["order"]:
                report, dt = self._call(chunk, proofs.run_proof_script, script, sample,
                                        window=PROVE_WINDOW, jobs=jobs)
                if report is None:
                    complete = False
                    continue
                self._expect(chunk, report.canonical_json() == expected)
                wall["prove", jobs] = wall.get(("prove", jobs), 0.0) + dt
                if jobs == n:
                    chunk.latencies_ms.append(dt * 1000)
        if not complete:
            return chunk
        sample_size = sum(len(s) for s in spec["samples"].values())
        chunk.envs, chunk.env_s = grid.cardinality(), wall["verify", n]
        chunk.instances, chunk.instance_s = sample_size, wall["prove", n]
        chunk.add("parallel_s", wall["verify", n] + wall["prove", n])
        chunk.add("serial_s", wall["verify", 1] + wall["prove", 1])
        chunk.add("verify_s", wall["verify", 1])
        chunk.add("verify_envs", grid.cardinality())
        chunk.add("grid_envs", grid.cardinality())
        chunk.add("grid_checked", checked)
        chunk.add("verify_overhead_s", wall["verify", n] - wall["verify", 1] / n)
        chunk.add("prove_overhead_s", wall["prove", n] - wall["prove", 1] / n)
        return chunk


WORKLOADS = {w.name: w for w in (Grid, Prove, Sharded)}
