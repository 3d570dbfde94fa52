"""binomid benchmark: one workload, one run, one JSON line of results.

    python3 benchmarks/run.py --workload {grid,prove,sharded} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; binomid is imported from the
checkout's `src/`, never from an installed copy, and the run stops with
exit code 2 when that source is missing.

With --trace 0 the run warms lazy state, then calls the workload's entry
points in a closed loop for S seconds, timing set-up in fresh interpreters
between calls, and reports the end-to-end metrics. With --trace 1 it runs one
fixed block of operations alternately untraced and traced for S seconds
and reports the per-layer metrics. BENCHMARK.json names every metric and its
unit; metrics.py says what each means, tracer.py how layers are timed. Every
report is checked against reference.json either way; `failed` counts
calls that raised or whose canonical JSON differs from the reference, and
fail_ratio = failed / attempted.

Human-readable lines come first on stdout, then a line with the run
record (nproc, Python, platform, seed), then the result as the last line.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
SETUP_LOADS_TRACED = 3

# Runs in a fresh interpreter: import the package from the checkout and load
# the built-in catalog; prints the seconds taken and whether the catalog is whole.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import binomid
from binomid import catalog
cat = catalog.load_builtin()
t1 = time.perf_counter()
whole = (len(cat.identities), len(cat.claims), len(cat.scripts)) == (26, 10, 2)
print(t1 - t0, int(whole and binomid.__file__.startswith(sys.argv[1])))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grid", "prove", "sharded"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_binomid():
    """Import binomid from the checkout's src/, or exit with code 2."""
    if not (SRC / "binomid" / "__init__.py").is_file():
        print(f"error: no binomid source under {SRC.name}/ next to the benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import binomid

    if not Path(binomid.__file__).resolve().is_relative_to(SRC):
        print(f"error: binomid was imported from {binomid.__file__}, not the checkout",
              file=sys.stderr)
        sys.exit(2)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def setup_once():
    """Set-up seconds in one fresh interpreter, and whether the catalog was whole."""
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    seconds, ok = out.stdout.split()
    return float(seconds), ok == "1"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat_for(seconds, step):
    """Call step() until `seconds` have passed, at least once; a call that would
    run past the end by more than half its expected length is not started."""
    start = last = time.perf_counter()
    step()
    while True:
        now = time.perf_counter()
        if now - start + (now - last) / 2 >= seconds:
            return
        last = now
        step()


def run_untraced(workload, seconds):
    """Run chunks for `seconds`; between chunks, take a set-up sample whenever
    fewer than the run's elapsed share of SETUP_RUNS have been taken. The
    host's speed drifts over tens of seconds, so set-up samples spread over
    the run vary with it no more than the workload's own calls do."""
    chunks, setups = [], []
    start = time.perf_counter()

    def step():
        chunks.append(workload.run(workload.next_chunk()))
        if len(setups) < SETUP_RUNS * (time.perf_counter() - start) / seconds:
            setups.append(setup_once())

    repeat_for(seconds, step)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_once())
    return chunks, setups


def median(values):
    """Median, or 0 when every operation failed and nothing was timed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(chunks, setup_s):
    latencies = [x for c in chunks for x in c.latencies_ms] or [0.0]
    return {
        "setup_s": setup_s,
        "envs_per_s": _ratio(sum(c.envs for c in chunks), sum(c.env_s for c in chunks)),
        "instances_per_s": _ratio(sum(c.instances for c in chunks),
                                  sum(c.instance_s for c in chunks)),
        "op_p50_ms": percentile(latencies, 0.5),
        "op_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _median_of(chunks, key):
    return median(c.sums[key] for c in chunks if key in c.sums)


def shard_speedup(chunks):
    """Median over sharded rounds of jobs=1 wall over jobs=nproc wall."""
    return median(c.sums["serial_s"] / c.sums["parallel_s"] for c in chunks if "parallel_s" in c.sums)


def run_traced(workload, cat_module, seconds):
    """Alternate untraced and traced runs of one fixed block of operations."""
    from metrics import STEP_KINDS
    from tracer import Tracer

    tracer = Tracer().install()
    for _ in range(SETUP_LOADS_TRACED):
        cat_module.load_builtin()
    tracer.remove()
    loads = {name: tracer.stats[name].total / SETUP_LOADS_TRACED
             for name in ("catalog.load_builtin", "dsl.parse_catalog", "resexpr.parse_resexpr")}
    tracer.reset()

    block = [workload.next_chunk() for _ in range(workload.block_chunks())]
    plain, traced = [], []

    def pair():
        plain.append([workload.run(spec) for spec in block])
        tracer.install()
        try:
            traced.append([workload.run(spec) for spec in block])
        finally:
            tracer.remove()

    repeat_for(seconds, pair)

    n = len(traced)
    stat = tracer.stats
    count = tracer.counters
    plain_chunks = [c for b in plain for c in b]
    block_sums = {}
    for c in traced[0]:
        for key, value in c.sums.items():
            block_sums[key] = block_sums.get(key, 0) + value
    block_envs = sum(c.envs for c in traced[0])
    steps_s = sum(tracer.steps.values())
    sums = lambda chunks, key: sum(c.sums.get(key, 0) for c in chunks)  # noqa: E731
    timed = lambda blocks: statistics.median(sum(c.timed_s for c in b) for b in blocks)  # noqa: E731

    m = {
        "arith.binomial.calls": stat["arith.binomial"].calls / n,
        "arith.binomial.self_s": stat["arith.binomial"].self_time / n,
        "arith.binomial.per_env": _ratio(stat["arith.binomial"].calls / n, block_envs),
        "verify.verify_grid.self_s": stat["verify.verify_grid"].self_time / n,
        "verify.us_per_env": 1e6 * _ratio(sums(plain_chunks, "verify_s"),
                                          sums(plain_chunks, "verify_envs")),
        "verify.checked_ratio": _ratio(block_sums.get("grid_checked", 0),
                                       block_sums.get("grid_envs", 0)),
        "verify.shard_overhead_s": _median_of(plain_chunks, "verify_overhead_s"),
        "model.substitute.s": stat["model.substitute"].total / n,
        "model.canonicalize.s": stat["model.canonicalize"].total / n,
        "model.apply_chain.s": stat["model.apply_chain"].total / n,
        "model.structurally_equal.s": stat["model.structurally_equal"].total / n,
        "model.eval_identity.calls": stat["model.eval_identity"].calls / n,
        "model.eval_identity.s": stat["model.eval_identity"].total / n,
        "model.eval_side.s": stat["model.eval_side"].total / n,
        "catalog.load_builtin.s": loads["catalog.load_builtin"],
        "dsl.parse_catalog.s": loads["dsl.parse_catalog"],
        "resexpr.parse_resexpr.s": loads["resexpr.parse_resexpr"],
        "catalog.check_specialization.self_s": stat["catalog.check_specialization"].self_time / n,
        "series.construct.calls": stat["series.construct"].calls / n,
        "series.construct.s": stat["series.construct"].total / n,
        "series.mul.calls": stat["series.mul"].calls / n,
        "series.mul.self_s": stat["series.mul"].self_time / n,
        "series.mul.pairs": count["series.mul.pairs"] / n,
        "series.pow.calls": stat["series.pow"].calls / n,
        "series.pow.neg_calls": count["series.pow.neg_calls"] / n,
        "series.pow.self_s": stat["series.pow"].self_time / n,
        "series.clipped.calls": stat["series.clipped"].calls / n,
        "series.clipped.self_s": stat["series.clipped"].self_time / n,
        "series.clipped.kept_ratio": _ratio(count["series.clipped.kept"], count["series.clipped.in"]),
        "series.add.calls": stat["series.add"].calls / n,
        "series.add.self_s": stat["series.add"].self_time / n,
        "series.geometric_collapse.self_s": stat["series.geometric_collapse"].self_time / n,
        "series.res.self_s": stat["series.res"].self_time / n,
        "series.residue_eval_simple_pole.self_s":
            stat["series.residue_eval_simple_pole"].self_time / n,
        "series.first_difference.s": stat["series.first_difference"].total / n,
        "series.max_terms": count["series.max_terms"],
        "resexpr.evaluate.top_calls": stat["resexpr.evaluate"].calls / n,
        "resexpr.cache_hit_ratio": _ratio(count["resexpr.evaluate.cache_hits"],
                                          stat["resexpr.evaluate"].calls),
        "resexpr.evaluate.self_s": stat["resexpr.evaluate"].self_time / n,
        **{f"proofs.step.{kind}.s": tracer.steps[kind] / n for kind in STEP_KINDS},
        "proofs.unattributed_s": (count["proofs.serial_s"] - steps_s) / n,
        "proofs.shard_overhead_s": _median_of(plain_chunks, "prove_overhead_s"),
        "shard_speedup": shard_speedup(plain_chunks),
        "trace.overhead_ratio": _ratio(timed(traced), timed(plain)),
    }
    return m, plain_chunks + [c for b in traced for c in b], tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_binomid()
    from binomid import catalog
    from metrics import DESCRIPTIONS
    from workloads import WORKLOADS, nproc

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
    }

    setup_whole = True
    if args.trace == 0:
        setup_once()  # unmeasured: compiles bytecode in a fresh checkout
    workload = WORKLOADS[args.workload](catalog.load_builtin(), ref, args.seed)
    workload.warm()

    if args.trace == 0:
        chunks, setups = run_untraced(workload, args.seconds)
        values = end_to_end(chunks, statistics.median(s for s, _ in setups))
        setup_whole = all(ok for _, ok in setups)
        table = bench["end_to_end"]
    else:
        values, chunks, tracer = run_traced(workload, catalog, args.seconds)
        table = bench["per_layer"]
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl", record)

    attempted = sum(c.attempted for c in chunks)
    failed = sum(c.failed for c in chunks)
    for m in table:
        print(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']:6s} "
              f"{DESCRIPTIONS[m['name']]}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations raised or differ from the reference")
    if args.trace == 0:
        samples = sum(len(c.latencies_ms) for c in chunks)
        print(f"{'samples':40s} {samples:>16d} {'count':6s} "
              f"latency samples, over {len(chunks)} chunks")
        if args.workload == "sharded":
            print(f"{'shard_speedup':40s} {shard_speedup(chunks):>16.6g} {'x':6s} "
                  f"jobs=1 wall over jobs={nproc()} wall on the same inputs")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0 and setup_whole,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
