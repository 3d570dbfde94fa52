"""What each metric the benchmark reports means, and what it should move.

BENCHMARK.json holds every metric's name, unit and direction; run.py reads
them from there and prints each value with the text given here. For an
end-to-end metric (measured with tracing off) the text says what it means
on each workload; for a per-layer metric (measured by a separate traced
run) it says which end-to-end metric on which workload it should move.

Per-layer values are per traced block unless the text says otherwise. A
block is a fixed list of operations drawn from the seed: one catalog pass
on grid, 128 proof instances on prove, one round on sharded. The
catalog-loading metrics are per load. Calls made inside pool workers are
not visible to the tracer, which runs in the benchmark's own process.
"""
from __future__ import annotations

STEP_KINDS = ("AlgebraicRewrite", "IntegralRep", "GeometricCollapse", "ResidueEval",
              "BinomExpand", "CollectResidues", "Recognize")

_ENVS = "envs_per_s on grid"
_PROVE = "instances_per_s and op_p90_ms on prove; no change on grid"
_SHARD = "envs_per_s and instances_per_s on sharded"
_SETUP = "setup_s on every workload"

DESCRIPTIONS = {
    # end-to-end
    "setup_s": "fresh interpreter to a loaded built-in catalog (import binomid + "
               "load_builtin), median of 15 fresh processes spread over the run; every workload",
    "envs_per_s": "parameter environments per second over the run: enumerated grid "
                  "points incl. those `require` skips (grid), proof instances "
                  "(prove), wide-grid points at jobs=nproc (sharded)",
    "instances_per_s": "checked instances (the reports' `instances`) per second over the "
                       "run: admissible grid points (grid), proof instances "
                       "(prove), proof instances at jobs=nproc (sharded)",
    "op_p50_ms": "median latency of one call: verify_grid or check_specialization (grid), "
                 "run_proof_script on one instance (prove), verify_grid or "
                 "run_proof_script at jobs=nproc (sharded)",
    "op_p90_ms": "90th percentile of the same latencies (nearest rank)",
    "peak_rss_mb": "peak resident memory of the benchmark process",
    # per layer
    "arith.binomial.calls": _ENVS + "; near zero on prove",
    "arith.binomial.self_s": _ENVS + "; near zero on prove",
    "arith.binomial.per_env": _ENVS + " (calls per environment: memo misses)",
    "verify.verify_grid.self_s": "envs_per_s on grid; " + _SHARD,
    "verify.us_per_env": _ENVS + " (verify_grid call time per environment, "
                         "untraced blocks, jobs=1)",
    "verify.checked_ratio": "instances_per_s against envs_per_s on grid (admissible over "
                            "enumerated grid points)",
    "verify.shard_overhead_s": _SHARD + " (jobs=nproc wall minus jobs=1 wall / nproc, "
                               "untraced blocks)",
    "model.substitute.s": "op_p50_ms on grid (specialize); " + _PROVE,
    "model.canonicalize.s": "op_p50_ms on grid (specialize); " + _PROVE,
    "model.apply_chain.s": "op_p50_ms on grid (specialize)",
    "model.structurally_equal.s": "op_p50_ms on grid (specialize)",
    "model.eval_identity.calls": _PROVE + " (Recognize step)",
    "model.eval_identity.s": _PROVE + " (Recognize step)",
    "model.eval_side.s": _PROVE + " (step 0 and Recognize)",
    "catalog.load_builtin.s": _SETUP + " (per load)",
    "dsl.parse_catalog.s": _SETUP + " (per load)",
    "resexpr.parse_resexpr.s": _SETUP + " (per load)",
    "catalog.check_specialization.self_s": "op_p50_ms and envs_per_s on grid",
    "series.construct.calls": _PROVE,
    "series.construct.s": _PROVE + " (constructor incl. _normalize)",
    "series.mul.calls": _PROVE,
    "series.mul.self_s": _PROVE,
    "series.mul.pairs": _PROVE + " (|a|*|b| coefficient products attempted)",
    "series.pow.calls": _PROVE,
    "series.pow.neg_calls": _PROVE,
    "series.pow.self_s": _PROVE,
    "series.clipped.calls": _PROVE,
    "series.clipped.self_s": _PROVE,
    "series.clipped.kept_ratio": _PROVE + " (coefficients kept over coefficients in)",
    "series.add.calls": _PROVE,
    "series.add.self_s": _PROVE,
    "series.geometric_collapse.self_s": _PROVE,
    "series.res.self_s": _PROVE,
    "series.residue_eval_simple_pole.self_s": _PROVE + " (0 at the seed: the shipped proof "
                                              "path never calls it)",
    "series.first_difference.s": _PROVE,
    "series.max_terms": _PROVE + " (largest coefficient table built)",
    "resexpr.evaluate.top_calls": "instances_per_s on prove",
    "resexpr.cache_hit_ratio": "instances_per_s on prove (top-level state evaluations "
                               "served from EvalContext.cache)",
    "resexpr.evaluate.self_s": "instances_per_s on prove",
    **{f"proofs.step.{kind}.s": "op_p50_ms and op_p90_ms on prove" for kind in STEP_KINDS},
    "proofs.unattributed_s": "none: serial run_proof_script time outside every step "
                             "(context set-up, report assembly, tracer cost)",
    "proofs.shard_overhead_s": _SHARD + " (jobs=nproc wall minus jobs=1 wall / nproc, "
                               "untraced blocks)",
    "shard_speedup": _SHARD + " (jobs=1 wall over jobs=nproc wall on the same inputs, "
                     "untraced blocks)",
    "trace.overhead_ratio": "none: traced over untraced time of the same block",
}
