"""The evaluation memo a proof run shares across scopes and instances.

A multi-instance run shares one memo among the instances of each window, so
its report must equal the merged reports of single-instance runs, whose
memos start empty, also for every corrupted script. A memo entry is handed
to every later lookup of its key: no evaluation may edit a shared value in
place, and every entry must equal a fresh evaluation of its node.
"""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.proofs import (ProofReport, StepFailure, _check_step_in_context, _context,
                            run_proof_script)
from binomid.resexpr import EvalContext, evaluate, free_params

from conftest import RecordingPool
from test_proofs import mutate_step

SCRIPTS = ("proof-eq1", "proof-eq2")


def _merged(script, window, envs, first=0) -> ProofReport:
    """The report of one run over envs, merged from single-instance checks.

    Steps before `first` count as passed; each instance is checked from
    step `first` on, in a context and memo of its own.
    """
    passes, failures = [0] * len(script.steps), []
    for env in envs:
        ctx = _context(script, env, window, {})
        reached = len(script.steps)
        for i in range(first, len(script.steps)):
            result = _check_step_in_context(script, i, ctx)
            if not result.ok:
                failures.append(StepFailure(dict(env), i, script.steps[i].kind, result.message))
                reached = i
                break
        passes = [n + (i < reached) for i, n in enumerate(passes)]
    return ProofReport(script.name, window, len(envs), [s.kind for s in script.steps],
                       passes, failures)


@pytest.mark.parametrize("window", [0, 2])
@pytest.mark.parametrize("name", SCRIPTS)
def test_batched_run_equals_single_instance_runs(catalog, name, window):
    script = catalog.script(name)
    envs = script.instances({p: (0, 2) for p in script.params})
    batched = run_proof_script(script, envs, window=window)
    assert batched.ok
    assert batched.canonical_json() == _merged(script, window, envs).canonical_json()
    # every instance passes every step, so a corrupted step is the first one
    # a single-instance run can fail
    for idx in range(len(script.steps)):
        mutated = mutate_step(script, idx)
        batched = run_proof_script(mutated, envs, window=window)
        assert batched.canonical_json() == _merged(mutated, window, envs, idx).canonical_json()
        assert batched.failures, f"mutated step {idx} not caught"
        assert {f.step for f in batched.failures} == {idx}


def _same(a, b) -> bool:
    return (a.coeffs == b.coeffs and a.sup_lo == b.sup_lo and a.sup_hi == b.sup_hi
            and a.acc_lo == b.acc_lo and a.acc_hi == b.acc_hi)


@st.composite
def runs(draw):
    """A script, a window and instances of one budget, as a run shares a memo."""
    script = draw(st.sampled_from(SCRIPTS))
    window = draw(st.integers(0, 3))
    n = draw(st.integers(1, 4))
    return script, window, [draw(st.integers(0, 2 ** 20)) for _ in range(n)]


@settings(max_examples=25, deadline=None)
@given(runs())
def test_shared_memo_is_sound(catalog, run):
    name, window, picks = run
    script = catalog.script(name)
    envs = script.instances({p: (0, 3) for p in script.params})
    budget = lambda env: script.budget_hint.evaluate(script.instance_env(env))
    first = envs[picks[0] % len(envs)]
    group = [e for e in envs if budget(e) == budget(first)]
    chosen = [first] + [group[p % len(group)] for p in picks[1:]]
    memo = {}
    for env in chosen:
        ctx = _context(script, env, window, memo)
        for step in script.steps:
            if step.after is None:
                continue
            for node in (step.before, step.after):
                warm = evaluate(node, ctx)
                assert _same(warm, evaluate(node, _context(script, env, window, {}))), (env, node)
    for (node, *values), value in memo.items():
        fresh = EvalContext(ctx.vars, ctx.window, ctx.probe, dict(zip(free_params(node), values)))
        assert _same(value, evaluate(node, fresh)), node


def test_window_error_raises_for_the_first_instance_in_order(catalog, monkeypatch):
    # instances run in budget order, but the error a run raises is the one
    # a run in instance order meets first, and later instances are skipped
    from binomid import proofs
    from binomid.series import WindowError

    script = catalog.script("proof-eq1")
    envs = script.instances({p: (0, 2) for p in script.params})
    budget = lambda env: script.budget_hint.evaluate(script.instance_env(env))
    early = max(envs, key=budget)
    late = min(envs[envs.index(early) + 1:], key=budget)
    assert budget(late) < budget(early)
    seen = []
    check = proofs._check_step_in_context

    def failing(script, index, ctx, trace=None):
        env = {p: ctx.env[p] for p in script.params}
        seen.append(env)
        if env in (early, late):
            raise WindowError(f"at {env}")
        return check(script, index, ctx, trace)

    monkeypatch.setattr(proofs, "_check_step_in_context", failing)
    with pytest.raises(WindowError, match=re.escape(f"at {early}")):
        run_proof_script(script, envs, window=2)
    assert seen.index(late) < seen.index(early)
    assert all(envs.index(env) <= envs.index(early) for env in seen[seen.index(early):])


def test_window_error_across_shards_is_the_first_in_instance_order(catalog, monkeypatch,
                                                                   recording_pool):
    # shard 0 (even indices) runs before shard 1 in-process; the error of the
    # later shard names the earlier instance, so it wins
    from binomid import proofs, verify
    from binomid.series import WindowError

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    script = catalog.script("proof-eq1")
    envs = script.instances({p: (0, 1) for p in script.params})
    early, late = envs[1], envs[2]
    seen = []
    check = proofs._check_step_in_context

    def failing(script, index, ctx, trace=None):
        env = {p: ctx.env[p] for p in script.params}
        seen.append(env)
        if env in (early, late):
            raise WindowError(f"at {env}")
        return check(script, index, ctx, trace)

    monkeypatch.setattr(proofs, "_check_step_in_context", failing)
    with pytest.raises(WindowError, match=re.escape(f"at {early}")):
        run_proof_script(script, envs, window=2, jobs=2)
    assert [pool.max_workers for pool in RecordingPool.made] == [2]
    assert seen.index(late) < seen.index(early)
