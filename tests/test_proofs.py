import dataclasses
from collections import Counter

import pytest

from binomid.dsl import parse_linexpr, parse_term
from binomid.model import BinomFactor, LinExpr
from binomid.proofs import run_proof_script
from binomid.resexpr import parse_resexpr

from conftest import check_step, comb_oracle


def small_instances(script, hi=2):
    return script.instances({p: (0, hi) for p in script.params})


def test_scripts_present(catalog):
    assert set(catalog.scripts) == {"proof-eq1", "proof-eq2"}
    for script in catalog.scripts.values():
        kinds = [s.kind for s in script.steps]
        assert kinds[0] == "AlgebraicRewrite"
        assert "IntegralRep" in kinds
        assert "GeometricCollapse" in kinds
        assert "ResidueEval" in kinds
        assert "BinomExpand" in kinds
        assert "CollectResidues" in kinds
        assert kinds[-1] == "Recognize"


def test_proof_eq1_small_grid(catalog):
    script = catalog.script("proof-eq1")
    report = run_proof_script(script, small_instances(script), window=2)
    assert report.ok, report.failures[:3]
    assert all(n == report.instances for n in report.step_passes)


def test_proof_eq2_small_grid(catalog):
    script = catalog.script("proof-eq2")
    report = run_proof_script(script, small_instances(script), window=2)
    assert report.ok, report.failures[:3]
    assert all(n == report.instances for n in report.step_passes)


def test_instance_constraints_filter(catalog):
    script = catalog.script("proof-eq1")
    envs = script.instances({p: (0, 1) for p in script.params})
    # c+d-b >= 0 must hold everywhere
    for env in envs:
        assert env["c"] + env["d"] - env["b"] >= 0
    assert {"b": 1, "c": 0, "d": 0, "n": 0, "p": 0} not in envs


def test_recognize_maps_are_the_stated_ones(catalog):
    eq1_map = dict(catalog.script("proof-eq1").steps[-1].mapping)
    assert eq1_map == {
        "a": parse_linexpr("c+d-b"),
        "b": parse_linexpr("p"),
        "c": parse_linexpr("0"),
        "d": parse_linexpr("c+d+p-n"),
        "m": parse_linexpr("b-d"),
    }
    eq2_map = dict(catalog.script("proof-eq2").steps[-1].mapping)
    assert eq2_map == {
        "a": parse_linexpr("a-c"),
        "b": parse_linexpr("n-a"),
        "c": parse_linexpr("0"),
        "d": parse_linexpr("d-p-a"),
        "m": parse_linexpr("c+d-a"),
    }
    for script in catalog.scripts.values():
        assert script.target.name == "chu2gen"


def test_check_step_trivial_equality(catalog):
    # a step whose before and after coincide syntactically passes
    script = catalog.script("proof-eq1")
    idx = 2
    trivial = dataclasses.replace(
        script.steps[idx],
        after=script.steps[idx].before,
        after_text=script.steps[idx].before_text,
    )
    steps = list(script.steps)
    steps[idx] = trivial
    modified = dataclasses.replace(script, steps=tuple(steps))
    env = {"b": 1, "c": 1, "d": 1, "n": 2, "p": 1}
    assert check_step(modified, idx, env, window=2) is None


def test_collect_residues_example(catalog):
    # the double-residue expression equals the collected sum at this instance
    env = {"b": 2, "c": 1, "d": 1, "n": 2, "p": 1}
    a = env["c"] + env["d"] - env["b"]
    script = catalog.script("proof-eq1")
    assert check_step(script, 5, env, window=2) is None  # CollectResidues
    assert check_step(script, 6, env, window=2) is None  # symmetry to C(b-d+j, a+b+p-n)
    collected = sum(
        comb_oracle(a, j)
        * comb_oracle(env["p"], env["c"] - a + j)
        * comb_oracle(env["b"] - env["d"] + j, a + env["b"] + env["p"] - env["n"])
        for j in range(0, a + 1)
    )
    lhs = sum(
        comb_oracle(env["c"] + env["d"] - env["b"], k - env["p"])
        * comb_oracle(env["b"], env["n"] - k)
        * comb_oracle(k, env["c"])
        * comb_oracle(env["n"] - k, env["d"])
        for k in range(0, env["n"] + 1)
    )
    assert comb_oracle(env["b"], env["d"]) * collected == lhs


def test_binom_expand_step(catalog):
    script = catalog.script("proof-eq1")
    env = {"b": 0, "c": 1, "d": 2, "n": 1, "p": 0}  # a = 3
    assert check_step(script, 4, env, window=2) is None


def test_carried_multiplier_invariant_eq1(catalog):
    # lhs of the subject equals C(b,d) times the simplified sum
    import itertools

    for b, c, d, n, p in itertools.product(range(3), repeat=5):
        a = c + d - b
        if a < 0:
            continue
        lhs = sum(
            comb_oracle(a, k - p) * comb_oracle(b, n - k) * comb_oracle(k, c) * comb_oracle(n - k, d)
            for k in range(0, n + 1)
        )
        simplified = sum(
            comb_oracle(a, k - p) * comb_oracle(k, c) * comb_oracle(b - d, n - d - k)
            for k in range(0, n + 1)
        )
        assert lhs == comb_oracle(b, d) * simplified


def test_carried_multiplier_invariant_eq2(catalog):
    import itertools

    for a, c, d, n, p in itertools.product(range(3), repeat=5):
        if a - c < 0:
            continue
        b = c + d - a
        lhs = sum(
            comb_oracle(a, k) * comb_oracle(c + d - a, p + k) * comb_oracle(k, c) * comb_oracle(n - k, d)
            for k in range(0, a + 1)
        )
        simplified = sum(
            comb_oracle(a - c, k - c) * comb_oracle(b, p + k) * comb_oracle(n - k, d)
            for k in range(0, a + 1)
        )
        assert lhs == comb_oracle(a, c) * simplified


def mutate_step(script, idx):
    """Corrupt one step's expression; the run must fail exactly there."""
    steps = list(script.steps)
    step = steps[idx]
    if step.kind == "Recognize":
        mapping = dict(step.mapping)
        mapping["d"] = mapping["d"] + parse_linexpr("1")
        steps[idx] = dataclasses.replace(step, mapping=tuple(mapping.items()))
    else:
        text = step.after_text + "+1"
        steps[idx] = dataclasses.replace(step, after_text=text, after=parse_resexpr(text))
    return dataclasses.replace(script, steps=tuple(steps))


@pytest.mark.parametrize("script_name", ["proof-eq1", "proof-eq2"])
def test_mutation_fails_at_exactly_that_step(catalog, script_name):
    script = catalog.script(script_name)
    env = {p: 2 for p in script.params}
    assert script.admissible(env)
    for idx in range(len(script.steps)):
        mutated = mutate_step(script, idx)
        report = run_proof_script(mutated, [env], window=2)
        assert not report.ok, f"mutated step {idx} not caught"
        assert report.failures[0].step == idx, (
            f"mutated step {idx}, failed at {report.failures[0].step}: "
            f"{report.failures[0].message}"
        )


def test_run_is_deterministic_across_jobs(catalog):
    script = catalog.script("proof-eq1")
    envs = small_instances(script, hi=1)
    a = run_proof_script(script, envs, window=2, jobs=1)
    b = run_proof_script(script, envs, window=2, jobs=4)
    assert a.canonical_json() == b.canonical_json()


def test_a_script_ships_to_a_worker_after_an_in_process_run(catalog, monkeypatch, own_workers):
    from binomid import proofs, verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    proofs._pickled.cache_clear()
    script = dataclasses.replace(catalog.script("proof-eq1"))  # a fresh object, nothing cached
    envs = small_instances(script, hi=1)[:6]
    serial = run_proof_script(script, envs, window=2)
    assert serial.ok
    sharded = run_proof_script(script, envs, window=2, jobs=2)
    assert own_workers.pool is not None
    assert sharded.canonical_json() == serial.canonical_json()


def counting_binomial(monkeypatch):
    """Patch `model.binomial` with a wrapper that counts its (n, k) pairs."""
    from binomid import model

    computed, pairs = model.binomial, Counter()

    def counting(n, k):
        pairs[n, k] += 1
        return computed(n, k)

    monkeypatch.setattr(model, "binomial", counting)
    return pairs


def test_the_numeric_checks_use_the_binomial_bound_at_each_run(catalog, monkeypatch):
    from binomid import model

    script = dataclasses.replace(catalog.script("proof-eq1"))  # a fresh object, nothing cached
    first, second = small_instances(script)[:2]
    assert run_proof_script(script, [first], window=2).ok
    pairs = counting_binomial(monkeypatch)
    assert run_proof_script(script, [second], window=2).ok
    seen = pairs.copy()
    pairs.clear()
    # the pairs of step 0 and Recognize, each check compiled afresh
    env = script.instance_env(second)
    specialized, product = script.recognitions[-1]
    model.eval_side(script.subject.lhs, env)
    model.eval_side(product, env)
    model.eval_side(script.subject.rhs, env)
    model.eval_identity(specialized, env)
    model.eval_identity(script.subject, env)
    assert seen and seen == pairs


def test_a_removed_binomial_wrapper_counts_nothing_more(catalog, monkeypatch):
    script = dataclasses.replace(catalog.script("proof-eq1"))
    first, second = small_instances(script)[:2]
    pairs = counting_binomial(monkeypatch)
    assert run_proof_script(script, [first], window=2).ok and pairs
    monkeypatch.undo()
    pairs.clear()
    assert run_proof_script(script, [second], window=2).ok
    assert not pairs


def loaded_scripts(_):
    """In a worker: how many scripts it keeps loaded."""
    from binomid import proofs

    return proofs._received.cache_info().currsize


def test_a_changed_script_is_never_served_from_a_worker_cache(catalog, monkeypatch, own_workers):
    from binomid import proofs, verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    proofs._pickled.cache_clear()
    script = catalog.script("proof-eq2")
    envs = small_instances(script, hi=1)[:8]
    first = run_proof_script(script, envs, window=2, jobs=2)
    assert first.ok and own_workers.pool is not None
    idx = 3
    mutated = mutate_step(script, idx)  # the same name, one step changed
    report = run_proof_script(mutated, envs, window=2, jobs=2)
    assert report.canonical_json() == run_proof_script(mutated, envs, window=2).canonical_json()
    assert {f.step for f in report.failures} == {idx}
    assert run_proof_script(script, envs, window=2, jobs=2).canonical_json() == first.canonical_json()
    # more distinct scripts than either side keeps
    for idx in range(proofs._SCRIPTS_KEPT + 1):
        report = run_proof_script(mutate_step(script, idx), envs, window=2, jobs=2)
        assert {f.step for f in report.failures} == {idx}
    assert proofs._pickled.cache_info().currsize == proofs._SCRIPTS_KEPT
    assert all(n <= proofs._SCRIPTS_KEPT for n in verify.shard_map(
        loaded_scripts, 4, 2, lambda shard: None))


def test_window_doubling_agrees(catalog):
    script = catalog.script("proof-eq2")
    env = {"a": 2, "c": 1, "d": 2, "n": 2, "p": 1}
    for idx in range(len(script.steps)):
        assert check_step(script, idx, env, window=2) is None
        assert check_step(script, idx, env, window=4) is None


def test_trace_callback_invoked(catalog):
    script = catalog.script("proof-eq1")
    env = {"b": 1, "c": 1, "d": 0, "n": 1, "p": 0}
    labels = []
    run_proof_script(script, [env], window=2, trace=lambda label, s: labels.append(label))
    assert any("before" in l for l in labels)
    assert any("after" in l for l in labels)


def test_traced_run_is_one_in_process_pass(catalog, monkeypatch, own_workers):
    from binomid import verify

    def no_pool(*args, **kwargs):
        raise AssertionError("a traced run must not start worker processes")

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(own_workers, "start", no_pool)
    script = catalog.script("proof-eq1")
    envs = small_instances(script, hi=1)
    assert len(envs) >= 8
    labels = []
    traced = run_proof_script(script, envs, window=2, jobs=4,
                              trace=lambda label, s: labels.append(label))
    assert traced.ok
    # every expression step traced once per instance: before, then after
    n_expr = sum(1 for s in script.steps if s.kind != "Recognize")
    expected = [f"step {i} {side}" for i in range(n_expr) for side in ("before", "after")]
    assert labels == expected * len(envs)


def test_trace_stops_at_the_first_failing_step(catalog):
    script = _with_after(catalog.script("proof-eq1"), 1, "w")
    labels = []
    report = run_proof_script(script, [{p: 2 for p in script.params}], window=2,
                              trace=lambda label, s: labels.append(label))
    assert report.failures[0].step == 1
    assert labels == ["step 0 before", "step 0 after", "step 1 before"]


def test_report_json_shape(catalog):
    script = catalog.script("proof-eq1")
    report = run_proof_script(script, small_instances(script, hi=1), window=2)
    data = report.to_json_dict()
    assert set(data) == {"script", "window", "instances", "steps", "failures", "elapsed_ms"}
    assert [s["kind"] for s in data["steps"]] == [s.kind for s in script.steps]


def test_loader_rejects_duplicate_adjacent_expression_mismatch(catalog):
    # loader derives each before from the previous after; mutating the data
    # between steps therefore cannot produce silently inconsistent scripts
    script = catalog.script("proof-eq1")
    for i in range(1, len(script.steps)):
        assert script.steps[i].before is script.steps[i - 1].after or script.steps[i].before_text == script.steps[i - 1].after_text


def _with_step(script, idx, **changes):
    steps = list(script.steps)
    steps[idx] = dataclasses.replace(steps[idx], **changes)
    return dataclasses.replace(script, steps=tuple(steps))


def _with_after(script, idx, text):
    """The script with step idx ending, and the next step starting, in the state text."""
    script = _with_step(script, idx, after_text=text, after=parse_resexpr(text))
    if idx + 1 < len(script.steps):
        script = _with_step(script, idx + 1, before_text=text, before=script.steps[idx].after)
    return script


def _with_step_0_as(script, form):
    """The script with both states of step 0 put into `form`."""
    step = script.steps[0]
    before, after = (form.format(text) for text in (step.before_text, step.after_text))
    return _with_step(script, 0, before_text=before, before=parse_resexpr(before),
                      after_text=after, after=parse_resexpr(after))


DISJOINT = "DegenerateWindowError: accuracy windows do not overlap"


def with_disjoint_windows(script):
    """proof-eq1 with step 1 ending in x^(40)/(1+x) and step 2 turning it into
    x^(-40)/(1+x): step 2's two states know no coefficient in common."""
    return _with_after(_with_after(script, 1, "x^(40)*(1+x)^(-1)"), 2, "x^(-40)*(1+x)^(-1)")


def test_disjoint_accuracy_windows_fail_their_own_step(catalog, monkeypatch, own_workers):
    from binomid import verify

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    script = with_disjoint_windows(catalog.script("proof-eq1"))
    envs = small_instances(script, hi=1)
    serial = run_proof_script(script, envs, window=2)
    assert {f.step for f in serial.failures} == {1, 2}
    assert all(f.message == DISJOINT for f in serial.failures if f.step == 2)
    sharded = run_proof_script(script, envs, window=2, jobs=2)
    assert own_workers.pool is not None
    assert sharded.canonical_json() == serial.canonical_json()


@pytest.mark.parametrize("role, clause, name", [("target", "m-1", "chu2gen-instance"),
                                                ("subject", "b-1", "eq1")])
def test_a_premise_or_subject_excluding_the_instance_fails_recognize(catalog, role, clause, name):
    script = catalog.script("proof-eq1")
    ident = getattr(script, role)
    narrowed = dataclasses.replace(ident, constraints=ident.constraints + (parse_linexpr(clause),))
    script = dataclasses.replace(script, **{role: narrowed})
    report = run_proof_script(script, small_instances(script, hi=1), window=2)
    last = len(script.steps) - 1
    assert report.failures and {f.step for f in report.failures} == {last}
    assert all(f.message.startswith(f"ConstraintError: identity '{name}': constraints violated at")
               for f in report.failures)


def test_engine_error_is_a_failed_step(catalog):
    # a state naming a variable that is not a series variable fails its step
    script = _with_after(catalog.script("proof-eq1"), 1, "w")
    env = {p: 2 for p in script.params}
    report = run_proof_script(script, [env], window=2)
    assert report.failures[0].step == 1
    assert report.failures[0].message.startswith("EngineError")


@pytest.mark.parametrize("text, message", [
    ("res(w)[(1+x)*geo[x]]", "EngineError: series has no variable 'w'"),
    # geo[0] = 1, so the residue is 1; eq1's lhs is 0 at this instance
    ("res(x)[x^(-1)*(1+x)*geo[C(1,2)*x]]", "first differing coefficient at 1: 0 vs 1"),
], ids=["not-a-series-variable", "zero-ratio"])
def test_a_residue_exchanged_with_a_geometric_sum_fails_its_own_step(catalog, text, message):
    script = _with_after(catalog.script("proof-eq1"), 1, text)
    report = run_proof_script(script, [{p: 2 for p in script.params}], window=2)
    assert [(f.step, f.message) for f in report.failures] == [(1, message)]


@pytest.mark.parametrize("text, limit", [
    ("sum(k,0,1)[" * 21 + "1" + "]" * 21, "too many statically nested blocks"),
    ("(" * 120 + "x" + ")^(1)" * 120, "too many levels of indentation"),
], ids=["loops", "indentation"])
def test_a_state_nested_past_the_compiler_limits_fails_its_own_step(catalog, text, limit):
    script = _with_after(catalog.script("proof-eq1"), 1, text)
    report = run_proof_script(script, [{p: 2 for p in script.params}], window=2)
    assert [(f.step, f.message) for f in report.failures] == [
        (1, f"EngineError: state nested too deeply to compile: {limit}")
    ]


def test_a_non_constant_opening_state_fails_step_0(catalog):
    # both states of step 0 times x: they agree, but the opening state is no number
    script = _with_step_0_as(catalog.script("proof-eq1"), "x*({})")
    env = {"b": 1, "c": 1, "d": 1, "p": 1, "n": 2}
    assert script.admissible(env)
    report = run_proof_script(script, [env], window=2)
    assert [(f.step, f.message) for f in report.failures] == [(0, "EngineError: series is not constant")]


def test_internal_value_error_is_not_a_failed_step(catalog, monkeypatch):
    # a bug outside the engine's own checks must not pass for a false proof
    from binomid import proofs

    def broken(node, ctx):
        raise ValueError("internal bug")

    monkeypatch.setattr(proofs, "evaluate", broken)
    script = catalog.script("proof-eq1")
    with pytest.raises(ValueError, match="internal bug"):
        check_step(script, 1, {p: 2 for p in script.params}, window=2)


def test_recognize_substitutes_the_target_once_per_script(catalog, monkeypatch):
    from binomid import proofs

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return substitute(*args, **kwargs)

    substitute = proofs.substitute
    monkeypatch.setattr(proofs, "substitute", counted)
    script = dataclasses.replace(catalog.script("proof-eq1"))  # a fresh object, nothing cached
    envs = small_instances(script, hi=1)[:10]
    assert len(envs) == 10
    report = run_proof_script(script, envs, window=2)
    assert report.ok and report.step_passes[-1] == 10
    assert calls == [script.target.name]


@pytest.mark.parametrize("script_name", ["proof-eq1", "proof-eq2"])
def test_replaced_recognition_map_is_checked_afresh(catalog, script_name):
    script = catalog.script(script_name)
    env = {p: 2 for p in script.params}
    assert run_proof_script(script, [env], window=2).ok  # the original's Recognize half is cached
    last = len(script.steps) - 1
    report = run_proof_script(mutate_step(script, last), [env], window=2)
    assert [(f.step, f.kind, f.message) for f in report.failures] == [
        (last, "Recognize", "final sum is not the substituted chu2gen lhs")
    ]


def test_an_unbound_parameter_fails_its_own_step(catalog):
    # step 1 ends, and step 2 starts, in a state naming w, which the script does not bind
    script = catalog.script("proof-eq1")
    text = script.steps[1].after_text.replace("C(b,d)", "C(b,w)")
    script = _with_after(script, 1, text)
    report = run_proof_script(script, [dict.fromkeys(script.params, 1)], window=2)
    assert [(f.step, f.kind, f.message) for f in report.failures] == [
        (1, "IntegralRep", "EvalError: unbound variable 'w' in expression w")
    ]


def _unrecognizable(script):
    # the last rewrite adds 0: the same value, but no longer `carried * sum`
    return _with_after(script, len(script.steps) - 2, script.steps[-2].after_text + "+0")


def _map_without_m(script):
    return _with_step(script, -1, mapping=tuple(kv for kv in script.steps[-1].mapping if kv[0] != "m"))


def _doubled_subject_rhs(script):
    two = BinomFactor(LinExpr(2), LinExpr(1))
    rhs = dataclasses.replace(script.subject.rhs, factors=script.subject.rhs.factors + (two,))
    return dataclasses.replace(script, subject=dataclasses.replace(script.subject, rhs=rhs))


EQ1_IS_2 = {"b": 2, "c": 1, "d": 1, "n": 2, "p": 1}  # both sides of eq1 are 2 here


@pytest.mark.parametrize("corrupt, env, step, message", [
    (lambda s: _with_step_0_as(s, "1+{}"), EQ1_IS_2, 0, "opening state 3 != subject lhs 2"),
    (_unrecognizable, EQ1_IS_2, 7, "unrecognizable final state: state is not a product"),
    (lambda s: dataclasses.replace(s, carried=parse_term("C(b,c)")), EQ1_IS_2, 7,
     "carried multiplier does not match the script's"),
    (_map_without_m, EQ1_IS_2, 7, "recognition map misses ['m']"),
    (_doubled_subject_rhs, EQ1_IS_2, 7, "substituted rhs times carried multiplier != subject rhs"),
    # outside the script's constraints, where eq1 and chu2gen do not hold
    (None, {"b": -1, "c": 0, "d": -2, "n": -2, "p": 0}, 7, "substituted chu2gen fails at this instance"),
    (None, {"b": -2, "c": 0, "d": 0, "n": -2, "p": -2}, 7, "subject identity fails at this instance"),
], ids=["opening", "unrecognizable", "carried", "map", "rhs", "premise", "subject"])
def test_each_failure_message_names_its_step(catalog, corrupt, env, step, message):
    script = catalog.script("proof-eq1")
    if corrupt is not None:
        script = corrupt(script)
    assert script.steps[step].kind == ("AlgebraicRewrite" if step == 0 else "Recognize")
    if script.admissible(env):
        report = run_proof_script(script, [env], window=2)
        assert [(f.step, f.message) for f in report.failures] == [(step, message)]
    assert check_step(script, step, env, window=2) == message


def test_instances_need_a_range_for_every_parameter(catalog):
    script = catalog.script("proof-eq1")
    with pytest.raises(ValueError, match=r"^ranges missing parameter\(s\) c, n$"):
        script.instances({"b": (0, 1), "d": (0, 1), "p": (0, 1)})
