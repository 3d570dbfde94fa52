"""Machine-checkable proof scripts for the integral-representation proofs.

A script is an ordered list of expression states with step kinds; adjacent
states share an expression (the `after` of one step is the `before` of the
next). Checking a step means evaluating both states at a concrete parameter
instance inside a truncation window and comparing coefficient tables on the
shared accuracy region. The final Recognize step certifies that the last
state is a substitution instance of a base identity and that the substituted
closed form, times the carried multiplier, reproduces the subject identity's
right-hand side.
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional

from .dsl import parse_linexpr, parse_term
from .model import (
    ConstraintError,
    EvalError,
    Identity,
    LinExpr,
    Substitution,
    Term,
    canonicalize,
    canonicalize_term,
    eval_identity,
    eval_side,
    substitute,
)
from .resexpr import (
    EvalContext,
    RNode,
    evaluate,
    parse_resexpr,
    split_carried_sum,
)
from .series import (
    EngineError,
    LaurentSeries,
    first_difference,
    window_box,
)
from .verify import shard_map

SERIES_VARS = ("x", "y", "z")


@dataclass(frozen=True)
class ProofStep:
    kind: str
    before: RNode
    after: Optional[RNode]
    mapping: tuple[tuple[str, LinExpr], ...] = ()


@dataclass(frozen=True)
class ProofScript:
    name: str
    subject: Identity
    target: Identity
    params: tuple[str, ...]
    aliases: tuple[tuple[str, LinExpr], ...]
    constraints: tuple[LinExpr, ...]
    carried: Term
    steps: tuple[ProofStep, ...]
    budget_hint: LinExpr

    @cached_property
    def recognitions(self) -> tuple:
        """Per step, `_recognition` of a Recognize step, else None; computed on
        first use, so a script made by `dataclasses.replace` computes its own."""
        return tuple(_recognition(self, s) if s.kind == "Recognize" else None for s in self.steps)

    def instance_env(self, env: Mapping[str, int]) -> dict[str, int]:
        full = {p: env[p] for p in self.params}
        for name, expr in self.aliases:
            full[name] = expr.evaluate(full)
        return full

    def admissible(self, env: Mapping[str, int]) -> bool:
        full = self.instance_env(env)
        return all(c.evaluate(full) >= 0 for c in self.constraints)

    def instances(self, ranges: Mapping[str, tuple[int, int]]) -> list[dict[str, int]]:
        missing = [p for p in self.params if p not in ranges]
        if missing:
            raise ValueError(f"ranges missing parameter(s) {', '.join(missing)}")
        spans = [range(ranges[p][0], ranges[p][1] + 1) for p in self.params]
        out = []
        for vals in itertools.product(*spans):
            env = dict(zip(self.params, vals))
            if self.admissible(env):
                out.append(env)
        return out


def load_script(data: dict, resolve: Callable[[str], Identity]) -> ProofScript:
    """Build a ProofScript from its data form; identity names are resolved
    through the catalog. Adjacent steps share an expression by construction:
    each step's before is the previous step's after."""
    aliases = tuple((k, parse_linexpr(v)) for k, v in data.get("aliases", {}).items())
    steps: list[ProofStep] = []
    previous = parse_resexpr(data["start"])
    for raw in data["steps"]:
        kind = raw["kind"]
        if kind == "Recognize":
            mapping = tuple((k, parse_linexpr(v)) for k, v in raw["map"].items())
            steps.append(ProofStep(kind, previous, None, mapping))
            continue
        after = parse_resexpr(raw["after"])
        steps.append(ProofStep(kind, previous, after))
        previous = after
    return ProofScript(
        name=data["name"],
        subject=resolve(data["proves"]),
        target=resolve(data["steps"][-1]["target"]),
        params=tuple(data["params"]),
        aliases=aliases,
        constraints=tuple(parse_linexpr(c) for c in data.get("constraints", [])),
        carried=parse_term(data["carried"]),
        steps=tuple(steps),
        budget_hint=parse_linexpr(data["budget"]),
    )


# ---------------------------------------------------------------------------
# Step checking


def _context(script: ProofScript, env: Mapping[str, int], window: int, memo: dict) -> EvalContext:
    """The instance's context; instances of one budget may share `memo`."""
    full = script.instance_env(env)
    return _context_at(full, script.budget_hint.evaluate(full) + window, window, memo)


def _context_at(full: dict[str, int], m: int, window: int, memo: dict) -> EvalContext:
    """The context at the instance `full` (aliases bound), whose window is
    -m..m in every series variable."""
    return EvalContext(SERIES_VARS, _extent_box(m), max(window, 1), full, {}, memo)


@lru_cache(maxsize=64)
def _extent_box(m: int) -> tuple:
    """The window -m..m in every series variable, as a box; built once per m."""
    return window_box(SERIES_VARS, dict.fromkeys(SERIES_VARS, (-m, m)))


def _difference_message(diff, vars) -> str:
    e, ca, cb = diff
    mono = "*".join(f"{v}^{x}" for v, x in zip(vars, e) if x != 0) or "1"
    return f"first differing coefficient at {mono}: {ca} vs {cb}"


def _check_step_in_context(
    script: ProofScript,
    index: int,
    ctx: EvalContext,
    trace: Optional[Callable[[str, LaurentSeries], None]] = None,
) -> Optional[str]:
    """Check one step of a script at the instance of `ctx`: None if it
    passes, else the failure message.

    Expression steps compare the before/after coefficient tables on the
    intersection of their accuracy windows. Every `EngineError` (an empty
    intersection too) and every `EvalError` (a parameter the script does not
    bind) fails the step. The Recognize step checks the substitution into
    the target identity structurally and numerically.
    """
    step = script.steps[index]
    if step.kind == "Recognize":
        return _check_recognize(script, index, ctx)
    try:
        before = evaluate(step.before, ctx)
        if trace:
            trace(f"step {index} before", before)
        after = evaluate(step.after, ctx)
        if trace:
            trace(f"step {index} after", after)
        diff = first_difference(before, after)
        if diff is not None:
            return _difference_message(diff, ctx.vars)
        opening = before.constant_value() if index == 0 else None
    except (EngineError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if index == 0:
        # tie the script to its subject: the opening state is the identity's lhs
        subject_lhs = eval_side(script.subject.lhs, ctx.env)
        if opening != subject_lhs:
            return f"opening state {opening} != subject lhs {subject_lhs}"
    return None


def _recognition(script: ProofScript, step: ProofStep):
    """The instance-free half of a Recognize check: a failure message, or the
    substituted target and its rhs times the carried multiplier."""
    try:
        carried, final_sum = split_carried_sum(step.before, dict(script.aliases))
    except ValueError as exc:
        return f"unrecognizable final state: {exc}"
    if canonicalize_term(carried) != canonicalize_term(script.carried):
        return "carried multiplier does not match the script's"

    mapping = dict(step.mapping)
    missing = [p for p in script.target.params if p not in mapping]
    if missing:
        return f"recognition map misses {missing}"
    sub = Substitution.of(mapping, script.params)
    specialized = substitute(script.target, sub, f"{script.target.name}-instance")

    # (i) the final sum is structurally the substituted target's lhs
    want = canonicalize(specialized).lhs
    got_ident = Identity("state", script.params, final_sum, Term(None, ()))
    got = canonicalize(got_ident).lhs
    if got != want:
        return f"final sum is not the substituted {script.target.name} lhs"
    # the substituted closed form, its sign included, times the carried multiplier
    rhs = specialized.rhs
    return specialized, Term(rhs.sign_exponent, rhs.factors + script.carried.factors)


def _check_recognize(script: ProofScript, index: int, ctx: EvalContext) -> Optional[str]:
    """Check a Recognize step at one instance: None, or the failure message.
    The split of the final state, the carried-multiplier and map checks, the
    substituted and canonicalized target and its rhs product are cached once
    per ProofScript object (`ProofScript.recognitions`); only the numeric
    checks run per instance, each compiling its identity at the call. A
    premise or subject whose constraints exclude the instance fails the step."""
    prepared = script.recognitions[index]
    if isinstance(prepared, str):
        return prepared
    specialized, product = prepared
    # (ii) substituted closed form times carried multiplier gives the subject rhs
    if eval_side(product, ctx.env) != eval_side(script.subject.rhs, ctx.env):
        return "substituted rhs times carried multiplier != subject rhs"

    # close the argument numerically: premise instance and subject instance hold
    try:
        if not eval_identity(specialized, ctx.env).holds:
            return f"substituted {script.target.name} fails at this instance"
        if not eval_identity(script.subject, ctx.env).holds:
            return "subject identity fails at this instance"
    except ConstraintError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# Whole-script runs


@dataclass(frozen=True)
class StepFailure:
    instance: dict[str, int]
    step: int
    kind: str
    message: str

    def as_json(self) -> dict:
        return {"instance": self.instance, "step": self.step, "kind": self.kind,
                "message": self.message}


@dataclass
class ProofReport:
    script: str
    window: int
    instances: int
    step_kinds: list[str]
    step_passes: list[int]
    failures: list[StepFailure] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self, include_elapsed: bool = True) -> dict:
        out = {
            "script": self.script,
            "window": self.window,
            "instances": self.instances,
            "steps": [
                {"kind": k, "passes": n} for k, n in zip(self.step_kinds, self.step_passes)
            ],
            "failures": [f.as_json() for f in self.failures],
        }
        if include_elapsed:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(include_elapsed=False), sort_keys=True)


def _run_instance(script: ProofScript, env, ctx: EvalContext, trace) -> Optional[StepFailure]:
    """The first failing step at the instance `env` of `ctx`, None if every
    step passes; the instance passed every step before the failing one."""
    for i in range(len(script.steps)):
        message = _check_step_in_context(script, i, ctx, trace)
        if message is not None:
            return StepFailure(dict(env), i, script.steps[i].kind, message)
    return None


_SCRIPTS_KEPT = 4  # scripts a process keeps pickled (parent side) or loaded (worker side)


@lru_cache(maxsize=_SCRIPTS_KEPT)
def _pickled(script: ProofScript) -> bytes:
    """The parent's pickled scripts. Keyed by script equality, which is
    sound: the bytes of either of two equal scripts unpickle to an equal
    script. `pickle` is imported here, as only a sharded run ships scripts."""
    import pickle

    return pickle.dumps(script)


class _Shipped:
    """A script in a worker task: in-process it just holds the object;
    pickled, it is the script's bytes. The bytes are dumped once per script
    (`_pickled`), and each worker loads equal bytes once (`_received`), so a
    script is pickled and unpickled once, not once per task."""

    __slots__ = ("script",)

    def __init__(self, script: ProofScript):
        self.script = script

    def __reduce__(self):
        return _received, (_pickled(self.script),)


@lru_cache(maxsize=_SCRIPTS_KEPT)
def _received(data: bytes) -> _Shipped:
    """The script pickled as `data`. Equal bytes unpickle to an equal
    script, so a cached entry can never stand in for another script."""
    import pickle

    return _Shipped(pickle.loads(data))


def _script_worker(args):
    """One shard's results in shard order: per instance, its first failure
    or None.

    The script arrives as a `_Shipped`. Instances of one budget share a
    window and so one evaluation memo. They are visited in budget order,
    and each memo is dropped when its budget is done; a traced run keeps
    instance order, so its output reads instance by instance.
    """
    shipped, shard, envs, window, trace = args
    script = shipped.script
    fulls = [script.instance_env(env) for env in envs]
    extents = [script.budget_hint.evaluate(full) + window for full in fulls]
    order = range(len(envs))
    if trace is None and len(envs) > 1:
        order = sorted(order, key=extents.__getitem__)
    results = [None] * len(envs)
    memo, extent = None, None
    for i in order:
        if extents[i] != extent:
            memo, extent = {}, extents[i]
        results[i] = _run_instance(script, envs[i], _context_at(fulls[i], extent, window, memo), trace)
    return shard, results


def run_proof_script(
    script: ProofScript,
    instances,
    window: int = 2,
    jobs: int = 1,
    trace: Optional[Callable[[str, LaurentSeries], None]] = None,
) -> ProofReport:
    """Check every step of a script at every instance.

    Instances are independent; checking stops at the first failing step per
    instance and the report merges results in instance order. Every way a
    step can fail is a failure of that step in the report; only a bug
    raises. A run with a trace callback stays in-process, since callbacks
    do not pickle.
    """
    started = time.perf_counter()
    instances = list(instances)
    shipped = _Shipped(script)
    chunks = shard_map(
        _script_worker,
        len(instances),
        1 if trace is not None else jobs,
        lambda shard: (shipped, shard, [instances[i] for i in shard], window, trace),
    )
    results = [None] * len(instances)
    for shard, shard_results in chunks:
        results[shard.start::shard.step] = shard_results
    failures = [f for f in results if f is not None]
    passes = [len(instances)] * len(script.steps)
    for failure in failures:
        for i in range(failure.step, len(passes)):
            passes[i] -= 1
    elapsed = int((time.perf_counter() - started) * 1000)
    return ProofReport(
        script.name,
        window,
        len(instances),
        [s.kind for s in script.steps],
        passes,
        failures,
        elapsed,
    )
