"""Per-layer tracing of binomid, installed from outside the package.

The tracer replaces public functions and `LaurentSeries` methods with
wrappers that time each call. A `from .arith import binomial` style import
copies the function object into the importing module, so every module
attribute that *is* the original function gets rebound, not just the
defining one; otherwise calls through the copies would go uncounted.

The one exception is `resexpr.evaluate`: it recurses through its own module
global, so only the name imported into `proofs` is wrapped. That sees the
top-level state evaluations of proof steps, which are attributed to step
kinds by node and call order (see `_ProofClock`).

Every wrapper keeps a stack frame; a frame's self time is its duration
minus the time its wrapped children cover. Hot calls (binomial and the
series engine) are only aggregated. Spans of the coarse calls (entry
points, model functions, top-level evaluations and proof steps) are kept
in memory and written out by `write_spans` when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from binomid import arith, catalog, dsl, model, proofs, resexpr, series, verify

_now = time.perf_counter

# (module, attribute, span name). Aggregated only, no span kept.
HOT = (
    (arith, "binomial", "arith.binomial"),
    (series, "geometric_collapse", "series.geometric_collapse"),
    (series, "res", "series.res"),
    (series, "residue_eval_simple_pole", "series.residue_eval_simple_pole"),
    (series, "first_difference", "series.first_difference"),
)
COARSE = (
    (verify, "verify_grid", "verify.verify_grid"),
    (catalog, "load_builtin", "catalog.load_builtin"),
    (catalog, "check_specialization", "catalog.check_specialization"),
    (dsl, "parse_catalog", "dsl.parse_catalog"),
    (resexpr, "parse_resexpr", "resexpr.parse_resexpr"),
    (model, "substitute", "model.substitute"),
    (model, "canonicalize", "model.canonicalize"),
    (model, "apply_chain", "model.apply_chain"),
    (model, "structurally_equal", "model.structurally_equal"),
    (model, "eval_identity", "model.eval_identity"),
    (model, "eval_side", "model.eval_side"),
)
SERIES_METHODS = (
    ("__init__", "series.construct"),
    ("__mul__", "series.mul"),
    ("__add__", "series.add"),
    ("pow", "series.pow"),
    ("clipped", "series.clipped"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost calls only, so recursion is not double counted
        self.self_time = 0.0


class _ProofClock:
    """Splits serial `run_proof_script` calls into proof-step intervals.

    Within one instance (one `EvalContext`), expression step i evaluates its
    before-state and then its after-state, so the k-th top-level evaluation
    belongs to step k // 2. A step runs from the start of its first
    evaluation to the last wrapped exit before the next step starts; the
    final Recognize step runs from the exit of the last expression step's
    `first_difference` to the last wrapped exit of the instance. Whatever
    falls between steps (context set-up, report assembly) is unattributed.
    """

    def __init__(self, tracer: "Tracer", script):
        self.tracer = tracer
        self.kinds = [s.kind for s in script.steps]
        self.n_expr = sum(1 for k in self.kinds if k != "Recognize")
        self.ctx = None
        self.evals = 0
        self.step = None
        self.start = 0.0

    def _close(self):
        if self.step is not None:
            self.tracer.add_step(self.kinds[self.step], self.start, self.tracer.last_exit)
            self.step = None

    def on_evaluate(self, ctx, t0):
        if ctx is not self.ctx:
            self._close()
            self.ctx, self.evals = ctx, 0
        if self.evals % 2 == 0:
            self._close()
            self.step, self.start = self.evals // 2, t0
        self.evals += 1

    def on_first_difference(self, t1):
        last = self.n_expr - 1
        if self.step == last and self.evals == 2 * self.n_expr and last + 1 < len(self.kinds):
            self.tracer.add_step(self.kinds[last], self.start, t1)
            self.step, self.start = last + 1, t1

    def finish(self):
        self._close()


class Tracer:
    """Installs wrappers on `install` and restores the originals on `remove`."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.steps: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [name, start, child_time]
        self.active: dict[str, int] = defaultdict(int)
        self.last_exit = 0.0
        self.proof: _ProofClock | None = None
        self._restore: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------------

    def _enter(self, name):
        t0 = _now()
        self.stack.append([name, t0, 0.0])
        self.active[name] += 1
        return t0

    def _exit(self, keep_span):
        t1 = _now()
        name, t0, child = self.stack.pop()
        duration = t1 - t0
        stat = self.stats[name]
        stat.calls += 1
        stat.self_time += duration - child
        self.active[name] -= 1
        if not self.active[name]:
            stat.total += duration
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][0]
        if keep_span:
            self.spans.append((name, t0, t1, parent))
        self.last_exit = t1
        return t1

    def add_step(self, kind, start, end):
        self.steps[kind] += end - start
        self.spans.append((f"proofs.step.{kind}", start, end, "proofs.run_proof_script"))

    def reset(self):
        """Drop the aggregates measured so far; kept spans stay."""
        self.stats.clear()
        self.counters.clear()
        self.steps.clear()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name, keep_span, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tracer._exit(keep_span)
            if after is not None:
                after(args, result, t1)
            return result

        return wrapper

    def _rebind(self, original, wrapper, modules=None):
        if modules is None:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "binomid" or n.startswith("binomid."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        for module, attr, name in HOT:
            fn = getattr(module, attr)
            after = self._after_first_difference if attr == "first_difference" else None
            self._rebind(fn, self._wrap(fn, name, False, after=after))
        for module, attr, name in COARSE:
            fn = getattr(module, attr)
            self._rebind(fn, self._wrap(fn, name, True))

        cls = series.LaurentSeries
        hooks = {
            "__init__": (None, self._after_construct),
            "__mul__": (self._before_mul, None),
            "pow": (self._before_pow, None),
            "clipped": (self._before_clipped, self._after_clipped),
        }
        for attr, name in SERIES_METHODS:
            fn = cls.__dict__[attr]
            before, after = hooks.get(attr, (None, None))
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, False, before, after))

        fn = proofs.evaluate
        self._rebind(fn, self._wrap(fn, "resexpr.evaluate", True, before=self._before_evaluate),
                     modules=[proofs])
        fn = proofs.run_proof_script
        self._rebind(fn, self._wrap_run_proof_script(fn))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_run_proof_script(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(script, instances, window=2, jobs=1, trace=None):
            serial = jobs <= 1
            if serial:
                tracer.proof = _ProofClock(tracer, script)
            t0 = tracer._enter("proofs.run_proof_script")
            try:
                return fn(script, instances, window, jobs, trace)
            finally:
                if serial:
                    tracer.proof.finish()
                    tracer.proof = None
                t1 = tracer._exit(True)
                if serial:
                    tracer.counters["proofs.serial_s"] += t1 - t0

        return wrapper

    # -- hooks -------------------------------------------------------------------

    def _after_construct(self, args, _result, _t1):
        size = len(args[0].coeffs)
        if size > self.counters["series.max_terms"]:
            self.counters["series.max_terms"] = size

    def _before_mul(self, args, _kwargs):
        self.counters["series.mul.pairs"] += len(args[0].coeffs) * len(args[1].coeffs)

    def _before_pow(self, args, kwargs):
        e = args[1] if len(args) > 1 else kwargs["e"]
        if e < 0:
            self.counters["series.pow.neg_calls"] += 1

    def _before_clipped(self, args, _kwargs):
        self.counters["series.clipped.in"] += len(args[0].coeffs)

    def _after_clipped(self, _args, result, _t1):
        self.counters["series.clipped.kept"] += len(result.coeffs)

    def _before_evaluate(self, args, _kwargs):
        node, ctx = args
        if ctx.cache is not None and node in ctx.cache:
            self.counters["resexpr.evaluate.cache_hits"] += 1
        if self.proof is not None:
            self.proof.on_evaluate(ctx, _now())

    def _after_first_difference(self, _args, _result, t1):
        if self.proof is not None:
            self.proof.on_first_difference(t1)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path, record: dict) -> None:
        """Write the kept spans as JSON lines, after a header with the run record."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": record}, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
