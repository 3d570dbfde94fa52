import itertools
import json
import math
from importlib import resources

import pytest
from hypothesis import settings

from binomid import proofs, verify
from binomid.catalog import load_builtin
from binomid.model import CompiledIdentity, Identity
from binomid.resexpr import EvalContext, evaluate, parse_resexpr
from binomid.series import first_difference

# a long random run of the state-text property in test_resexpr.py, outside tier-1
settings.register_profile("fuzz-long", max_examples=5_000, deadline=None)


@pytest.fixture(scope="session")
def catalog():
    return load_builtin()


@pytest.fixture
def own_workers(monkeypatch):
    """A worker pool of the test's own, empty at the start, shut down at the
    end, so that no pool another test started is reused."""
    workers = verify._Workers()
    monkeypatch.setattr(verify, "_WORKERS", workers)
    yield workers
    workers.close()


class RecordingPool:
    """Stands in for the pool `_Workers.start` makes: records its size, maps
    in-process."""

    made: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        self.closed = False
        RecordingPool.made.append(self)

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)

    def shutdown(self):
        self.closed = True


@pytest.fixture
def recording_pool(monkeypatch, own_workers):
    """Every pool shard_map starts is a RecordingPool."""
    RecordingPool.made = []
    monkeypatch.setattr(own_workers, "start", RecordingPool)


def state_texts(name):
    """A shipped proof script's state texts as its data file writes them: the
    start, then each step's `after`; text i is the state step i starts from."""
    data = resources.files("binomid").joinpath("data", name.replace("-", "_") + ".json")
    script = json.loads(data.read_text(encoding="utf-8"))
    return [script["start"]] + [step["after"] for step in script["steps"] if "after" in step]


def comb_oracle(n: int, k: int) -> int:
    """Independent generalized binomial: math.comb plus upper negation.

    Deliberately a different algorithm from the kernel's product formula.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def series_equal(a, b) -> bool:
    """No coefficient that both series know differs."""
    return first_difference(a, b) is None


def series_expand(text, window, env=None):
    """A formal expression expanded into a LaurentSeries, exact in the window."""
    ctx = EvalContext(tuple(window), dict(window), 2, dict(env or {}), {})
    return evaluate(parse_resexpr(text), ctx)


def check_step(script, index, instance, window):
    """Step `index` of a script checked at one instance, with a memo of its own."""
    ctx = proofs._context(script, instance, window, {})
    return proofs._check_step_in_context(script, index, ctx)


def apply_env(substitution, env) -> dict:
    """The parent environment a substitution induces from a target environment."""
    return {name: image.evaluate(env) for name, image in substitution.mapping}


def constraints_satisfied(ident, env) -> bool:
    """The compiled evaluator's verdict on ident's constraints at env: every
    recorded constraint is >= 0, one on the bound variable at every index of
    the summation range (vacuously for an empty sum)."""
    names = tuple(env)
    compiled = CompiledIdentity(Identity(ident.name, names, ident.lhs, ident.rhs, ident.constraints))
    return compiled.admissible([env[n] for n in names])


def grid_verdicts(compiled, ranges) -> list:
    """Each point of the grid of inclusive ranges in flat order (last
    parameter fastest), with `evaluate`'s (lhs, rhs) there, or with None
    where `admissible` rejects it."""
    axes = [range(lo, hi + 1) for lo, hi in ranges]
    return [(list(point), compiled.evaluate(point) if compiled.admissible(point) else None)
            for point in itertools.product(*axes)]


def walk_reference(verdicts, j, w):
    """What `CompiledIdentity.walk(ranges, j, w)` returns, from the grid's
    verdicts: the points whose flat index is j modulo w, as the number
    admitted and the failing ones."""
    kept = [(point, sides) for point, sides in verdicts[j::w] if sides is not None]
    return len(kept), [(point, *sides) for point, sides in kept if sides[0] != sides[1]]
