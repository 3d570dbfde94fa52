import math

import pytest

from binomid import verify
from binomid.catalog import load_builtin
from binomid.model import CompiledIdentity, Identity
from binomid.series import first_difference


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
