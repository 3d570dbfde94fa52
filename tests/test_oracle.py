"""Every proof state against an evaluator that shares no code with the engine.

The oracle reuses only the expression parser and its node classes. A
Laurent polynomial is a plain dict from (x, y, z) exponents to exact
numbers; binomials come from `comb_oracle`. There is no accuracy box, no
window, no memo and no closed-form power. Each product drops the monomials
of total degree above N. A negative power expands the geometric series of
its base about the base's lowest-degree term, and `geo` sums its first N + 1
powers. `isum` is summed N terms past its declared bound, so a tail that
does not vanish changes the value. Every value is computed at N and again at
N + 3, and the two must agree, so the truncation checks itself.

Every state is a number at the root. The engine's root value of every state
must equal the oracle's, and the oracle ties the chain to the identity it
proves: the opening state equals the subject's lhs and the final state its
rhs. A corrupted expression step must fail exactly where the oracle's values
of the two states it joins differ; a corrupted Recognize map fails everywhere,
since that step also checks the form of the final sum.
"""
import random
from fractions import Fraction

import pytest

from binomid.model import SumExpr
from binomid.proofs import SERIES_VARS, _context, run_proof_script
from binomid.resexpr import (RAdd, RBinom, RGeo, RInt, RISum, RPow, RProd, RRes, RSum, RVar, evaluate,
                             parse_resexpr)

from conftest import comb_oracle
from test_proofs import mutate_step

SCRIPTS = ("proof-eq1", "proof-eq2")
DEGREE = 10  # N; every value is computed again at N + 3
ORIGIN = (0, 0, 0)


def _lin(e, env) -> int:
    return e.const + sum(c * env[v] for v, c in e.coeffs)


class Oracle:
    """Naive truncated Laurent polynomials in x, y and z, giving up after
    `budget` coefficient products: a `geo` over terms of total degree 0 or
    less is never truncated, so nested ones grow without bound (one text
    took minutes)."""

    def __init__(self, degree: int, budget: int = 100_000):
        self.degree = degree
        self.budget = budget

    def mul(self, a, b, limit=None):
        self.budget -= len(a) * len(b)
        if self.budget < 0:
            raise OverflowError("oracle budget spent")
        limit = self.degree if limit is None else limit
        out = {}
        for (a0, a1, a2), c1 in a.items():
            for (b0, b1, b2), c2 in b.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                if e[0] + e[1] + e[2] <= limit:
                    out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    def add(self, a, b, sign=1):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + sign * c
        return {e: c for e, c in out.items() if c}

    def inverse(self, base):
        """1/base as base's lowest-degree term t times the geometric series in
        1 - base/t, whose terms must all have positive degree."""
        (low, c0), *rest = sorted(base.items(), key=lambda item: (sum(item[0]), item[0]))
        shift = sum(low)
        inv = c0 if c0 in (1, -1) else Fraction(1, c0)
        u = {tuple(x - y for x, y in zip(e, low)): -c * inv for e, c in rest}
        assert all(sum(e) >= 1 for e in u), f"no expansion of 1/({base}) about its lowest term"
        # after the shift by 1/t the series is cut at degree N
        limit = self.degree + shift
        total, power = {ORIGIN: 1}, {ORIGIN: 1}
        for _ in range(max(limit, 0)):
            power = self.mul(power, u, limit)
            total = self.add(total, power)
        return {tuple(x - y for x, y in zip(e, low)): c * inv for e, c in total.items()
                if sum(e) <= limit}

    def power(self, base, e: int):
        if e < 0:
            base, e = self.inverse(base), -e
        out = {ORIGIN: 1}
        for _ in range(e):
            out = self.mul(out, base)
        return out

    def value(self, node, env):
        if isinstance(node, RInt):
            return {ORIGIN: node.value} if node.value else {}
        if isinstance(node, RVar):
            return {tuple(int(v == node.name) for v in SERIES_VARS): 1}
        if isinstance(node, RBinom):
            c = comb_oracle(_lin(node.upper, env), _lin(node.lower, env))
            return {ORIGIN: c} if c else {}
        if isinstance(node, RPow):
            return self.power(self.value(node.base, env), _lin(node.exponent, env))
        if isinstance(node, RProd):
            out = {ORIGIN: 1}
            for f in node.factors:
                out = self.mul(out, self.value(f, env))
            return out
        if isinstance(node, RAdd):
            out = {}
            for sign, t in node.terms:
                out = self.add(out, self.value(t, env), sign)
            return out
        if isinstance(node, (RSum, RISum)):
            if isinstance(node, RSum):
                ks = range(_lin(node.lower, env), _lin(node.upper, env) + 1)
            else:
                ks = range(0, max(_lin(node.bound, env), -1) + 1 + self.degree)
            out = {}
            for k in ks:
                out = self.add(out, self.value(node.body, {**env, node.var: k}))
            return out
        if isinstance(node, RRes):
            i = SERIES_VARS.index(node.var)
            body = self.value(node.body, env)
            return {e[:i] + (0,) + e[i + 1:]: c for e, c in body.items() if e[i] == -1}
        if isinstance(node, RGeo):
            ratio = self.value(node.body, env)
            total, power = {ORIGIN: 1}, {ORIGIN: 1}
            for _ in range(self.degree):
                power = self.mul(power, ratio)
                total = self.add(total, power)
            return total
        raise TypeError(node)


_VALUES = {}


def oracle_value(node, env):
    """The state's value at env, the same at N and N + 3, with no term but the constant."""
    key = (node, tuple(sorted(env.items())))
    if key not in _VALUES:
        low, high = (Oracle(n).value(node, env) for n in (DEGREE, DEGREE + 3))
        assert low == high, f"truncation at {DEGREE} is too low for {node} at {env}"
        assert set(low) <= {ORIGIN}, f"{node} at {env} is not a number: {low}"
        _VALUES[key] = low.get(ORIGIN, 0)
    return _VALUES[key]


def test_the_oracle_gives_up_after_its_budget():
    # nested geos over terms of total degree 0: without the budget, minutes
    node = parse_resexpr("res(x)[res(y)[res(z)[x^(-2)*y^(-1)*z^(0)*(geo[geo[((x)*(z))*(geo[(z)^(-2)])]])]]]")
    with pytest.raises(OverflowError, match="^oracle budget spent$"):
        oracle_value(node, {})


def side_value(side, env) -> int:
    """A catalog side summed with `comb_oracle`."""
    if isinstance(side, SumExpr):
        ks = range(_lin(side.lower, env), _lin(side.upper, env) + 1)
        return sum(side_value(side.body, {**env, side.bound_var: k}) for k in ks)
    value = 1 if side.sign_exponent is None else (-1) ** (_lin(side.sign_exponent, env) % 2)
    for f in side.factors:
        value *= comb_oracle(_lin(f.upper, env), _lin(f.lower, env))
    return value


def states(script):
    return [script.steps[0].before] + [s.after for s in script.steps if s.after is not None]


def instances(script):
    """Every instance over 0..1 and a seeded sample over 0..2."""
    small = script.instances({p: (0, 1) for p in script.params})
    wide = [env for env in script.instances({p: (0, 2) for p in script.params}) if env not in small]
    return small + random.Random(f"oracle {script.name}").sample(wide, 4)


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_state_equals_the_oracle(catalog, name):
    script = catalog.script(name)
    for env in instances(script):
        full = script.instance_env(env)
        ctx = _context(script, env, 2, {})
        values = [oracle_value(node, full) for node in states(script)]
        assert [evaluate(node, ctx).constant_value() for node in states(script)] == values, env
        assert values[0] == side_value(script.subject.lhs, full), env
        assert values[-1] == side_value(script.subject.rhs, full), env


@pytest.mark.parametrize("name", SCRIPTS)
def test_a_corrupted_step_fails_where_the_oracle_values_differ(catalog, name):
    script = catalog.script(name)
    envs = instances(script)[::4]
    chain = states(script)
    for idx, step in enumerate(script.steps):
        mutated = mutate_step(script, idx)
        failed = {tuple(f.instance.items()): f.step for f in run_proof_script(mutated, envs).failures}
        differ = []
        for env in envs:
            full = script.instance_env(env)
            if step.after is not None:
                differ.append(oracle_value(chain[idx], full) != oracle_value(mutated.steps[idx].after, full))
            else:
                # the recognized form: the carried multiplier times the target's lhs under the map
                target = {**full, **{p: _lin(e, full) for p, e in mutated.steps[idx].mapping}}
                recognized = side_value(script.carried, full) * side_value(script.target.lhs, target)
                differ.append(oracle_value(chain[idx], full) != recognized)
        if step.after is None:
            # Recognize compares the final sum's form with the mapped target's, so a
            # corrupted map fails it at every instance, also where the values agree
            assert any(differ)
            differ = [True] * len(envs)
        assert [failed.get(tuple(env.items())) for env in envs] == [
            idx if d else None for d in differ], idx
