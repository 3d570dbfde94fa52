"""The compiled identity evaluator against a tree-walking oracle.

The oracle walks the AST directly, evaluating every affine expression from
the environment dictionary. It is the evaluator binomid used before the
compiled one became the only one, kept here as an independent reference.
"""
import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomid.arith import binomial
from binomid.dsl import parse_identity
from binomid.model import (
    CompiledIdentity,
    ConstraintError,
    EvalError,
    SumExpr,
    Term,
    eval_identity,
    eval_side,
)

from conftest import constraints_satisfied
from test_dsl import identities, linexprs


def oracle_term(t: Term, env) -> int:
    # no early exit on zero, so unbound variables surface whatever the values
    value = 1
    for f in t.factors:
        value *= binomial(f.upper.evaluate(env), f.lower.evaluate(env))
    if t.sign_exponent is not None and t.sign_exponent.evaluate(env) % 2 == 1:
        value = -value
    return value


def oracle_side(side, env) -> int:
    if isinstance(side, Term):
        return oracle_term(side, env)
    inner = dict(env)
    total = 0
    for k in range(side.lower.evaluate(env), side.upper.evaluate(env) + 1):
        inner[side.bound_var] = k
        total += oracle_term(side.body, inner)
    return total


def oracle_constraints_satisfied(ident, env) -> bool:
    bv = ident.bound_var()
    pointwise = []
    for c in ident.constraints:
        if bv is not None and bv in c.variables():
            pointwise.append(c)
        elif c.evaluate(env) < 0:
            return False
    if pointwise and isinstance(ident.lhs, SumExpr):
        inner = dict(env)
        for k in range(ident.lhs.lower.evaluate(env), ident.lhs.upper.evaluate(env) + 1):
            inner[bv] = k
            if any(c.evaluate(inner) < 0 for c in pointwise):
                return False
    return True


def oracle_identity(ident, env):
    for p in ident.params:
        if p not in env:
            raise EvalError(p)
    if not oracle_constraints_satisfied(ident, env):
        raise ConstraintError(ident.name)
    return oracle_side(ident.lhs, env), oracle_term(ident.rhs, env)


def outcome(fn, *args):
    """The value of fn(*args), or the class of the binomid error it raises."""
    try:
        return fn(*args)
    except (EvalError, ConstraintError) as exc:
        return type(exc)


@st.composite
def cases(draw):
    """An identity and small values of either sign, one parameter sometimes unbound.

    Sums also get constraints over the bound variable, which must hold at
    every index of the summation range.
    """
    ident = draw(identities())
    if isinstance(ident.lhs, SumExpr):
        pointwise = draw(st.lists(linexprs(ident.params + ("k",)), max_size=2))
        ident = dataclasses.replace(ident, constraints=ident.constraints + tuple(pointwise))
    env = {p: draw(st.integers(-3, 3)) for p in ident.params}
    if draw(st.integers(0, 9)) == 9:
        del env[draw(st.sampled_from(ident.params))]
    return ident, env


# a constraint on the bound variable that fails only at the top of the range
TOP_INDEX = parse_identity("identity t params(n) require n-1-k>=0 :: sum(k,0,n)[C(n,k)] == C(2,n)")


@settings(max_examples=200, deadline=None)
@given(cases())
@example((TOP_INDEX, {"n": 2}))
def test_compiled_evaluator_agrees_with_tree_walk(case):
    ident, env = case
    want = outcome(oracle_identity, ident, env)
    got = outcome(eval_identity, ident, env)
    if isinstance(want, tuple):
        assert (got.lhs, got.rhs) == want
    else:
        assert got is want
    # the sides also agree outside the verified domain; a side that names an
    # unbound variable is an error even where the walk skips it (empty sums)
    for side, oracle in ((ident.lhs, oracle_side), (ident.rhs, oracle_term)):
        if side.variables() - env.keys():
            assert outcome(eval_side, side, env) is EvalError
        else:
            assert eval_side(side, env) == oracle(side, env)
    if all(p in env for p in ident.params):
        assert constraints_satisfied(ident, env) == oracle_constraints_satisfied(ident, env)


# The generated source names parameters only by slot; these names shadow what
# it does use (builtins, its locals, its memo and the slot names themselves).
ODD_NAMES = ("range", "lhs", "v0", "binomial", "cache", "t")
# sorted alike (and before the bound variable z), so each LinExpr lists its
# terms in the same order
NEUTRAL_NAMES = tuple(f"xq{sorted(ODD_NAMES).index(name)}" for name in ODD_NAMES)
ODD_TEMPLATE = (
    "identity odd params({0}, {1}, {2}, {3}, {4}, {5}) require {1}-{2}>=0, {0}-z>=0 :: "
    "sum(z,{5},{1})[(-1)^(z+{4})*C({1},z)*C({0}+z,{3})*C({2},z-{5})] == (-1)^({0})*C({2}+{5},{0})"
)


def evaluated(ident, env):
    """eval_identity's (lhs, rhs), or the class of the binomid error it raises."""
    got = outcome(eval_identity, ident, env)
    return got if isinstance(got, type) else (got.lhs, got.rhs)


def test_parameter_names_never_reach_the_source():
    odd = parse_identity(ODD_TEMPLATE.format(*ODD_NAMES))
    neutral = parse_identity(ODD_TEMPLATE.format(*NEUTRAL_NAMES))
    source = CompiledIdentity(odd).source
    assert source == CompiledIdentity(neutral).source
    assert not any(name in source for name in NEUTRAL_NAMES)
    for point in itertools.product(range(-1, 3), repeat=len(ODD_NAMES)):
        env = dict(zip(ODD_NAMES, point))
        assert evaluated(odd, env) == outcome(oracle_identity, odd, env)
        assert constraints_satisfied(odd, env) == oracle_constraints_satisfied(odd, env)
        assert eval_side(odd.lhs, env) == oracle_side(odd.lhs, env)


def test_terms_with_many_factors():
    # one statement per factor at one indentation level: no nesting limit
    factors = "*".join(f"C(n+{i},k)" for i in range(120))
    ident = parse_identity(f"identity wide params(n) :: sum(k,0,n)[{factors}] == {factors.replace('k', 'n')}")
    for n in range(-2, 4):
        env = {"n": n}
        assert evaluated(ident, env) == outcome(oracle_identity, ident, env)
        assert eval_side(ident.rhs, env) == oracle_term(ident.rhs, env)


def test_unbound_name_raises_at_every_compile():
    side = parse_identity("identity u params(n, q) :: C(n,q) == C(n,n-q)").lhs
    for _ in range(2):  # a failed compile is not cached
        with pytest.raises(EvalError, match="'q'"):
            eval_side(side, {"n": 2})
    assert eval_side(side, {"n": 2, "q": 1}) == 2
