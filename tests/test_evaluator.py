"""The compiled identity evaluator against a tree-walking oracle.

The oracle walks the AST directly, evaluating every affine expression from
the environment dictionary. It is the evaluator binomid used before the
compiled one became the only one, kept here as an independent reference.
"""
import dataclasses
import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomid import model
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

from conftest import constraints_satisfied, grid_verdicts, walk_reference
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


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(1, 4))
def test_walk_agrees_with_the_point_loop(case, w):
    # sums and plain terms, signs and constraints (some on the bound variable)
    # at every loop level, over a grid whose last axis is narrower than w = 4
    ident, _ = case
    ranges = [(-2, 1)] * (len(ident.params) - 1) + [(-1, 1)]
    compiled = CompiledIdentity(ident)
    verdicts = grid_verdicts(compiled, ranges)
    assert [compiled.walk(ranges, j, w) for j in range(w)] == [walk_reference(verdicts, j, w) for j in range(w)]


def test_walk_over_no_parameters():
    # one point, in shard 0; a constraint without variables can fail there
    for constraints, checked in (((), 1), ((model.LinExpr(-1),), 0)):
        ident = model.Identity("z", (), Term(), Term(None, (model.BinomFactor(model.LinExpr(2), model.ONE),)),
                               constraints)
        compiled = CompiledIdentity(ident)
        want = (checked, [([], 1, 2)] * checked)
        assert [compiled.walk([], j, 2) for j in range(2)] == [want, (0, [])]


# The generated source names parameters only by slot; these names shadow what
# it does use (builtins, its locals, its memo, a hoisted row and the slot
# names themselves).
ODD_NAMES = ("range", "lhs", "v0", "binomial", "cache", "t", "r0")
# sorted alike (and before the bound variable z), so each LinExpr lists its
# terms in the same order
NEUTRAL_NAMES = tuple(f"xq{sorted(ODD_NAMES).index(name)}" for name in ODD_NAMES)
ODD_TEMPLATE = (
    "identity odd params({0}, {1}, {2}, {3}, {4}, {5}, {6}) require {1}-{2}>=0, {0}-z>=0 :: "
    "sum(z,{5},{1})[(-1)^(z+{4})*C({1},z)*C({0}+z,{3})*C({2},z-{5})*C({6},{3}-z)] "
    "== (-1)^({0})*C({2}+{5},{0})"
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


# The bound variable k in the upper argument only, in the lower only, in both
# and in neither; two factors share the row of n; the range is empty where m > n+p.
HOISTED = parse_identity(
    "identity h params(n, m, p) :: "
    "sum(k,m,n+p)[(-1)^(k+p)*C(n,k)*C(k+m,p)*C(n+k,k-m)*C(m-p,n)*C(n,k-1)] == C(n,m)*C(m,p)"
)
SMALL = [dict(zip(("n", "m", "p"), point)) for point in itertools.product(range(-3, 4), repeat=3)]


def test_rows_fixed_in_the_loop_are_fetched_once_before_it():
    source = CompiledIdentity(HOISTED).source
    assert "r0 = cache[v0]" in source and "r1 = cache[v1 - v2]" in source
    assert "r2" not in source
    assert any(env["m"] > env["n"] + env["p"] for env in SMALL)
    for env in SMALL:
        assert evaluated(HOISTED, env) == outcome(oracle_identity, HOISTED, env)
        assert eval_side(HOISTED.lhs, env) == oracle_side(HOISTED.lhs, env)


def looked_up(t: Term, env, short_circuit: bool) -> list:
    """The (n, k) pairs a term's factors name, up to its first zero factor if short_circuit."""
    pairs = []
    for f in t.factors:
        pairs.append((f.upper.evaluate(env), f.lower.evaluate(env)))
        if short_circuit and binomial(*pairs[-1]) == 0:
            break
    return pairs


def test_a_rebound_binomial_sees_each_needed_pair_once(monkeypatch):
    seen = []

    def counted(n, k):
        seen.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(model, "binomial", counted)
    compiled = CompiledIdentity(HOISTED)
    supported, needed, named = set(), set(), set()
    for env in SMALL:
        compiled.evaluate([env["n"], env["m"], env["p"]])
        terms = [(HOISTED.rhs, env)] + [(HOISTED.lhs.body, {**env, "k": k})
                                       for k in range(env["m"], env["n"] + env["p"] + 1)]
        for t, at in terms:
            pairs = looked_up(t, at, False)
            needed.update(looked_up(t, at, True))
            named.update(pairs)
            if all(binomial(*pair) for pair in pairs):
                supported.update(pairs)
    assert len(seen) == len(set(seen))
    # every pair of a nonzero term is computed; none after a zero factor or
    # outside the declared range, and the clamp skips some zero terms whole
    assert supported <= set(seen) < needed
    assert needed < named  # some pairs are named only after a zero factor


def counting_evaluate(ident):
    """The `evaluate` of ident's generated source, run with a `range` that
    adds the number of indices each summation loop visits to visits[0]."""
    visits = [0]

    def counted_range(lo, stop):
        visits[0] += max(0, stop - lo)
        return range(lo, stop)

    namespace = {"cache": model._Memo(lambda n: model._Memo(functools.partial(binomial, n))),
                 "range": counted_range}
    exec(CompiledIdentity(ident).source, namespace)
    return namespace["evaluate"], visits


def support_size(s: SumExpr, env) -> int:
    """The number of indices of the declared range where no factor is 0."""
    return sum(
        all(binomial(f.upper.evaluate(at), f.lower.evaluate(at)) for f in s.body.factors)
        for at in ({**env, s.bound_var: k} for k in range(s.lower.evaluate(env), s.upper.evaluate(env) + 1))
    )


# Each sum is clamped by the zero set of its factors: lower arguments whose
# bound-variable coefficient is +-2 or +-3, and the bound variable in both
# arguments with equal and unequal coefficients. Over -4..4 the declared
# ranges are empty at some points (c4's wherever m > n + 1), upper arguments
# go negative, and the clamp empties some ranges the declared bounds leave whole.
CLAMPED = [parse_identity(text) for text in (
    "identity c1 params(n, m, p) :: sum(k,m-4,n+1)[C(n,2*k-m)*C(p,3*k+m)] == C(n,m)",
    "identity c2 params(n, m, p) :: sum(k,-5,n+p)[C(n,m-2*k)*C(p,n-3*k)*C(m,k+p)] == C(n,p)",
    "identity c3 params(n, m, p) :: sum(k,-4,4)[(-1)^(k)*C(n+k,k-m)*C(m-2*k,p-2*k)*C(2*k+n,k+m)] == C(m,p)",
    "identity c4 params(n, m, p) :: sum(k,m,n+1)[C(m-k,2*k-n)*C(n-3*k,p-k)*C(k-n,3*k-m)] == C(p,n)",
    "identity c5 params(n, m, p) :: sum(k,n-p,m+p)[C(3*k+p,2*k)*C(p-k,n)*C(k,m)] == C(n+m,p)",
)]
# a constraint on the bound variable that fails only at k = n, where
# C(n-1, k) is 0 once n >= 1: the clamp drops that index, admissible does not
TOP_ZERO = parse_identity("identity z params(n) require n-1-k>=0 :: sum(k,0,n)[C(n-1,k)] == C(2,n-1)")


@pytest.mark.parametrize("ident", CLAMPED + [TOP_ZERO], ids=lambda ident: ident.name)
def test_clamped_loops_agree_with_tree_walk(ident):
    evaluate, visits = counting_evaluate(ident)
    narrowed = emptied = 0
    for point in itertools.product(range(-4, 5), repeat=len(ident.params)):
        env = dict(zip(ident.params, point))
        assert evaluated(ident, env) == outcome(oracle_identity, ident, env)
        before = visits[0]
        assert evaluate(list(point))[0] == oracle_side(ident.lhs, env)
        declared = ident.lhs.upper.evaluate(env) - ident.lhs.lower.evaluate(env) + 1
        narrowed += visits[0] - before < declared
        emptied += declared > 0 and visits[0] == before
    assert narrowed and (emptied or ident is TOP_ZERO)


def test_a_constraint_on_the_bound_variable_holds_where_the_clamp_cuts():
    evaluate, visits = counting_evaluate(TOP_ZERO)
    assert evaluate([2]) == (2, 2) and visits[0] == 2  # k = 0, 1 of 0..2
    assert outcome(eval_identity, TOP_ZERO, {"n": 2}) is ConstraintError


def loop_visits(catalog, lo, hi) -> tuple[int, int]:
    """The indices the catalog's summation loops visit over [lo, hi]^params,
    and the indices where no factor is 0."""
    visited = supported = 0
    for ident in catalog.identities.values():
        evaluate, visits = counting_evaluate(ident)
        for point in itertools.product(range(lo, hi + 1), repeat=len(ident.params)):
            evaluate(list(point))
            supported += support_size(ident.lhs, dict(zip(ident.params, point)))
        visited += visits[0]
    return visited, supported


def test_sum_loops_visit_little_more_than_the_support(catalog):
    visited, supported = loop_visits(catalog, 0, 3)
    # the declared ranges alone visit 7.5 times the support here
    assert visited <= 1.1 * supported


def test_a_negative_lower_argument_without_the_bound_variable_empties_the_sum(catalog):
    visited, supported = loop_visits(catalog, -2, 2)
    # 3.7 times the support without the test (chugen's C(k,c) at c < 0)
    assert visited <= 1.1 * supported
    # the point is still checked, with an empty sum
    chugen = CompiledIdentity(catalog.identity("chugen"))
    evaluate, visits = counting_evaluate(catalog.identity("chugen"))
    assert evaluate([2, 2, -1, 0, 2]) == (0, 0) and visits[0] == 0
    assert chugen.walk([(2, 2), (2, 2), (-1, -1), (0, 0), (2, 2)], 0, 1) == (1, [])
