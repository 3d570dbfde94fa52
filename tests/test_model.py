import random

import pytest

from binomid.dsl import parse_identity, parse_term
from binomid.model import (
    CancelSignStep,
    ConstraintError,
    EvalError,
    Identity,
    LinExpr,
    RewriteError,
    RewriteStep,
    Substitution,
    apply_chain,
    canonicalize,
    canonicalize_term,
    eval_identity,
    eval_side,
    rewrite_lower_symmetry,
    rewrite_second_symmetry,
    rewrite_trinomial_revision,
    rewrite_upper_negation,
    structurally_equal,
    substitute,
)

from conftest import comb_oracle


def lin(text):
    from binomid.dsl import parse_linexpr

    return parse_linexpr(text)


# -- LinExpr -----------------------------------------------------------------


def test_eval_linexpr_examples():
    assert lin("a+b-c-d").evaluate({"a": 3, "b": 2, "c": 1, "d": 1}) == 3
    assert lin("n-k").evaluate({"n": 2, "k": 5}) == -3
    assert lin("0").evaluate({}) == 0


def test_eval_linexpr_unbound_names_variable():
    with pytest.raises(EvalError, match="'q'"):
        lin("p+q").evaluate({"p": 1})


def test_linexpr_normalization():
    e = lin("b+a-a")
    assert e == LinExpr.var("b")
    assert lin("2*k+1-k-k") == LinExpr(1)


def test_linexpr_parity():
    assert lin("2*k+3").parity() == LinExpr(1)
    assert lin("k+b-k").parity() == lin("b")
    assert lin("4*a+2").parity() == LinExpr(0)


# -- terms and identities ------------------------------------------------------


def test_eval_term_examples():
    assert eval_side(parse_term("C(3,1)*C(2,1)"), {}) == 6
    assert eval_side(parse_term("(-1)^(k)*C(5,k)"), {"k": 3}) == -10
    assert eval_side(parse_term("C(-1,2)*C(2,2)"), {}) == 1


def test_eval_identity_chugen_example(catalog):
    r = eval_identity(catalog.identity("chugen"), {"a": 3, "b": 2, "c": 1, "d": 1, "n": 2})
    assert (r.lhs, r.rhs, r.holds) == (6, 6, True)


def test_eval_identity_chu2gen_example(catalog):
    r = eval_identity(catalog.identity("chu2gen"), {"a": 2, "b": 3, "c": 1, "d": 1, "m": 1})
    assert (r.lhs, r.rhs, r.holds) == (18, 18, True)


def test_eval_identity_all_zero(catalog):
    r = eval_identity(catalog.identity("chugen"), {"a": 0, "b": 0, "c": 0, "d": 0, "n": 0})
    assert (r.lhs, r.rhs, r.holds) == (1, 1, True)


def test_eval_identity_against_literal_sum(catalog):
    # independent oracle: spell the first base identity out by hand
    rng = random.Random(7)
    ident = catalog.identity("chugen")
    for _ in range(50):
        a, b, c, d, n = (rng.randint(-4, 6) for _ in range(5))
        lhs = sum(
            comb_oracle(a, k) * comb_oracle(b, n - k) * comb_oracle(k, c) * comb_oracle(n - k, d)
            for k in range(0, n + 1)
        )
        rhs = comb_oracle(a + b - c - d, n - c - d) * comb_oracle(a, c) * comb_oracle(b, d)
        r = eval_identity(ident, {"a": a, "b": b, "c": c, "d": d, "n": n})
        assert (r.lhs, r.rhs) == (lhs, rhs)


def test_eval_identity_unbound_param(catalog):
    with pytest.raises(EvalError, match="'n'"):
        eval_identity(catalog.identity("chugen"), {"a": 1, "b": 1, "c": 0, "d": 0})


def test_eval_identity_constraint_violation(catalog):
    stan2 = catalog.identity("stanley2")
    with pytest.raises(ConstraintError):
        eval_identity(stan2, {"p": 0, "q": 0, "a": 3, "b": 0})


def test_empty_sum_is_zero():
    ident = parse_identity("identity e params(n) :: sum(k,2,n)[C(n,k)] == C(n,2)")
    # lower 2 > upper 0: empty sum
    r = eval_identity(ident, {"n": 0})
    assert r.lhs == 0 and r.rhs == 0


# -- canonicalization ----------------------------------------------------------


def test_canonicalize_sorts_factors():
    t = parse_term("C(b,d)*C(a,c)")
    assert canonicalize_term(t) == parse_term("C(a,c)*C(b,d)")


def test_canonicalize_sign_parity():
    ident = parse_identity("identity s params(n) :: sum(k,0,n)[(-1)^(2*k+3)*C(n,k)] == C(0,0)")
    canon = canonicalize(ident)
    assert canon.lhs.body.sign_exponent == LinExpr(1)


def test_canonicalize_drops_unit_factors():
    t = parse_term("C(a,0)*C(a,c)*C(b-b,0)")
    assert canonicalize_term(t) == parse_term("C(a,c)")


def test_canonicalize_idempotent(catalog):
    for ident in catalog.identities.values():
        once = canonicalize(ident)
        assert canonicalize(once) == once


def test_canonicalize_eval_invariant(catalog):
    rng = random.Random(3)
    for ident in catalog.identities.values():
        canon = canonicalize(ident)
        for _ in range(20):
            env = {p: rng.randint(0, 6) for p in ident.params}
            try:
                before = eval_identity(ident, env)
            except ConstraintError:
                continue
            after = eval_identity(canon, env)
            assert (before.lhs, before.rhs) == (after.lhs, after.rhs)


def test_canonicalize_renames_bound_var():
    a = parse_identity("identity x params(n) :: sum(j,0,n)[C(n,j)] == C(2*n,n)")
    b = parse_identity("identity y params(n) :: sum(k,0,n)[C(n,k)] == C(2*n,n)")
    assert structurally_equal(a, b)


def test_bound_var_rename_avoids_params():
    a = parse_identity("identity x params(k) :: sum(j,0,k)[C(k,j)] == C(2*k,k)")
    canon = canonicalize(a)
    assert canon.lhs.bound_var != "k"


# -- substitution ---------------------------------------------------------------


def test_substitute_nanjundiah1(catalog):
    eq11 = catalog.identity("eq11")
    sub = Substitution.of(
        {"a": lin("a"), "b": lin("b"), "d": lin("0"), "m": lin("0"), "p": lin("p")},
        ("a", "b", "p"),
    )
    result = substitute(eq11, sub, "nanj1")
    assert structurally_equal(result, catalog.identity("nanjundiah1"), allow_renaming=True)


def test_substitute_identity_map_is_canonicalization(catalog):
    chugen = catalog.identity("chugen")
    sub = Substitution.of({p: LinExpr.var(p) for p in chugen.params}, chugen.params)
    assert substitute(chugen, sub, "chugen") == canonicalize(chugen)


def test_substitute_requires_all_params(catalog):
    from binomid.model import SubstitutionError

    with pytest.raises(SubstitutionError):
        substitute(catalog.identity("chugen"), Substitution.of({"a": lin("1")}), "x")


def test_substitution_homomorphism_all_claims(catalog):
    # the specialized identity evaluates exactly like the parent at the
    # composed environment, lhs and rhs separately
    rng = random.Random(11)
    for claim in catalog.claims.values():
        parent = catalog.identity(claim.parent)
        target = catalog.identity(claim.name)
        specialized = substitute(parent, claim.substitution, "s")
        for _ in range(20):
            env = {p: rng.randint(-4, 6) for p in target.params}
            parent_env = claim.substitution.apply_env(env)
            spec = eval_identity(
                Identity("s", specialized.params, specialized.lhs, specialized.rhs), env
            )
            par = eval_identity(
                Identity("p", parent.params, parent.lhs, parent.rhs), parent_env
            )
            assert (spec.lhs, spec.rhs) == (par.lhs, par.rhs), (claim.name, env)


# -- rewrites --------------------------------------------------------------------


def random_env(rng, names, lo=-10, hi=10):
    return {v: rng.randint(lo, hi) for v in names}


def test_trinomial_revision_shapes():
    t = parse_term("C(b,n-k)*C(n-k,d)")
    out, cond = rewrite_trinomial_revision(t, 0, 1)
    assert out == parse_term("C(b,d)*C(b-d,n-k-d)")
    assert cond is None
    t = parse_term("C(a,k)*C(k,c)")
    out, _ = rewrite_trinomial_revision(t, 0, 1)
    assert out == parse_term("C(a,c)*C(a-c,k-c)")


def test_trinomial_revision_numeric_check():
    env = {"a": 5, "k": 3, "c": 2}
    t = parse_term("C(a,k)*C(k,c)")
    out, _ = rewrite_trinomial_revision(t, 0, 1)
    assert eval_side(t, env) == eval_side(out, env) == 30


def test_trinomial_revision_pattern_mismatch():
    with pytest.raises(RewriteError):
        rewrite_trinomial_revision(parse_term("C(a,k)*C(c,k)"), 0, 1)


def test_upper_negation_example():
    t = parse_term("C(p+q+k,k)")
    out, cond = rewrite_upper_negation(t, 0)
    assert out == parse_term("(-1)^(k)*C(-p-q-1,k)")
    assert cond is None


def test_upper_negation_involution():
    rng = random.Random(5)
    t = parse_term("C(a,k)*C(b,n-k)")
    once, _ = rewrite_upper_negation(t, 0)
    twice, _ = rewrite_upper_negation(once, 0)
    assert canonicalize_term(twice) == canonicalize_term(t)


def test_second_symmetry_example():
    t = parse_term("C(p+a-k,p)")
    out, cond = rewrite_second_symmetry(t, 0)
    assert out == parse_term("(-1)^(a-k)*C(-p-1,a-k)")
    assert cond == lin("a-k")


def test_lower_symmetry_example():
    t = parse_term("C(q+b-k,b-k)")
    out, cond = rewrite_lower_symmetry(t, 0)
    assert out == parse_term("C(q+b-k,q)")
    assert cond == lin("q+b-k")


@pytest.mark.parametrize(
    "term_text,apply",
    [
        ("C(a,k)*C(k,c)", lambda t: rewrite_trinomial_revision(t, 0, 1)),
        ("C(n,k)*C(b,j)", lambda t: rewrite_upper_negation(t, 0)),
        ("(-1)^(j)*C(n,k)*C(b,j)", lambda t: rewrite_upper_negation(t, 1)),
    ],
)
def test_rewrites_value_preserving_everywhere(term_text, apply):
    rng = random.Random(17)
    t = parse_term(term_text)
    out, cond = apply(t)
    assert cond is None
    for _ in range(500):
        env = random_env(rng, sorted(t.variables()))
        assert eval_side(t, env) == eval_side(out, env), env


def test_second_symmetry_value_preserving_under_condition():
    # the recorded condition upper-lower >= 0 is used together with a
    # nonnegative lower index everywhere the catalog applies the rule
    rng = random.Random(19)
    t = parse_term("C(n,k)*C(b,j)")
    out, cond = rewrite_second_symmetry(t, 0)
    checked = 0
    while checked < 500:
        env = random_env(rng, ["n", "k", "b", "j"])
        if cond.evaluate(env) < 0 or env["k"] < 0:
            continue
        checked += 1
        assert eval_side(t, env) == eval_side(out, env), env


def test_second_symmetry_condition_alone_is_not_enough():
    # documented, not resolved: upper-lower >= 0 admits counterexamples
    # when both indices are negative
    t = parse_term("C(n,k)")
    out, cond = rewrite_second_symmetry(t, 0)
    env = {"n": -1, "k": -1}
    assert cond.evaluate(env) >= 0
    assert eval_side(t, env) == 0
    assert eval_side(out, env) == 1


def test_lower_symmetry_value_preserving_under_condition():
    rng = random.Random(23)
    t = parse_term("C(n,k)")
    out, cond = rewrite_lower_symmetry(t, 0)
    checked = 0
    while checked < 500:
        env = random_env(rng, ["n", "k"])
        if cond.evaluate(env) < 0:
            continue
        checked += 1
        assert eval_side(t, env) == eval_side(out, env), env


def test_sign_parity_eval_invariant():
    rng = random.Random(29)
    t = parse_term("(-1)^(2*k+3)*C(n,k)")
    u = parse_term("(-1)^(1)*C(n,k)")
    for _ in range(100):
        env = random_env(rng, ["n", "k"])
        assert eval_side(t, env) == eval_side(u, env)


def test_cancel_sign_requires_matching_parity():
    ident = parse_identity(
        "identity s params(a,b) :: sum(k,0,a)[(-1)^(a)*C(a,k)] == (-1)^(b)*C(2*a,a)"
    )
    with pytest.raises(RewriteError):
        apply_chain(ident, [CancelSignStep()])


def test_chain_records_side_conditions(catalog):
    stan2 = catalog.identity("stanley2")
    out = apply_chain(stan2, [RewriteStep("second_symmetry", "lhs", 1)])
    assert lin("a-k") in out.constraints


# -- structural equality ---------------------------------------------------------


def test_structurally_equal_renaming(catalog):
    chugen = catalog.identity("chugen")
    renamed = parse_identity(
        "identity r params(u,v,w,s,t) :: "
        "sum(k,0,t)[C(u,k)*C(v,t-k)*C(k,w)*C(t-k,s)] == C(u+v-w-s,t-w-s)*C(u,w)*C(v,s)"
    )
    assert structurally_equal(chugen, renamed, allow_renaming=True)
    assert not structurally_equal(chugen, renamed, allow_renaming=False)


def test_structurally_unequal(catalog):
    assert not structurally_equal(
        catalog.identity("chugen"), catalog.identity("chu2gen"), allow_renaming=True
    )


def test_structural_equality_is_not_numeric():
    # same values everywhere on the test grid, structurally different
    a = parse_identity("identity a params(n) :: C(n,0) == C(0,0)")
    b = parse_identity("identity b params(n) :: C(n,n-n) == C(0,0)")
    assert structurally_equal(a, b)  # both canonicalize to the empty product
    c = parse_identity("identity c params(n) :: C(n,1) == C(n,n-1)")
    r = eval_identity(c, {"n": 5})
    assert r.holds  # numerically true for n = 5
    d = parse_identity("identity d params(n) :: C(n,1) == C(n,1)")
    assert not structurally_equal(c, d)  # but not structurally
