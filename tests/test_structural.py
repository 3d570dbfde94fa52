"""Structural equality up to renaming against a backtracking unifier.

The oracle matches two canonical forms directly, threading a partial
bijection between their variables through every affine expression and
every pairing of factors. It is the search binomid used before
`structurally_equal` tried parameter bijections through `substitute`, kept
here as an independent reference.
"""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.model import ONE, BinomFactor, LinExpr, SumExpr, Term, canonicalize, structurally_equal

from test_dsl import identities


def unify_lin(e1, e2, pi, used):
    """Extend the bijection pi so that e1 maps onto e2; yields per solution."""
    if e1.const != e2.const or len(e1.coeffs) != len(e2.coeffs):
        return

    def go(idx, remaining):
        if idx == len(e1.coeffs):
            if not remaining:
                yield None
            return
        v, c = e1.coeffs[idx]
        if v in pi:
            w = pi[v]
            if remaining.get(w) == c:
                rest = dict(remaining)
                del rest[w]
                yield from go(idx + 1, rest)
            return
        for w, d in list(remaining.items()):
            if d != c or w in used:
                continue
            pi[v] = w
            used.add(w)
            rest = dict(remaining)
            del rest[w]
            yield from go(idx + 1, rest)
            del pi[v]
            used.discard(w)

    yield from go(0, dict(e2.coeffs))


def unify_term(t1, t2, pi, used):
    s1, s2 = t1.sign_exponent, t2.sign_exponent
    if (s1 is None) != (s2 is None) or len(t1.factors) != len(t2.factors):
        return

    def factors(idx, left):
        if idx == len(t1.factors):
            yield None
            return
        f1 = t1.factors[idx]
        for pos, f2 in enumerate(left):
            for _ in unify_lin(f1.upper, f2.upper, pi, used):
                for _ in unify_lin(f1.lower, f2.lower, pi, used):
                    yield from factors(idx + 1, left[:pos] + left[pos + 1 :])

    if s1 is None:
        yield from factors(0, list(t2.factors))
    else:
        for _ in unify_lin(s1, s2, pi, used):
            yield from factors(0, list(t2.factors))


def unify_identity(a, b, pi, used):
    if isinstance(a.lhs, SumExpr) != isinstance(b.lhs, SumExpr):
        return
    if isinstance(a.lhs, SumExpr):
        # the bound variables are matched positionally, outside the bijection
        pi = dict(pi)
        pi[a.lhs.bound_var] = b.lhs.bound_var
        used = used | {b.lhs.bound_var}
        for _ in unify_lin(a.lhs.lower, b.lhs.lower, pi, used):
            for _ in unify_lin(a.lhs.upper, b.lhs.upper, pi, used):
                for _ in unify_term(a.lhs.body, b.lhs.body, pi, used):
                    yield from unify_term(a.rhs, b.rhs, pi, used)
    else:
        for _ in unify_term(a.lhs, b.lhs, pi, used):
            yield from unify_term(a.rhs, b.rhs, pi, used)


def oracle_equal_up_to_renaming(a, b) -> bool:
    ca, cb = canonicalize(a), canonicalize(b)
    if len(ca.params) != len(cb.params):
        return False
    return any(True for _ in unify_identity(ca, cb, {}, set()))


# k and k1 are the canonical bound-variable names, so renaming onto them
# forces the bound variable to move; j appears in no name pool
TARGET_NAMES = ("k", "k1", "x", "a", "y")


def renamed(ident, names):
    """ident with parameter i renamed to names[i], its bound variable to j."""
    m = {p: LinExpr.var(q) for p, q in zip(ident.params, names)}
    if isinstance(ident.lhs, SumExpr):
        m[ident.lhs.bound_var] = LinExpr.var("j")

    def term(t):
        sign = t.sign_exponent.subst(m) if t.sign_exponent is not None else None
        return Term(sign, tuple(BinomFactor(f.upper.subst(m), f.lower.subst(m)) for f in t.factors))

    lhs = ident.lhs
    if isinstance(lhs, SumExpr):
        lhs = SumExpr("j", lhs.lower.subst(m), lhs.upper.subst(m), term(lhs.body))
    else:
        lhs = term(lhs)
    return dataclasses.replace(ident, params=tuple(names), lhs=lhs, rhs=term(ident.rhs), constraints=())


def bumped(t, index, upper):
    """t with the constant of one factor's upper or lower index raised by one."""
    factors = list(t.factors)
    i = index % len(factors)
    f = factors[i]
    factors[i] = BinomFactor(f.upper + ONE, f.lower) if upper else BinomFactor(f.upper, f.lower + ONE)
    return Term(t.sign_exponent, tuple(factors))


@st.composite
def pairs(draw):
    """A kind label and two identities: unrelated, renamed, renamed with one
    constant changed, or renamed with the declared parameter order shuffled."""
    a = draw(identities())
    kind = draw(st.sampled_from(["unrelated", "renamed", "bumped", "shuffled"]))
    if kind == "unrelated":
        return kind, a, draw(identities())
    b = renamed(a, draw(st.permutations(TARGET_NAMES[: len(a.params)])))
    if kind == "shuffled":
        b = dataclasses.replace(b, params=tuple(draw(st.permutations(b.params))))
    elif kind == "bumped":
        index, upper = draw(st.integers(0, 3)), draw(st.booleans())
        if isinstance(b.lhs, SumExpr) and draw(st.booleans()):
            b = dataclasses.replace(b, lhs=dataclasses.replace(b.lhs, body=bumped(b.lhs.body, index, upper)))
        else:
            b = dataclasses.replace(b, rhs=bumped(b.rhs, index, upper))
    return kind, a, b


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_renaming_check_agrees_with_unifier(pair):
    kind, a, b = pair
    want = oracle_equal_up_to_renaming(a, b)
    assert structurally_equal(a, b, allow_renaming=True) == want
    if kind in ("renamed", "shuffled"):
        assert want
