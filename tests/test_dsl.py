import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.dsl import (
    ParseError,
    SpecializeDecl,
    parse_catalog,
    parse_identity,
    parse_linexpr,
    parse_term,
    print_identity,
    print_term,
)
from binomid.model import (
    BinomFactor,
    Identity,
    LinExpr,
    SumExpr,
    Term,
    canonicalize,
    structurally_equal,
)


# -- parsing ------------------------------------------------------------------


def test_parse_chugen_matches_catalog(catalog):
    text = (
        "identity chugen params(a,b,c,d,n) :: "
        "sum(k,0,n)[C(a,k)*C(b,n-k)*C(k,c)*C(n-k,d)] == C(a+b-c-d,n-c-d)*C(a,c)*C(b,d)"
    )
    assert structurally_equal(parse_identity(text), catalog.identity("chugen"))


def test_parse_stanley2_sign_term(catalog):
    text = (
        "identity stan2 params(p,q,a,b) :: "
        "sum(k,0,a)[(-1)^(k)*C(p+q+1,k)*C(p+a-k,p)*C(q+b-k,q)] == C(p+a-b,a)*C(q+b-a,b)"
    )
    assert structurally_equal(parse_identity(text), catalog.identity("stanley2"))


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError) as err:
        parse_identity("identity bad params(a) :: C(a,1) ==")
    assert "end of input" in str(err.value)
    assert err.value.span is not None


def test_parse_error_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        parse_identity("identity bad params(a) :: C(a,1) == C(z,1)")


def test_parse_error_duplicate_param():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse_identity("identity bad params(a,a) :: C(a,1) == C(a,1)")


def test_parse_error_reserved_param():
    with pytest.raises(ParseError, match="reserved"):
        parse_identity("identity bad params(sum) :: C(sum,1) == C(sum,1)")


def test_parse_error_bound_var_shadowing():
    with pytest.raises(ParseError, match="shadows"):
        parse_identity("identity bad params(n) :: sum(n,0,n)[C(n,n)] == C(n,0)")


def test_parse_require_clause():
    ident = parse_identity(
        "identity r params(a,b) require a-b>=0, b>=0 :: C(a,b) == C(a,a-b)"
    )
    assert len(ident.constraints) == 2
    assert parse_linexpr("a-b") in ident.constraints


def test_multi_term_rhs_is_a_parse_error():
    # closed forms are single products; sums on the right are rejected
    with pytest.raises(ParseError):
        parse_identity("identity bad params(a) :: C(a,1) == C(a,1)+C(a,0)")


def test_parse_linexpr_forms():
    assert parse_linexpr("-d") == LinExpr.of(0, d=-1)
    assert parse_linexpr("2*k+1") == LinExpr.of(1, k=2)
    assert parse_linexpr("a+b-c-d") == LinExpr.of(0, a=1, b=1, c=-1, d=-1)
    assert parse_linexpr("-5") == LinExpr(-5)
    assert parse_linexpr("3-2") == LinExpr(1)


def test_parse_errors_carry_in_bounds_spans():
    bad_inputs = [
        "identity",
        "identity x",
        "identity x params(a) ::",
        "identity x params(a) :: C(a,1) == C(a,1) trailing",
        "identity x params(a) :: sum(k,0,a)[C(a,k) == C(a,1)",
        "identity x params() :: C(0,1) == C(0,1)",
        "ident x params(a) :: C(a,1) == C(a,1)",
        "identity x params(a) :: C(a,1généra) == C(a,1)",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse_identity(text)
        span = err.value.span
        assert 0 <= span.start.offset <= span.end.offset <= len(text)


# -- catalogs -------------------------------------------------------------------


def test_parse_builtin_catalog_counts():
    from importlib import resources

    text = resources.files("binomid").joinpath("data/catalog.bid").read_text()
    identities, specials = parse_catalog(text)
    assert len(identities) == 26
    assert len(specials) == 10
    assert all(isinstance(s, SpecializeDecl) for s in specials)


def test_parse_empty_catalog():
    assert parse_catalog("") == ([], [])
    assert parse_catalog("# nothing here\n\n") == ([], [])


def test_parse_catalog_duplicate_name():
    text = (
        "identity a params(n) :: C(n,0) == C(0,0)\n"
        "identity a params(n) :: C(n,0) == C(0,0)\n"
    )
    with pytest.raises(ParseError, match="duplicate identity name 'a'"):
        parse_catalog(text)


def test_parse_specializes_declaration():
    text = "specializes child from parent with {m=0, p=-d, q=a+b}\n"
    _, specials = parse_catalog(text)
    (decl,) = specials
    assert decl.name == "child"
    assert decl.parent == "parent"
    assert dict(decl.mapping)["p"] == parse_linexpr("-d")


# -- printing -------------------------------------------------------------------


def test_print_is_deterministic(catalog):
    for ident in catalog.identities.values():
        assert print_identity(ident) == print_identity(ident)


def test_print_parse_round_trip_catalog(catalog):
    for ident in catalog.identities.values():
        reparsed = parse_identity(print_identity(ident))
        assert structurally_equal(reparsed, canonicalize(ident)), ident.name


def test_print_empty_term():
    assert print_term(Term(None, ())) == "C(0,0)"
    ident = parse_identity("identity t params(a) :: C(a,0) == C(0,0)")
    round_tripped = parse_identity(print_identity(ident))
    assert structurally_equal(round_tripped, ident)


def test_print_preserves_sign_parity():
    t = parse_term("(-1)^(2*k+3)*C(n,k)")
    ident = Identity("s", ("n",), SumExpr("k", LinExpr(0), LinExpr.var("n"), t), Term(None, ()))
    text = print_identity(ident)
    assert "(-1)^(1)" in text


# -- random round trips ------------------------------------------------------------

PARAMS = ("a", "b", "c", "d", "m", "n", "p", "q")


@st.composite
def linexprs(draw, vars):
    const = draw(st.integers(-9, 9))
    coeffs = {}
    for v in draw(st.lists(st.sampled_from(vars), max_size=3, unique=True)):
        coeffs[v] = draw(st.integers(-4, 4))
    return LinExpr.make(const, coeffs)


@st.composite
def terms(draw, vars, allow_sign=True):
    sign = None
    if allow_sign and draw(st.booleans()):
        sign = draw(linexprs(vars))
    factors = tuple(
        BinomFactor(draw(linexprs(vars)), draw(linexprs(vars)))
        for _ in range(draw(st.integers(1, 4)))
    )
    return Term(sign, factors)


@st.composite
def identities(draw):
    nparams = draw(st.integers(1, 5))
    params = PARAMS[:nparams]
    body_vars = params + ("k",)
    if draw(st.booleans()):
        lhs = SumExpr("k", draw(linexprs(params)), draw(linexprs(params)), draw(terms(body_vars)))
    else:
        lhs = draw(terms(params))
    constraints = tuple(draw(st.lists(linexprs(params), max_size=2)))
    return Identity("t", params, lhs, draw(terms(params, allow_sign=True)), constraints)


@settings(max_examples=200, deadline=None)
@given(identities())
def test_round_trip_random_asts(ident):
    text = print_identity(ident)
    reparsed = parse_identity(text)
    assert structurally_equal(reparsed, canonicalize(ident))
    # printing the reparsed identity is a fixed point
    assert print_identity(reparsed) == text


@settings(max_examples=120, deadline=None)
@given(identities(), st.randoms())
def test_corrupted_text_errors_stay_in_bounds(ident, rng):
    text = print_identity(ident)
    pos = rng.randrange(len(text))
    mutation = rng.choice(["]", ")", "(", "==", "#", "@", "", "C(", ",", "²"])
    corrupted = text[:pos] + mutation + text[pos + 1 :]
    try:
        parse_identity(corrupted)
    except ParseError as err:
        assert 0 <= err.span.start.offset <= err.span.end.offset <= len(corrupted)
