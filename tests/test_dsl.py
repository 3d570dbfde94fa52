import hashlib
import random
from dataclasses import astuple

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
    assert parse_linexpr("-d") == LinExpr.make(0, {"d": -1})
    assert parse_linexpr("2*k+1") == LinExpr.make(1, {"k": 2})
    assert parse_linexpr("a+b-c-d") == LinExpr.make(0, {"a": 1, "b": 1, "c": -1, "d": -1})
    assert parse_linexpr("-5") == LinExpr(-5)
    assert parse_linexpr("3-2") == LinExpr(1)
    assert parse_linexpr("k+2*k-1-k") == LinExpr.make(-1, {"k": 2})
    assert parse_linexpr("+k-k") == LinExpr(0)


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


@pytest.mark.parametrize("text, message, start, end", [
    ("identity a params(n) :: C(n,0) == C(0,0)\nidentity b params(n) require n>=0,\n  m-n>=0 :: C(n,0) == C(0,0)",
     "3:3: unknown variable 'm' in constraint", (3, 3, 78), (3, 4, 79)),
    ("identity a params(n) :: C(n,0) == C(0,0)\n  identity a params(n) :: C(n,0) == C(0,0)",
     "2:3: duplicate identity name 'a'", (2, 3, 43), (2, 11, 51)),
    ("specializes c from p with {m=0,\tp=-d, m=1}",
     "1:39: duplicate parameter 'm' in substitution", (1, 39, 38), (1, 40, 39)),
    ("identity a params(n, k) :: sum(k,0,n)[C(n,k)] == C(n,0)",
     "1:32: bound variable 'k' shadows a parameter", (1, 32, 31), (1, 33, 32)),
])
def test_declaration_errors_span_the_offending_token(text, message, start, end):
    with pytest.raises(ParseError) as err:
        parse_catalog(text)
    span = err.value.span
    assert (str(err.value), astuple(span.start), astuple(span.end)) == (message, start, end)


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


# -- pinned parse results and errors ---------------------------------------------

PARSE_CORPUS_SHA256 = "4c0be2f45b2be65427a8f8ba6c8235fd1cfde32337ed8a1d1f3a8e381b5d52b9"

# the point mutations of the corrupted-text tests above and of test_resexpr, plus
# line breaks, tabs, comments and the letters and digits the lexer must tell apart
CORRUPTIONS = ("]", ")", "(", "[", "^", "==", "#", "@", "", "C(", ",", "²", "sum(", "geo",
               "\t", "\r\n", "\n", "\r", "# note\n", "é", "٣", "x٣", "_", "12", "-", "+",
               "=", "{", "}", "::", ">=", "*", ":")


def _data_text(name):
    from importlib import resources

    return resources.files("binomid").joinpath("data", name).read_text()


def _parse_corpus():
    """(parser name, text) pairs: pieces of the shipped catalog, identity, proof-state,
    linexpr and term texts, each with its whitespace varied and up to two point
    corruptions, from one seed."""
    import json

    from binomid.resexpr import parse_resexpr

    catalog_lines = _data_text("catalog.bid").split("\n")
    identities, _ = parse_catalog(_data_text("catalog.bid"))
    proofs = [json.loads(_data_text(name)) for name in ("proof_eq1.json", "proof_eq2.json")]
    claims = json.loads(_data_text("claims.json"))["claims"]
    states = sorted({p["start"] for p in proofs} | {s["after"] for p in proofs for s in p["steps"] if "after" in s})
    linexprs = sorted(
        {p["budget"] for p in proofs} | {c for p in proofs for c in p["constraints"]}
        | {v for p in proofs for v in p["aliases"].values()}
        | {v for p in proofs for s in p["steps"] for v in s.get("map", {}).values()}
        | {v for c in claims for step in c.get("chain", []) + c.get("post_chain", [])
           for v in step.get("map", {}).values()}
    )
    terms = sorted({p["carried"] for p in proofs} | {print_term(i.rhs) for i in identities})
    parsers = {"catalog": parse_catalog, "identity": parse_identity, "resexpr": parse_resexpr,
               "linexpr": parse_linexpr, "term": parse_term}
    rng = random.Random(18)
    corpus = []
    for _ in range(1200):
        kind = rng.choice(["catalog", "catalog", "identity", "resexpr", "resexpr", "linexpr", "term"])
        if kind == "catalog":
            start = rng.randrange(len(catalog_lines))
            text = "\n".join(catalog_lines[start:start + rng.randint(1, 4)])
        else:
            pool = {"identity": [print_identity(i) for i in identities], "resexpr": states,
                    "linexpr": linexprs, "term": terms}[kind]
            text = rng.choice(pool)
        if rng.random() < 0.3:
            text = text.replace(" ", "\t")
        if rng.random() < 0.3:
            text = text.replace("\n", "\r\n")
        if rng.random() < 0.3:
            text = "# leading comment\n" + text + "\n# trailing comment"
        for _ in range(rng.choice([0, 1, 1, 2])):
            if text:
                pos = rng.randrange(len(text))
                text = text[:pos] + rng.choice(CORRUPTIONS) + text[pos + 1:]
        corpus.append((parsers[kind], text))
    return corpus


def _parse_outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as err:
        start, end = err.span.start, err.span.end
        return (f"error {err} at {start.line}:{start.column}:{start.offset}"
                f"-{end.line}:{end.column}:{end.offset}")
    if parse is parse_identity:
        return print_identity(result)
    if parse is parse_catalog:
        identities, specials = result
        return "; ".join([print_identity(i) for i in identities] + [
            f"{s.name} from {s.parent} with " + ",".join(f"{k}={v}" for k, v in s.mapping)
            for s in specials])
    return repr(result)


def test_parse_results_and_errors_are_pinned():
    # every accepted text's parse and every rejected text's message and full span
    corpus = _parse_corpus()
    outcomes = [f"{parse.__name__} {text!r} -> {_parse_outcome(parse, text)}" for parse, text in corpus]
    assert sum(o.count(" -> error ") for o in outcomes) > 300
    assert sum(" -> error " not in o for o in outcomes) > 300
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == PARSE_CORPUS_SHA256


def test_line_endings_tabs_and_comments_do_not_change_the_catalog():
    text = _data_text("catalog.bid")
    plain_identities, plain_specials = parse_catalog(text)
    varied = "# a comment line\r\n\t# an indented one\r\n" + "\r\n# between lines\r\n".join(
        line.replace(" ", "\t") for line in text.split("\n"))
    assert "\r\n" in varied and "\t" in varied
    identities, specials = parse_catalog(varied)
    assert [print_identity(i) for i in identities] == [print_identity(i) for i in plain_identities]
    assert specials == plain_specials
