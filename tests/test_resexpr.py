"""Parsing the proof-state expression language."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomid.catalog import load_builtin
from binomid.dsl import ParseError
from binomid.model import LinExpr
from binomid.resexpr import RBinom, RPow, RVar, parse_resexpr

STATE_TEXTS = sorted(
    {text for script in load_builtin().scripts.values() for step in script.steps
     for text in (step.before_text, step.after_text) if text}
)


def test_shipped_states_parse():
    assert len(STATE_TEXTS) > 10
    for text in STATE_TEXTS:
        parse_resexpr(text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(STATE_TEXTS), st.randoms())
def test_corrupted_state_errors_stay_in_bounds(text, rng):
    pos = rng.randrange(len(text))
    mutation = rng.choice(["]", ")", "(", "[", "^", "@", "", "C(", ",", "sum(", "geo"])
    corrupted = text[:pos] + mutation + text[pos + 1 :]
    try:
        parse_resexpr(corrupted)
    except ParseError as err:
        assert 0 <= err.span.start.offset <= err.span.end.offset <= len(corrupted)


@pytest.mark.parametrize("text, message", [
    ("C(a,", "1:5: expected integer or variable, found end of input (expected INT, identifier)"),
    ("x^(a", "1:5: syntax error, found end of input (expected ')')"),
    ("sum(1,0,n)[x]", "1:5: expected name, found '1' (expected identifier)"),
    ("x y", "1:3: trailing input after expression, found 'y'"),
])
def test_errors_take_the_catalog_message_form(text, message):
    with pytest.raises(ParseError) as err:
        parse_resexpr(text)
    assert str(err.value) == message


def test_linexpr_accepts_a_leading_plus():
    a = LinExpr.var("a")
    assert parse_resexpr("x^(+a)") == RPow(RVar("x"), a) == parse_resexpr("x^(a)")
    assert parse_resexpr("C(+a,+1)") == RBinom(a, LinExpr(1))
