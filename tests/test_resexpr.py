"""The proof-state expression language: parsing, and the function
`resexpr.evaluate` generates for a node on its first evaluation."""
import contextlib
import dataclasses
import itertools
import pickle
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from binomid import arith, resexpr, series
from binomid.catalog import load_builtin
from binomid.dsl import ParseError
from binomid.model import EvalError, LinExpr
from binomid.proofs import _context, run_proof_script
from binomid.resexpr import (EvalContext, RAdd, RBinom, RGeo, RInt, RISum, RPow, RProd, RRes, RSum,
                             RVar, evaluate, parse_resexpr)
from binomid.series import EngineError, LaurentSeries, NonUnitError, WindowError, res, window_box

from test_oracle import DEGREE, ORIGIN, Oracle, oracle_value, states

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


def test_an_evaluated_node_pickles_to_the_same_bytes(catalog):
    script = catalog.script("proof-eq1")
    node = parse_resexpr(script.steps[2].after_text)
    before = pickle.dumps(node)
    evaluate(node, _context(script, dict.fromkeys(script.params, 1), 2, {}))
    # the generated function lives in `resexpr._compiled`, not on the node
    assert set(vars(node)) <= {f.name for f in dataclasses.fields(node)} | {"_hash"}
    assert pickle.dumps(node) == before


def test_an_equal_script_compiles_nothing_new(catalog):
    # each unpickled copy has nodes of its own, equal to the first copy's
    script = catalog.script("proof-eq2")
    envs = script.instances({p: (0, 1) for p in script.params})[:4]
    first, second = (pickle.loads(pickle.dumps(script)) for _ in range(2))
    report = run_proof_script(first, envs)
    compiled = resexpr._compiled.cache_info().misses
    assert run_proof_script(second, envs).canonical_json() == report.canonical_json()
    assert resexpr._compiled.cache_info().misses == compiled


def test_a_binomial_wrapper_rebound_after_compiling_counts_every_call(catalog, monkeypatch):
    # the generated code looks `binomial` up at each call, so a wrapper
    # rebound later sees exactly the calls made while it is installed
    script = catalog.script("proof-eq1")
    env = dict.fromkeys(script.params, 2)
    full = script.instance_env(env)
    node = script.steps[-2].after  # C(b,d)*sum(j,0,a)[C(a,j)*C(p,c-a+j)*C(b-d+j,a+b+p-n)]
    value = evaluate(node, _context(script, env, 2, {}))
    calls = []
    original = arith.binomial

    def counting(n, k):
        calls.append((n, k))
        return original(n, k)

    for name, module in list(sys.modules.items()):
        if name == "binomid" or name.startswith("binomid."):
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    monkeypatch.setattr(module, attr, counting)
    assert evaluate(node, _context(script, env, 2, {})).coeffs == value.coeffs
    b, c, d, n, p, a = (full[v] for v in "bcdnpa")
    want = [(b, d)] + [pair for j in range(a + 1)
                       for pair in ((a, j), (p, c - a + j), (b - d + j, a + b + p - n))]
    assert Counter(calls) == Counter(want)
    monkeypatch.undo()
    calls.clear()
    evaluate(node, _context(script, env, 2, {}))
    assert calls == []


def test_an_unbound_parameter_is_an_eval_error_naming_it():
    ctx = lambda env: EvalContext(("x",), {"x": (-3, 3)}, 2, env)
    with pytest.raises(EvalError, match=r"^unbound variable 'm' in expression m$"):
        evaluate(parse_resexpr("sum(k,0,n)[C(m,k)*x]"), ctx({"n": 2}))
    # the first linexpr evaluated names the parameter
    with pytest.raises(EvalError, match=r"^unbound variable 'q' in expression q-1$"):
        evaluate(parse_resexpr("x^(q-1)*C(m,1)"), ctx({}))
    # every parameter is bound on entry, also one only an empty sum would read
    with pytest.raises(EvalError, match="unbound variable 'm'"):
        evaluate(parse_resexpr("sum(k,0,n)[C(m,k)*x]"), ctx({"n": -1}))
    # in a separable chain, the linexpr as written, not the coefficient rule's
    with pytest.raises(EvalError, match=r"^unbound variable 'q' in expression q-2$"):
        evaluate(parse_resexpr("res(x)[(1+x)^(n)*x^(q-2)]"), ctx({"n": 2}))
    with pytest.raises(EvalError, match=r"^unbound variable 'q' in expression -j\+q$"):
        evaluate(parse_resexpr("res(x)[sum(j,0,n)[(1+x)^(j)*x^(q-j)]*x^(-1)]"), ctx({"n": 2}))


NESTED_SUMS = "sum(k,0,1)[" * 21 + "1" + "]" * 21  # 21 nested loops in the generated code
NESTED_POWERS = "(" * 120 + "x" + ")^(1)" * 120  # 120 indentation levels


@pytest.mark.parametrize("text, limit", [(NESTED_SUMS, "too many statically nested blocks"),
                                         (NESTED_POWERS, "too many levels of indentation")],
                         ids=["loops", "indentation"])
def test_a_state_nested_past_the_compiler_limits_is_an_engine_error(text, limit):
    ctx = EvalContext(("x",), {"x": (-2, 2)}, 2, {})
    with pytest.raises(EngineError, match=f"^state nested too deeply to compile: {limit}$"):
        evaluate(parse_resexpr(text), ctx)
    # one loop fewer still compiles: 2 ** 20 terms of 1
    assert evaluate(parse_resexpr("sum(k,0,1)[" * 20 + "1" + "]" * 20), ctx).constant_value() == 2 ** 20


def test_any_other_syntax_error_of_the_generated_code_propagates(monkeypatch):
    monkeypatch.setattr(resexpr._Generator, "source", lambda self, node: "def make(:\n")
    resexpr._compiled.cache_clear()  # the node must be generated, not found
    with pytest.raises(SyntaxError) as err:
        evaluate(parse_resexpr("x^(-7)*(1+x)^(-13)"), EvalContext(("x",), {"x": (-2, 2)}, 2, {}))
    assert not isinstance(err.value, EngineError)


def _series_walk(node, vars, box, env):
    """A tree walk of an integral node with series operations, as a walk
    over the tree evaluates it: constants, clipped products, sums."""
    if isinstance(node, RInt):
        return LaurentSeries.constant(vars, node.value)
    if isinstance(node, RBinom):
        return LaurentSeries.constant(vars, arith.binomial(node.upper.evaluate(env),
                                                           node.lower.evaluate(env)))
    if isinstance(node, RProd):
        out = _series_walk(node.factors[0], vars, box, env)
        for f in node.factors[1:]:
            out = out.__mul__(_series_walk(f, vars, box, env), box)
        return out
    if isinstance(node, RAdd):
        out = LaurentSeries.zero(vars)
        for sign, t in node.terms:
            piece = _series_walk(t, vars, box, env)
            out = out + (piece if sign > 0 else -piece)
        return out
    assert isinstance(node, RSum)
    out = LaurentSeries.zero(vars)
    for k in range(node.lower.evaluate(env), node.upper.evaluate(env) + 1):
        out = out + _series_walk(node.body, vars, box, {**env, node.var: k})
    return out


def _assert_same_series(got, want):
    """Equal coefficients of the same type, and equal boxes."""
    origin = (0,) * len(got.vars)
    assert got.coeffs == want.coeffs
    assert type(got.coeffs.get(origin)) is type(want.coeffs.get(origin))
    assert (got.sup_lo, got.sup_hi, got.acc_lo, got.acc_hi) == (
        want.sup_lo, want.sup_hi, want.acc_lo, want.acc_hi)


WINDOWS = [{"x": (-2, 2), "y": (0, 3)}, {"x": (1, 4), "y": (-2, 2)}, {"x": (-3, -1), "y": (2, 1)}, {}]
# each text's value at n = 3
INTEGRAL_VALUES = {"2*3": 6, "C(n,2)*sum(k,0,n)[C(n,k)*C(k,1)]-6": 30, "1+C(n,1)*0": 1,
                   "sum(k,0,n)[C(n,k)*2-C(n,k)*2]": 0, "-(2*C(n,4))": 0}


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("text", list(INTEGRAL_VALUES))
def test_an_integral_subtree_equals_its_series_walk(text, window):
    # where the window holds exponent 0 the walk's every value is an exact
    # constant; under any other window the subtree is its exact constant
    vars = tuple(window) or ("x",)
    node, env, box = parse_resexpr(text), {"n": 3}, window_box(vars, window)
    got = evaluate(node, EvalContext(vars, window, 2, env))
    if all(lo <= 0 <= hi for lo, hi in zip(*box)):
        want = _series_walk(node, vars, box, env)
    else:
        want = LaurentSeries.constant(vars, INTEGRAL_VALUES[text])
    _assert_same_series(got, want)


@pytest.mark.parametrize("window", WINDOWS)
def test_an_integral_product_equals_its_integer_leaf(window):
    vars = tuple(window) or ("x",)
    value = lambda text: evaluate(parse_resexpr(text), EvalContext(vars, window, 2, {}))
    _assert_same_series(value("C(3,1)*C(2,1)"), value("6"))


def test_an_integral_isum_probes_its_terms_under_a_window_without_exponent_0():
    ctx = EvalContext(("x",), {"x": (1, 4)}, 2, {})
    for text in ("isum(k,0)[C(3,k)]", "isum(k,0)[C(3,k)*2]"):
        with pytest.raises(resexpr.SupportBoundError, match=r"term at k=1 is not zero"):
            evaluate(parse_resexpr(text), ctx)


def test_a_full_memo_is_emptied_before_the_next_entry(catalog, monkeypatch):
    script = catalog.script("proof-eq1")
    envs = script.instances({p: (0, 1) for p in script.params})[:6]
    want = run_proof_script(script, envs).canonical_json()
    sizes = []
    keep = resexpr._keep

    def watching(memo, key, value):
        out = keep(memo, key, value)
        sizes.append(len(memo))
        return out

    monkeypatch.setattr(resexpr, "MEMO_LIMIT", 16)
    monkeypatch.setattr(resexpr, "_keep", watching)
    assert run_proof_script(script, envs).canonical_json() == want
    assert max(sizes) == 16 and sizes.count(1) > 1


@pytest.mark.parametrize("text, exchanged, value", [
    # the ratio y*z has x-exponent 0: no exchange, the product of the values
    ("res(y)[res(z)[y^(-2)*z^(-2)*res(x)[x^(-1)*(1+x)^(n)*geo[y*z]]]]", False, lambda n: 1),
    ("res(y)[res(z)[y^(-1)*z^(-1)*res(x)[x^(-2)*(1+x)^(n)*geo[x*y*z]]]]", True, lambda n: n),
], ids=["product", "exchange"])
def test_a_geometric_residue_equals_the_oracle_on_either_path(text, exchanged, value, monkeypatch):
    taken = []
    exchange = series.geo_residue

    def recording(*args):
        out = exchange(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(resexpr, "geo_residue", recording)
    node, vars = parse_resexpr(text), ("x", "y", "z")
    for n in range(4):
        taken.clear()
        got = evaluate(node, EvalContext(vars, dict.fromkeys(vars, (-4, 4)), 2, {"n": n}))
        assert got.constant_value() == oracle_value(node, {"n": n}) == value(n)
        assert taken == [exchanged]


# ---------------------------------------------------------------------------
# Residue-directed products


@contextlib.contextmanager
def _series_path():
    """The engine with the coefficient rule off: `_separable` matches no
    chain, so every residue goes through the series engine. No function
    generated with the rule on is reused inside, nor one generated without
    it kept after."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resexpr, "_separable", lambda node: None)
        resexpr._compiled.cache_clear()
        try:
            yield
        finally:
            resexpr._compiled.cache_clear()


@pytest.fixture
def series_path():
    """The test runs on the series path (`_series_path`)."""
    with _series_path():
        yield


def _bound_residues(node, env, probe):
    """Every res node under node, with each environment its binders give it."""
    if isinstance(node, RRes):
        yield node, env
    if isinstance(node, (RSum, RISum)):
        lo, hi = ((node.lower.evaluate(env), node.upper.evaluate(env)) if isinstance(node, RSum)
                  else (0, max(node.bound.evaluate(env), -1) + probe))
        for k in range(lo, hi + 1):
            yield from _bound_residues(node.body, {**env, node.var: k}, probe)
        return
    if isinstance(node, RProd):
        kids = node.factors
    elif isinstance(node, RAdd):
        kids = [t for _, t in node.terms]
    else:
        kids = [getattr(node, a) for a in ("base", "body") if hasattr(node, a)]
    for kid in kids:
        yield from _bound_residues(kid, env, probe)


def _walked_residue(node, ctx):
    """A residue as a walk over the tree computes it: each factor's value
    multiplied in as it is computed, clipped to the window only, the last
    multiplication taking the innermost residue of the chain, then `res` for
    each outer variable. A geometric residue takes the exchange over that
    product and every power of the ratio clipped to the window (a chain of
    one variable clips nothing else), where the exchange applies."""
    chain = []
    while isinstance(node, RRes):
        chain.append(node.var)
        node = node.body
    value, box, var = (lambda f: evaluate(f, ctx)), ctx.box, chain[-1]
    out = None
    if not isinstance(node, RProd):
        out = res(value(node), var)
    elif sum(isinstance(f, RGeo) for f in node.factors) == 1:
        (geo,) = [f for f in node.factors if isinstance(f, RGeo)]
        ratio, rest = value(geo.body), LaurentSeries.constant(ctx.vars, 1)
        for f in node.factors:
            if f is not geo:
                rest = rest.__mul__(value(f), box)
        out = series.geo_residue(ratio, (rest,), box, (var,))
    if out is None:
        out = value(node.factors[0])
        for k, f in enumerate(node.factors[1:], 2):
            out = out.__mul__(value(f), box, var if k == len(node.factors) else None)
    for v in reversed(chain[:-1]):
        out = res(out, v)
    return out


def _outcome(compute):
    """A computed series, or the type and message of what it raised."""
    try:
        return compute()
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err)


def _assert_same_outcome(got, want):
    if isinstance(want, LaurentSeries):
        assert isinstance(got, LaurentSeries), got
        _assert_same_series(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("window", [0, 2, 4])
@pytest.mark.parametrize("name", ["proof-eq1", "proof-eq2"])
def test_every_shipped_residue_equals_its_walk(catalog, name, window):
    # each res node, also the inner ones of a chain, evaluated as a root; the
    # walk has a memo of its own, so no value the engine memoized feeds it
    script = catalog.script(name)
    checked = set()
    for env in script.instances({p: (0, 2) for p in script.params}):
        ctx, memo = _context(script, env, window, {}), {}
        for state in states(script):
            for node, inner in _bound_residues(state, ctx.env, ctx.probe):
                got = evaluate(node, EvalContext(ctx.vars, ctx.window, ctx.probe, inner, None, ctx.memo))
                walk = EvalContext(ctx.vars, ctx.window, ctx.probe, inner, None, memo)
                _assert_same_outcome(got, _outcome(lambda: _walked_residue(node, walk)))
                checked.add(node)
    assert len(checked) >= 10


VARS = ("x", "y", "z")


EDGE_CASES = [
    # a zero factor, also beside supports unbounded on either side: the
    # product is 0 whatever boxes its partial products were clipped to
    ("res(y)[res(z)[(1+z)^(n)*C(1,2)*y^(-1)*z^(-1)]]", {}, None),
    ("res(y)[res(z)[geo[z^(-1)]*(1+z)^(-1)*C(1,2)*geo[y]*y^(-1)]]", {}, None),
    ("res(y)[res(z)[(1+y)^(n)*(1+z)^(-1)*y^(-2)*z^(-3)]]", {}, None),
    ("res(y)[res(z)[(1+z)^(-1)*(1+y)^(n)*z^(-2)*y^(-1)*(1+y)^(-1)]]", {}, None),
    # the -1 plane of the inner, then of the outer residue outside the window
    ("res(y)[res(x)[(1+x)^(n)*x^(-1)*(1+y)^(2)*y^(-2)]]", {"x": (0, 4)}, WindowError),
    ("res(y)[res(x)[(1+x)^(n)*x^(-1)*(1+y)^(2)*y^(-2)]]", {"y": (0, 4)}, WindowError),
    ("res(y)[res(z)[(1+y)^(n)*(1+y+z)^(-1)*y^(-1)*z^(-1)]]", {}, NonUnitError),
    # the first failing factor's error, before a later factor's or the residue's
    ("res(y)[res(z)[(1+y)^(n)*(1+y+z)^(-1)*w*y^(-1)*z^(-1)]]", {}, NonUnitError),
    ("res(x)[x^(-3)*(1+x)^(n)*(1+x+y)^(-1)]", {"x": (0, 4)}, NonUnitError),
    ("res(y)[res(z)[sum(j,0,n)[y^(j-1)*z^(-1-j)]]]", {}, None),
    ("res(y)[res(z)[res(x)[x^(-1)*(1+x)^(n)*y^(-2)*z^(-2)*geo[y*z]]]]", {}, None),
    ("res(y)[res(z)[res(x)[x^(-2)*(1+x)^(n)*y^(-1)*(1+z)^(2)*z^(-2)*geo[x*y*z]]]]", {}, None),
    # each power of a ratio falling in y keeps the exponents the later ones need
    ("res(y)[res(x)[x^(-4)*(1+x)^(3)*y*(1+y)^(n)*geo[x*y^(-1)]]]", {}, None),
    # the exchange's rest is zero; then unbounded in x, so the product takes over
    ("res(y)[res(x)[x^(-1)*C(1,2)*(1+x)^(n)*y^(-1)*geo[x*y]]]", {}, None),
    ("res(y)[res(x)[x^(-2)*(1+x)^(-1)*y^(-2)*geo[x*y]]]", {}, None),
]


@pytest.mark.parametrize("text, window, error", EDGE_CASES)
def test_an_edge_case_residue_equals_its_walk(text, window, error, monkeypatch, series_path):
    # on the series path: the coefficient rule would take six of these rows
    raised = []
    mul = LaurentSeries.__mul__

    def watching(self, other, window=None, var=None):
        try:
            return mul(self, other, window, var)
        except Exception:
            raised.append(var)
            raise

    monkeypatch.setattr(LaurentSeries, "__mul__", watching)
    node = parse_resexpr(text)
    for n in range(4):
        ctx, walk = (EvalContext(VARS, {**dict.fromkeys(VARS, (-4, 4)), **window}, 2, {"n": n})
                     for _ in range(2))
        got = _outcome(lambda: evaluate(node, ctx))
        _assert_same_outcome(got, _outcome(lambda: _walked_residue(node, walk)))
        if error is None:
            assert isinstance(got, LaurentSeries)
            assert got.constant_value() == oracle_value(node, {"n": n})
        elif error is WindowError:
            var = "x" if "x" in window else "y"
            assert got == (WindowError, f"residue in '{var}': exponent -1 is outside the accuracy window")
        else:
            assert got[0] is error
    # an intermediate product never raises: only a residue may
    assert None not in raised


@pytest.mark.parametrize("text, window, error", EDGE_CASES)
def test_an_edge_case_residue_with_the_coefficient_rule(text, window, error):
    # a separable chain is its exact value, also where the series path's -1
    # plane lies outside the window; any other row is its walk, as above
    node = parse_resexpr(text)
    separable = resexpr._separable(node) is not None
    assert separable == (error in (None, WindowError) and "geo" not in text)
    for n in range(4):
        ctx, walk = (EvalContext(VARS, {**dict.fromkeys(VARS, (-4, 4)), **window}, 2, {"n": n})
                     for _ in range(2))
        got = _outcome(lambda: evaluate(node, ctx))
        if separable:
            assert got.is_exact and got.constant_value() == oracle_value(node, {"n": n})
        else:
            _assert_same_outcome(got, _outcome(lambda: _walked_residue(node, walk)))


def _recorded(monkeypatch):
    """The calls of `series.product` and `geo_residue` an evaluation makes,
    and the function evaluating a text, which returns the residues it left
    in the memo and the node."""
    calls = []
    product, exchange = series.product, series.geo_residue

    def multiplying(values, window, outer=(), var=None, tail=None):
        calls.append("directed" if outer or var else "plain")
        return product(values, window, outer, var, tail)

    def exchanging(*args):
        out = exchange(*args)
        calls.append(("exchange", out is not None))
        return out

    # the routine where it is defined, for the exchange's own `rest` product,
    # and every binding the generated code calls
    monkeypatch.setattr(series, "product", multiplying)
    monkeypatch.setattr(resexpr, "product", multiplying)
    monkeypatch.setattr(resexpr, "geo_residue", exchanging)

    def evaluated(text):
        calls.clear()
        ctx = EvalContext(VARS, dict.fromkeys(VARS, (-4, 4)), 2, {"n": 3})
        node = parse_resexpr(text)
        evaluate(node, ctx)
        return [n for n, *_ in ctx.memo if isinstance(n, RRes)], node

    return calls, evaluated


def test_a_chain_over_a_product_is_one_memo_entry_and_an_exchange_needs_rest_known(monkeypatch, series_path):
    calls, evaluated = _recorded(monkeypatch)
    # over a sum, each residue is a plain `res` with its own memo entry; the
    # sum's terms are plain products, one for each j in 0..n
    kept, node = evaluated("res(y)[res(z)[sum(j,0,n)[y^(j-1)*z^(-1-j)]]]")
    assert calls == ["plain"] * 4 and kept == [node.body, node]
    kept, node = evaluated("res(y)[res(z)[(1+y)^(n)*(1+z)^(-1)*y^(-2)*z^(-3)]]")
    assert calls == ["directed"] and kept == [node]
    # the ratio y*z, the exchange's rest, then, where the exchange does not
    # apply, the product of every value
    evaluated("res(y)[res(z)[res(x)[x^(-1)*(1+x)^(n)*y^(-2)*z^(-2)*geo[y*z]]]]")
    assert calls == ["plain", "directed", ("exchange", False), "directed"]
    # rest clipped in y and z only stays fully known in x, so the exchange applies
    evaluated("res(y)[res(z)[res(x)[x^(-2)*(1+x)^(n)*y^(-1)*(1+z)^(2)*z^(-2)*geo[x*y*z]]]]")
    assert calls == ["plain", "directed", ("exchange", True)]


def test_a_separable_chain_makes_no_product_call(monkeypatch):
    # the coefficient rule takes both chains of the test above whole: one
    # memo entry each, and no series product at all
    calls, evaluated = _recorded(monkeypatch)
    for text in ("res(y)[res(z)[sum(j,0,n)[y^(j-1)*z^(-1-j)]]]",
                 "res(y)[res(z)[(1+y)^(n)*(1+z)^(-1)*y^(-2)*z^(-3)]]"):
        kept, node = evaluated(text)
        assert calls == [] and kept == [node]


def _pairs_formed(script, monkeypatch):
    """The pairs the product kernel forms over every state of the script at
    every instance over 0..2, at window 2."""
    formed = []
    kernel = series._kernel_code

    def counting_kernel(n):
        pairs, shift = kernel(n)

        def counting(left, rows, i, *bounds):
            left = list(left)
            formed.extend(len(rows.get(None if i is None else e[i], ())) for e, _ in left)
            return pairs(left, rows, i, *bounds)

        return counting, shift

    monkeypatch.setattr(series, "_kernel_code", counting_kernel)
    for node in states(script):
        for env in script.instances({p: (0, 2) for p in script.params}):
            evaluate(node, _context(script, env, 2, {}))
    return sum(formed)


@pytest.mark.parametrize("name, pairs", [("proof-eq1", 7_037), ("proof-eq2", 20_687)])
def test_residue_directed_products_bound_the_pairs_formed(catalog, name, pairs, monkeypatch, series_path):
    # clipped to the window alone, the products formed 51,057 and 87,634
    # pairs here; residue-directed, exactly these: a routing change that
    # forms other pairs fails
    assert _pairs_formed(catalog.script(name), monkeypatch) == pairs


@pytest.mark.parametrize("name, pairs", [("proof-eq1", 5_396), ("proof-eq2", 18_475)])
def test_the_coefficient_rule_leaves_these_pairs_to_the_series_engine(catalog, name, pairs, monkeypatch):
    # the IntegralRep and BinomExpand states take no product: the pairs of
    # GeometricCollapse, ResidueEval and the states between them, exactly
    assert _pairs_formed(catalog.script(name), monkeypatch) == pairs


# ---------------------------------------------------------------------------
# Every state text of the grammar evaluates or fails its step


def _state_texts(depth):
    """Texts of the grammar in the module docstring over x, y and z, with
    products, sums, powers and binders nested at most `depth` deep. Exponents
    may name n, which the context binds, or j and k, which only a `sum`
    around them binds."""
    var = st.sampled_from(VARS)
    small = st.integers(-2, 3).map(str)
    exponent = st.one_of(small, st.sampled_from("jkn"))
    leaf = st.one_of(var, st.integers(0, 3).map(str), st.builds("C({},{})".format, small, small),
                     st.builds("(1+{})".format, var), st.builds("{}^({})".format, var, exponent))
    if depth == 0:
        return leaf
    inner = _state_texts(depth - 1)
    product = st.lists(inner, min_size=2, max_size=3).map(lambda fs: "*".join(f"({f})" for f in fs))
    return st.one_of(
        leaf,
        product,
        st.builds("({}){}({})".format, inner, st.sampled_from("+-"), inner),
        st.builds("sum({},{},{})[{}]".format, st.sampled_from("jk"), st.integers(-1, 1),
                  st.integers(-1, 2), inner),
        st.builds("({})^({})".format, inner, exponent),
        # a residue of a product is a residue-directed product, or the exchange
        st.builds("res({})[{}]".format, var, st.one_of(inner, product)),
        st.builds("geo[{}]".format, inner),
    )


# tier-1 draws a fixed sample; `--hypothesis-profile fuzz-long` (conftest.py) a long random one
FUZZ = (settings(deadline=None) if settings.get_current_profile_name() == "fuzz-long"
        else settings(max_examples=200, derandomize=True, deadline=None))


@FUZZ
@given(_state_texts(5))
# a zero ratio, and a residue variable that is not a series variable, in the exchange
@example("res(x)[x^(-1)*(1+x)*geo[C(1,2)*x]]")
@example("res(w)[(1+x)*geo[x]]")
def test_a_state_text_evaluates_or_raises_an_engine_or_eval_error(text):
    node = parse_resexpr(text)
    for window in (0, 2, 4):
        ctx = EvalContext(VARS, dict.fromkeys(VARS, (-window, window)), max(window, 1), {"n": 2})
        try:
            assert isinstance(evaluate(node, ctx), LaurentSeries)
        except (EngineError, EvalError):
            pass


def _oracle_values(node, env):
    """The oracle's values of node at N and N + 3; None where it cannot
    expand the node (a parameter only a sum binds, a base with no expansion
    about its lowest term, a spent budget)."""
    try:
        return [Oracle(degree).value(node, env) for degree in (DEGREE, DEGREE + 3)]
    except (AssertionError, KeyError, ValueError, OverflowError):
        return None


def _with_plane(text):
    """The text and an exponent vector: one of the text's terms that both
    truncations of the oracle agree on, so that most values checked are not
    0, or any small vector where there is none."""
    values = _oracle_values(parse_resexpr(text), {"n": 2})
    terms = sorted(e for e, c in values[0].items() if values[1].get(e) == c) if values else []
    plane = st.sampled_from(terms) if terms else st.tuples(*[st.integers(-2, 2)] * len(VARS))
    return st.tuples(st.just(text), plane)


@FUZZ
@given(_state_texts(5).flatmap(_with_plane))
# the exchange's count of ratio powers, for a ratio rising and one falling in
# the residue variable: shrunk from the long run on copies that took one
# power too few
@example(("geo[z]", (0, 0, 1)))
@example(("geo[(x)*(z^(-1))]", (1, 0, -1)))
def test_a_wrapped_state_text_has_the_oracle_value_or_raises_an_engine_or_eval_error(drawn):
    # res(x)[res(y)[res(z)[...]]] of the text shifted by the drawn plane is
    # the text's coefficient there, a number; a product text's factors join
    # the shift's, so the chain's product may be an exchange
    text, plane = drawn
    shift = "".join(f"{v}^({-1 - e})*" for v, e in zip(VARS, plane))
    body = text if isinstance(parse_resexpr(text), RProd) else f"({text})"
    node = parse_resexpr(f"res(x)[res(y)[res(z)[{shift}{body}]]]")
    values = _oracle_values(node, {"n": 2})
    assume(values is not None and values[0] == values[1])
    for window in (0, 2, 4):
        ctx = EvalContext(VARS, dict.fromkeys(VARS, (-window, window)), max(window, 1), {"n": 2})
        try:
            got = evaluate(node, ctx).constant_value()
        except (EngineError, EvalError):
            continue
        assert got == values[0].get(ORIGIN, 0), window


# ---------------------------------------------------------------------------
# Egorychev's coefficient rule against the series path


# separable chains of one, two and three variables, with and without a
# finite sum, and the (E, M) grid of each: E negative too, -1-M on either
# side of 0 and of E
RULE_CHAINS = [
    ("res(x)[(1+x)^(e)*x^(m)]", {"e": range(-3, 5), "m": range(-7, 3)}),
    ("res(x)[sum(j,0,s)[C(s,j)*(1+x)^(j)*x^(-j)]*x^(m)]", {"s": range(4), "m": range(-5, 2)}),
    ("res(y)[res(x)[(1+x)^(e)*x^(m)*(1+y)^(f)*y^(-3)*y]]", {"e": range(-2, 4), "m": range(-4, 2), "f": (-3, 0, 2)}),
    ("res(y)[res(z)[sum(j,0,s)[C(s,j)*(1+z)^(j)*(y*z)^(s-j)]*(1+y)^(e)*(1+z)^(f)*y^(m)*z^(-1)]]",
     {"s": range(3), "e": (-2, 0, 3), "f": (-1, 2), "m": range(-4, 1)}),
    ("res(x)[res(y)[res(z)[C(e,2)*(1+x)^(e)*(1+y)^(f)*(1+z)^(-1)*(x*y)^(m)*z^(-2)*x]]]",
     {"e": (-2, 1, 3), "f": (-1, 2), "m": range(-4, 1)}),
    ("res(z)[res(x)[res(y)[(1+x)^(e)*(1+y)^(2)*x^(m)*sum(j,0,s)[(1+y)^(j)*(x*z)^(j)*y^(-j-2)]*z^(-1)]]]",
     {"s": range(3), "e": (-2, 1, 3), "m": range(-3, 1)}),
]


def _rule_context(env, vars=VARS, window=8):
    return EvalContext(vars, dict.fromkeys(vars, (-window, window)), 2, env)


@pytest.mark.parametrize("text, grid", RULE_CHAINS)
def test_the_coefficient_rule_equals_the_series_path(text, grid):
    node = parse_resexpr(text)
    assert resexpr._separable(node) is not None
    envs = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    # the window holds every exponent the series path reads; a context
    # without the chain's innermost variable fails on either path alike
    chain = text.rsplit("res(", 1)[1][0]
    without = tuple(v for v in VARS if v != chain)

    def outcomes():
        values = [_outcome(lambda: evaluate(node, _rule_context(env))) for env in envs]
        return values, [_outcome(lambda: evaluate(node, _rule_context(env, without))) for env in envs]

    rule, rule_errors = outcomes()
    with _series_path():
        walked, errors = outcomes()
    assert all(isinstance(v, LaurentSeries) for v in walked)
    assert [v.coeffs for v in rule] == [v.coeffs for v in walked]
    assert rule_errors == errors == [(EngineError, f"'{chain}' is not a series variable")] * len(envs)
    # not a table of zeros
    assert sum(bool(v.coeffs) for v in rule) > len(envs) // 4


# chains the rule leaves to the series engine: a repeated variable, one
# outside the chain, a sum index that an outer exponent names, two sums,
# nested sums, and bases other than 1+v and v
NOT_SEPARABLE = [
    "res(x)[res(x)[(1+x)^(2)*x^(-2)]]",
    "res(x)[(1+x)^(2)*x^(-1)*y]",
    "res(x)[(1+x)^(j)*sum(j,0,2)[x^(-j-1)]]",
    "res(x)[sum(j,0,1)[x^(-1)]*sum(k,0,1)[(1+x)^(k)]]",
    "res(x)[sum(j,0,1)[sum(k,0,1)[(1+x)^(k)*x^(-1)]]]",
    "res(x)[(x+1)^(2)*x^(-2)]",
    "res(x)[(1-x)^(2)*x^(-2)]",
    "res(x)[(1+2*x)^(2)*x^(-2)]",
    "res(x)[((1+x)^(2))^(2)*x^(-2)]",
    "res(x)[isum(k,1)[(1+x)^(k)]*x^(-2)]",
    "res(x)[geo[x]*x^(-1)]",
]


@pytest.mark.parametrize("text", NOT_SEPARABLE)
def test_the_coefficient_rule_leaves_any_other_chain_to_the_series_engine(text):
    node = parse_resexpr(text)
    assert resexpr._separable(node) is None
    got = _outcome(lambda: evaluate(node, _rule_context({"j": 1})))
    with _series_path():
        _assert_same_outcome(got, _outcome(lambda: evaluate(node, _rule_context({"j": 1}))))


@st.composite
def _separable_chains(draw):
    """A chain over one to three of VARS whose body is a product of the
    factors the coefficient rule reads, a (1+v)^(E) for each chain variable
    among them, and maybe a finite sum; now and then with a factor naming a
    variable outside the chain. Also the series variables of the context:
    all of VARS, or all but one."""
    chain = draw(st.permutations(VARS))[:draw(st.integers(1, 3))]
    in_chain = st.sampled_from(chain)
    exponent = st.integers(-3, 3)
    factors = [f"(1+{v})^({draw(exponent)})" for v in chain]
    factors += draw(st.lists(st.one_of(
        st.builds("{}^({})".format, in_chain, st.integers(-4, 1)),
        st.builds("({}*{})^({})".format, in_chain, in_chain, exponent),
        in_chain,
        st.builds("C({},{})".format, st.integers(-2, 3), st.integers(0, 2)),
    ), max_size=4))
    if draw(st.booleans()):
        hi = draw(st.integers(-1, 2))
        factors.append(draw(st.builds(
            "sum(j,0,{0})[C({0},j)*(1+{1})^(j)*({1}*{2})^({0}-j)*{3}^(-j)]".format,
            st.just(hi), in_chain, in_chain, in_chain)))
    outside = [v for v in VARS if v not in chain]
    if outside and draw(st.integers(0, 4)) == 0:
        factors.append(draw(st.builds("(1+{})^({})".format, st.sampled_from(outside), exponent)))
    shift = "".join(f"{v}^({draw(st.integers(-4, 0))})*" for v in chain)
    text = "".join(f"res({v})[" for v in chain) + shift + "*".join(factors) + "]" * len(chain)
    vars = draw(st.sampled_from([VARS] + [tuple(w for w in VARS if w != v) for v in VARS]))
    return text, vars


@FUZZ
@given(_separable_chains())
# a variable outside the chain, and a chain variable that is not a series variable
@example(("res(x)[x^(-1)*(1+x)^(2)*(1+y)^(1)]", VARS))
@example(("res(x)[res(y)[x^(-1)*y^(-2)*(1+x)^(1)*(1+y)^(2)]]", ("x", "z")))
def test_a_drawn_separable_chain_has_the_series_paths_value(drawn):
    # where the series path gives a value, or fails other than by its
    # window, the rule gives the same value or the same error
    text, vars = drawn
    node = parse_resexpr(text)

    def outcomes():
        return [_outcome(lambda: evaluate(node, _rule_context({}, vars, window))) for window in (2, 4, 8)]

    rule = outcomes()
    with _series_path():
        walked = outcomes()
    for got, want in zip(rule, walked):
        if isinstance(want, LaurentSeries):
            assert isinstance(got, LaurentSeries) and got.coeffs == want.coeffs, (got, want)
        elif want[0] is not WindowError:
            assert got == want
