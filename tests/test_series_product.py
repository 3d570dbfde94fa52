"""The product kernel `LaurentSeries.__mul__` against multiply, clip, residue.

`oracle_mul` is the engine's product before the kernel: every pair of terms
is formed and tested against the product's accuracy box. `oracle_product`
then clips to the window and takes the residue with the engine's own
`clipped` and `res`. The kernel must give the same series: the same
coefficient table, the same support and accuracy boxes, and the same errors
with the same messages. The operands include exact single terms c*mu, which
take the kernel's shift branch, and single stored coefficients of inexact
series, which take the pair loop.

The kernel's loops are generated per variable count, so the comparison
runs at 0, 1, 2, 3 and 4 variables, and a window that cuts one variable
at a time is checked at every position up to 5 variables.

Every series also carries `is_zero` and `is_exact`, stored when it is built;
they must equal their definitions from the table and the boxes. Series are
shared (the evaluation memo, the shared 0 and 1), so no operation may change
the series it is given.
"""
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomid.series import (
    INF,
    DivergentSumError,
    EngineError,
    LaurentSeries,
    NonUnitError,
    WindowError,
    geometric_collapse,
    res,
)

from conftest import series_expand
from test_series import XYZ, products_of_powers
from test_series_pow import assert_same_series, coefficients, shifted, windows


def oracle_mul(a, b):
    a._check_compatible(b)
    if a.is_zero or b.is_zero:
        return LaurentSeries.zero(a.vars)
    acc_lo, acc_hi = [], []
    for i in range(len(a.vars)):
        uppers = []
        if not (a.sup_hi[i] <= a.acc_hi[i]):
            uppers.append(a.acc_hi[i] + b.sup_lo[i])
        if not (b.sup_hi[i] <= b.acc_hi[i]):
            uppers.append(b.acc_hi[i] + a.sup_lo[i])
        acc_hi.append(min(uppers) if uppers else INF)
        lowers = []
        if not (a.sup_lo[i] >= a.acc_lo[i]):
            lowers.append(a.acc_lo[i] + b.sup_hi[i])
        if not (b.sup_lo[i] >= b.acc_lo[i]):
            lowers.append(b.acc_lo[i] + a.sup_hi[i])
        acc_lo.append(max(lowers) if lowers else -INF)
    coeffs = {}
    lo, hi = tuple(acc_lo), tuple(acc_hi)
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(map(operator.add, e1, e2))
            if all(map(operator.le, lo, e)) and all(map(operator.le, e, hi)):
                coeffs[e] = coeffs.get(e, 0) + c1 * c2
    sup_lo = tuple(map(operator.add, a.sup_lo, b.sup_lo))
    sup_hi = tuple(map(operator.add, a.sup_hi, b.sup_hi))
    return LaurentSeries(a.vars, coeffs, sup_lo, sup_hi, lo, hi)


def oracle_product(a, b, window=None, var=None):
    out = oracle_mul(a, b)
    if window is not None:
        out = out.clipped(window)
    return out if var is None else res(out, var)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (WindowError, EngineError) as exc:
        return type(exc), str(exc)


# -- strategies ------------------------------------------------------------------


@st.composite
def operands(draw, vars=XYZ):
    """A product of powers as the evaluator builds it, shifted so that its
    support often spans exponent -1; that series clipped to a window; zero;
    a clip that misses the whole table (a series that is not exact yet
    stores no coefficient); an exact single term c*mu with an int or a
    Fraction c; or a two-term series clipped to its lower term (one stored
    coefficient, not exact). The last two kinds need a variable."""
    n = len(vars)
    kind = draw(st.sampled_from(["power"] * 4 + ["clipped"] * 3 + ["term"] * 2
                                + ["zero"] + (["missed", "one-inexact"] if n else [])))
    if kind == "zero":
        return LaurentSeries.zero(vars)
    if kind in ("term", "one-inexact"):
        mu = dict(zip(vars, draw(st.tuples(*[st.integers(-3, 3)] * n))))
        c = draw(st.one_of(st.integers(-5, 5).filter(bool), coefficients))
        s = LaurentSeries.monomial(vars, mu, c)
        if kind == "term":
            return s
        step = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
        top = {v: mu[v] + d for v, d in zip(vars, step)}
        s = s + LaurentSeries.monomial(vars, top, draw(coefficients))
        return s.clipped({v: (-INF, mu[v]) for v in vars})
    w = draw(st.integers(2, 3))
    s = series_expand(draw(products_of_powers(vars)), {v: (-w, w) for v in vars})
    s = shifted(s, dict(zip(vars, draw(st.tuples(*[st.integers(-3, 1)] * n)))))
    if kind == "clipped":
        return s.clipped(draw(windows(vars)) or {})
    if kind == "missed":
        top = max((e[0] for e in s.coeffs), default=0) + 1
        return s.clipped({vars[0]: (top, top + 2)})
    return s


def flags_hold(s):
    """`is_zero` and `is_exact` as the table and the boxes define them."""
    zero = not s.coeffs and all(lo > hi for lo, hi in zip(s.sup_lo, s.sup_hi))
    exact = (all(a <= b for a, b in zip(s.acc_lo, s.sup_lo))
             and all(a <= b for a, b in zip(s.sup_hi, s.acc_hi)))
    return s.is_zero is zero and s.is_exact is exact


# -- properties --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(operands(), operands(), windows(), st.sampled_from([None, "x", "y", "z"]))
def test_product_matches_multiply_clip_residue(a, b, window, var):
    assert_same_product(a, b, window, var)


def assert_same_product(a, b, window, var):
    want = outcome(oracle_product, a, b, window, var)
    got = outcome(a.__mul__, b, window, var)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_series(got, want)


# the kernel's loops are generated per variable count; XYZ above is one of them
VARIABLE_TUPLES = [(), ("x",), ("x", "y"), ("x", "y", "z", "w")]


@pytest.mark.parametrize("vars", VARIABLE_TUPLES, ids=lambda vars: f"{len(vars)}vars")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matches_oracle_at_every_variable_count(vars, data):
    a, b = data.draw(operands(vars)), data.draw(operands(vars))
    window = data.draw(windows(vars))
    assert_same_product(a, b, window, data.draw(st.sampled_from([None, *vars])))


@pytest.mark.parametrize("n", range(1, 6))
def test_window_cuts_each_variable_of_a_product(n):
    """For each variable in turn, products that only the window on that
    variable cuts, from above and below: (1+v)^2 through the pair loop and
    (1+v)*3v through the shift, both leaving only the v^1 term."""
    vars = tuple(f"v{j}" for j in range(n))
    for j, v in enumerate(vars):
        base = LaurentSeries.constant(vars, 1) + LaurentSeries.monomial(vars, {v: 1})
        term = LaurentSeries.monomial(vars, {v: 1}, 3)
        for b, c in ((base, 2), (term, 3)):
            got = base.__mul__(b, {v: (1, 1)})
            assert_same_series(got, oracle_product(base, b, {v: (1, 1)}))
            assert got.coeffs == {tuple(int(k == j) for k in range(n)): c}


def test_series_in_no_variable_is_a_number():
    assert series_expand("2*3+4", {}).constant_value() == 10
    assert series_expand("(2)^(-2)*(1-3)^(3)", {}).constant_value() == -2


@pytest.mark.parametrize("left", [LaurentSeries.zero(XYZ), LaurentSeries.constant(XYZ, 2)])
def test_unknown_residue_variable_raises_before_zero_shortcut(left):
    right = LaurentSeries.monomial(XYZ, {"x": -1})
    with pytest.raises(EngineError, match="no variable 'w'"):
        left.__mul__(right, var="w")
    with pytest.raises(EngineError, match="no variable 'w'"):
        oracle_product(left, right, var="w")


@settings(max_examples=200, deadline=None)
@given(operands(), operands(), windows(), st.sampled_from(["x", "y", "z"]), st.integers(-3, 3))
def test_stored_flags_match_their_definitions(a, b, window, var, e):
    made = [a, b, a + b, a.scaled(e or 2), a.clipped(window or {})]
    for fn, args in ((a.__mul__, (b, window, var)), (a.__mul__, (b, window)), (a.__mul__, (b,)),
                     (res, (a, var)), (a.pow, (e, window))):
        try:
            made.append(fn(*args))
        except (WindowError, NonUnitError):
            pass
    for s in made:
        assert flags_hold(s), s
        # every stored coefficient is known: the table lies inside the accuracy box
        assert all(all(map(operator.le, s.acc_lo, expo)) and all(map(operator.le, expo, s.acc_hi))
                   for expo in s.coeffs), s


def state(s):
    """The table in insertion order, the variables, the four boxes and the flags."""
    return (list(s.coeffs.items()), s.vars, s.sup_lo, s.sup_hi, s.acc_lo, s.acc_hi,
            s.is_exact, s.is_zero)


@settings(max_examples=200, deadline=None)
@given(operands(), operands(), windows(), st.sampled_from(["x", "y", "z"]), st.integers(-3, 3))
def test_no_operation_changes_its_operands(a, b, window, var, e):
    """Results are shared (the evaluation memo, the shared 0 and 1), so no
    operation may change a series it is given."""
    before = state(a), state(b)
    box = window or {}
    for fn, args in ((a.__mul__, (b,)), (a.__mul__, (b, window)), (a.__mul__, (b, None, var)),
                     (a.__mul__, (b, window, var)), (a.__add__, (b,)), (a.scaled, (e,)),
                     (a.clipped, (box,)), (res, (a, var)), (a.pow, (e, window)),
                     (geometric_collapse, (a, box))):
        try:
            fn(*args)
        except (WindowError, EngineError, NonUnitError, DivergentSumError):
            pass
        assert (state(a), state(b)) == before, (fn, args)


@pytest.mark.parametrize("vars", VARIABLE_TUPLES + [XYZ], ids=lambda vars: f"{len(vars)}vars")
def test_zero_and_one_are_shared_per_variable_tuple(vars):
    zero, one = LaurentSeries.zero(vars), LaurentSeries.constant(vars, 1)
    assert LaurentSeries.zero(list(vars)) is zero
    assert LaurentSeries.constant(vars, 0) is zero
    assert LaurentSeries.monomial(vars, {}, 0) is zero
    assert LaurentSeries.constant(vars, 1) is one
    assert LaurentSeries.constant(vars, 2).pow(0) is one
    assert zero.is_zero and one.constant_value() == 1 and type(one.coeffs[(0,) * len(vars)]) is int
    assert LaurentSeries.constant(vars, Fraction(1)) is not one
