"""The product kernel `LaurentSeries.__mul__` against multiply, clip, residue.

`oracle_mul` is the engine's product before the kernel: every pair of terms
is formed and tested against the product's accuracy box. `oracle_product`
then clips to the window and takes the residue with the engine's own
`clipped` and `res`. The kernel must give the same series: the same
coefficient table, the same support and accuracy boxes, and the same errors
with the same messages.
"""
import operator

import pytest
from hypothesis import given, settings, strategies as st

from binomid.resexpr import series_expand
from binomid.series import INF, EngineError, LaurentSeries, WindowError, res

from test_series import XYZ, products_of_powers
from test_series_pow import assert_same_series, shifted, windows


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
def operands(draw):
    """A product of powers as the evaluator builds it, shifted so that its
    support often spans exponent -1; that series clipped to a window; zero;
    or a clip that misses the whole table (a series that is not exact yet
    stores no coefficient)."""
    kind = draw(st.sampled_from(["power"] * 4 + ["clipped"] * 3 + ["zero", "missed"]))
    if kind == "zero":
        return LaurentSeries.zero(XYZ)
    w = draw(st.integers(2, 3))
    s = series_expand(draw(products_of_powers()), {v: (-w, w) for v in XYZ})
    s = shifted(s, dict(zip(XYZ, draw(st.tuples(*[st.integers(-3, 1)] * len(XYZ))))))
    if kind == "clipped":
        return s.clipped(draw(windows()) or {})
    if kind == "missed":
        top = max((e[0] for e in s.coeffs), default=0) + 1
        return s.clipped({"x": (top, top + 2)})
    return s


# -- properties --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(operands(), operands(), windows(), st.sampled_from([None, "x", "y", "z"]))
def test_product_matches_multiply_clip_residue(a, b, window, var):
    want = outcome(oracle_product, a, b, window, var)
    got = outcome(a.__mul__, b, window, var)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_series(got, want)


@pytest.mark.parametrize("left", [LaurentSeries.zero(XYZ), LaurentSeries.constant(XYZ, 2)])
def test_unknown_residue_variable_raises_before_zero_shortcut(left):
    right = LaurentSeries.monomial(XYZ, {"x": -1})
    with pytest.raises(EngineError, match="no variable 'w'"):
        left.__mul__(right, var="w")
    with pytest.raises(EngineError, match="no variable 'w'"):
        oracle_product(left, right, var="w")
