"""The closed-form power of one- and two-term bases against multiply-and-clip.

`oracle_pow` is the general power algorithm, kept as the oracle; it applies
to every base: repeated products clipped to the window for e > 0, and for
e < 0 the truncated binomial series of the unit part of any invertible base,
built one clipped product per term. The closed form must give the same
series: the same coefficient table and the same support and accuracy boxes,
and the same errors. A negative power of a base outside the closed form's
domain is a NonUnitError in the engine, as the oracle finds for the bases
drawn here.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomid.arith import binomial
from binomid.series import INF, LaurentSeries, NonUnitError, WindowError, window_box

XYZ = ("x", "y", "z")


def oracle_pow(s, e, window=None):
    if e == 0:
        return LaurentSeries.constant(s.vars, 1)
    if e > 0:
        out = s
        for _ in range(e - 1):
            out = out * s
            if window is not None:
                out = out.clipped(window)
        return out
    if window is None:
        raise WindowError("negative power needs a truncation window")
    return _oracle_unit_pow(s, e, window)


def shifted(s, delta):
    """s times the monomial with the exponents `delta`."""
    if s.is_zero:
        return s
    d = tuple(delta.get(v, 0) for v in s.vars)
    coeffs = {tuple(x + y for x, y in zip(e, d)): c for e, c in s.coeffs.items()}
    move = lambda bounds: tuple(b + x for b, x in zip(bounds, d))
    return LaurentSeries(s.vars, coeffs, move(s.sup_lo), move(s.sup_hi),
                         move(s.acc_lo), move(s.acc_hi))


def _oracle_unit_factor(s):
    if s.is_zero:
        raise NonUnitError("cannot invert the zero series")
    if any(lo == -INF for lo in s.sup_lo):
        raise NonUnitError("cannot invert: support is unbounded below")
    mu = tuple(int(lo) for lo in s.sup_lo)
    if not s._known(mu):
        raise WindowError("lowest coefficient is outside the accuracy window")
    c = s.coeffs.get(mu, 0)
    if c == 0:
        raise NonUnitError("cannot invert: lowest term has zero coefficient")
    inv_c = Fraction(1, 1) / Fraction(c)
    inv_c = int(inv_c) if inv_c.denominator == 1 else inv_c
    t = shifted(s, {v: -m for v, m in zip(s.vars, mu)}).scaled(inv_c)
    t = t + LaurentSeries.constant(s.vars, -1)
    if any(lo < 0 for lo in t.sup_lo):
        raise NonUnitError("cannot invert: support minimum is not a single monomial")
    if not t._known(tuple(0 for _ in s.vars)):
        raise WindowError("cannot certify the unit: constant term unknown")
    return c, mu, t


def _oracle_unit_pow(s, e, window):
    c, mu, t = _oracle_unit_factor(s)
    win_lo, win_hi = window_box(s.vars, window)
    carriers = [i for i in range(len(s.vars)) if t.sup_hi[i] > 0]
    caps = []
    for i in carriers:
        cap = win_hi[i] - e * mu[i]
        if cap == INF:
            raise WindowError(f"negative power needs a finite window for '{s.vars[i]}'")
        caps.append(max(int(cap), 0))
    if len(carriers) == 1:
        depth = caps[0] // max(int(t.sup_lo[carriers[0]]), 1) + 1
    else:
        depth = sum(caps) + 1
    shifted_window = {v: (win_lo[i] - e * mu[i], win_hi[i] - e * mu[i])
                      for i, v in enumerate(s.vars)}
    total = LaurentSeries.constant(s.vars, 1)
    power = LaurentSeries.constant(s.vars, 1)
    for i in range(1, depth + 1):
        power = (power * t).clipped(shifted_window)
        total = total + power.scaled(binomial(e, i))
    scale = Fraction(c) ** e
    scale = int(scale) if scale.denominator == 1 else scale
    total = shifted(total.scaled(scale), {v: e * m for v, m in zip(s.vars, mu)})
    total = total.clipped(window)
    sup_lo = tuple(e * m for m in mu)
    sup_hi = tuple(e * m if t.sup_hi[i] <= 0 else INF for i, m in enumerate(mu))
    return LaurentSeries(s.vars, total.coeffs, sup_lo, sup_hi, total.acc_lo, total.acc_hi)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NonUnitError, WindowError) as exc:
        return type(exc)


def assert_same_series(got, want):
    assert got.coeffs == want.coeffs
    assert (got.sup_lo, got.sup_hi) == (want.sup_lo, want.sup_hi)
    assert (got.acc_lo, got.acc_hi) == (want.acc_lo, want.acc_hi)


# -- strategies ------------------------------------------------------------------

coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
)
exponents = st.tuples(*[st.integers(-3, 3)] * len(XYZ))
steps = st.tuples(*[st.integers(0, 3)] * len(XYZ)).filter(any)


@st.composite
def bases(draw):
    """c*mu, or c*mu + c2*mu*m with m >= 0 in every variable (the closed
    form's domain), or two terms where neither is below the other."""
    mu = draw(exponents)
    c = draw(coefficients)
    base = LaurentSeries.monomial(XYZ, dict(zip(XYZ, mu)), c)
    kind = draw(st.sampled_from(["one", "two", "two", "any"]))
    if kind != "one":
        top = tuple(a + d for a, d in zip(mu, draw(steps))) if kind == "two" else draw(exponents)
        base = base + LaurentSeries.monomial(XYZ, dict(zip(XYZ, top)), draw(coefficients))
    return base


@st.composite
def windows(draw, vars=XYZ):
    """None, or per variable of `vars`: omitted, finite, or open above or below."""
    if draw(st.integers(0, 9)) == 0:
        return None
    window = {}
    for v in vars:
        kind = draw(st.sampled_from(["finite", "finite", "none", "above", "below"]))
        lo, hi = sorted((draw(st.integers(-12, 12)), draw(st.integers(-12, 12))))
        if kind == "finite":
            window[v] = (lo, hi)
        elif kind == "above":
            window[v] = (lo, INF)
        elif kind == "below":
            window[v] = (-INF, hi)
    return window


# -- properties --------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(bases(), st.integers(-6, 6), windows())
def test_closed_form_pow_matches_multiply_and_clip(base, e, window):
    want = outcome(oracle_pow, base, e, window)
    got = outcome(base.pow, e, window)
    if isinstance(want, type):
        assert got is want
    else:
        assert_same_series(got, want)


def test_sum_of_two_variables_has_no_inverse():
    base = LaurentSeries.monomial(XYZ, {"x": 1}) + LaurentSeries.monomial(XYZ, {"y": 1})
    window = {v: (-4, 4) for v in XYZ}
    with pytest.raises(NonUnitError):
        oracle_pow(base, -1, window)
    with pytest.raises(NonUnitError):
        base.pow(-1, window)


@pytest.mark.parametrize("window", [None, {}, {"x": (0, INF)}])
def test_negative_power_needs_a_bounded_window(window):
    base = LaurentSeries.constant(XYZ, 1) + LaurentSeries.monomial(XYZ, {"x": 1})
    with pytest.raises(WindowError):
        oracle_pow(base, -2, window)
    with pytest.raises(WindowError):
        base.pow(-2, window)


COEFFICIENTS = [1, -1, 2, -2, 3, -6, 12, Fraction(1, 2), Fraction(-3, 4), Fraction(4, 2), Fraction(-6, 3)]


def _exact_reference(x: Fraction):
    """What a stored coefficient must be: an int when integral, else a Fraction."""
    return x.numerator if x.denominator == 1 else x


@pytest.mark.parametrize("lead", COEFFICIENTS)
@pytest.mark.parametrize("other", COEFFICIENTS)
def test_two_term_base_ratio_and_powers_match_fraction_arithmetic(lead, other):
    # c*x + a*x^2*y: u = a/c, and every stored coefficient of a power is
    # c^e * C(e,i) * u^i, with the type plain Fraction arithmetic gives it
    s = LaurentSeries(XYZ, {(1, 0, 0): lead, (2, 1, 0): other}, (1, 0, 0), (2, 1, 0),
                      (-INF,) * 3, (INF,) * 3)
    c, mu, u, m = s._binomial_base()
    want = _exact_reference(Fraction(other) / Fraction(lead))
    assert (c, mu, m) == (lead, (1, 0, 0), (1, 1, 0))
    assert u == want and type(u) is type(want)
    window = {v: (-6, 6) for v in XYZ}
    for e in (-3, -2, -1, 2, 3):
        power = s.pow(e, window)
        assert power.coeffs
        for exp, coeff in power.coeffs.items():
            i = exp[1]
            ref = _exact_reference(Fraction(lead) ** e * binomial(e, i) * Fraction(want) ** i)
            assert coeff == ref and type(coeff) is type(ref), (e, exp)
