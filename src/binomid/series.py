"""Truncated multivariate Laurent series over exact rationals.

A series value carries, per variable, a support box (a mathematical
guarantee: no nonzero coefficient outside it) and an accuracy box (the
region in which stored coefficients equal those of the untruncated
expression). A coefficient is *known* when its exponent vector lies inside
the accuracy box, or outside the support box (then it is zero). Arithmetic
narrows accuracy exactly as far as soundness demands; any query for an
unknown coefficient raises instead of silently returning 0. `is_exact`
(accuracy covers support) and `is_zero` (no table, support empty in every
variable) are computed once, when a series is built, and stored.

Truncation is per-variable, not total-degree: the expressions this engine
exists for mix negative powers of distinct variables with bounded positive
ranges elsewhere. Coefficients are exact (int or Fraction); Fractions only
appear in negative powers of bases whose leading coefficient is not +-1.

One power rule: a negative power exists only in closed form. An exact base
c*mu*(1 + u*m), with mu the monomial at its support minimum and m >= 0 in
every variable (m = 0 for a single term), has the coefficient
c^e * C(e,i) * u^i at mu^e * m^i, for either sign of e. Only the exponents
inside the result's accuracy box are emitted, and that box is derived from
the window exactly as repeated multiply-and-clip (or, for e < 0, the
truncated binomial series) would narrow it (see `_binomial_pow`), so every
path gives the same series. Any other base takes multiply-and-clip for e > 0;
its negative powers raise NonUnitError. The integral representations only
invert two-term bases such as (1+z)^(b-d) and monomials.

Every product goes through one kernel, `__mul__(other, window, var)`, which
returns `res((self * other).clipped(window), var)` without forming the pairs
that the clip or the residue would drop; `a * b` is the call without window
or residue. It computes the product's boxes once, in one place: the
product's formulas intersected with the window, then the residue's. The
boxes then feed one of two generated per-coefficient loops. When one factor
is an exact single term c*mu (most factors in a proof state: monomials,
binomial constants), `shift` moves the other table by mu and scales it by c;
any other product takes `pairs`, which tests each left row once against
bounds on the right table, so a row wholly inside the box skips the per-pair
test. With `var`, only pairs landing on var^-1 are formed. Skipping pairs
cannot change a box: normalization reads the table only to tighten the
support of an exact series, and a product of exact series already has the
tight support sup(a) + sup(b), since Laurent polynomials over Q have no zero
divisors; a product with an inexact factor is inexact. Both loops are
generated once per variable count on first use (`_kernel_code`): exponents
are unpacked into locals and the box is tested with chained comparisons.

A product of several series is one routine, `product`: proof states, `pow`
and residue chains (`geo_residue` over a geometric sum) call it. Every box
rule lives in this module: `__mul__`, `_residue_boxes`, `_reach`, `_geo_support`.

No operation changes a series it is given; results are shared freely (the
proof evaluator's memo holds them across scopes). The series 0 and 1 are
built once per variable tuple: `zero`, `constant` of 0 or of the int 1,
`pow(0)` and a monomial with coefficient 0 return the same object.
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Mapping, Optional, Union

from .arith import binomial

INF = float("inf")
_UNBOUNDED = (-INF, INF)  # the bounds of a variable a window does not name

Number = Union[int, Fraction]
Expo = tuple[int, ...]
Bound = Union[int, float]


class EngineError(ValueError):
    """The engine was asked something it cannot answer for these operands.
    Every failure of the engine, here and in `resexpr`, is one: a proof step
    catches this class (and `EvalError`) alone."""


class WindowError(EngineError):
    """A coefficient outside the accuracy window was requested."""


class NonUnitError(EngineError):
    """A negative power of a base that is not c*mu*(1 + u*m)."""


class DivergentSumError(EngineError):
    """A formal geometric sum whose ratio never leaves the window."""


class DegenerateWindowError(EngineError):
    """Two series were compared on an empty shared accuracy region."""


def _exact(x: Number) -> Number:
    """An integral Fraction as an int, so products stay on the int path."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def _first_above(step: Bound, bound: Bound, last: int) -> Optional[int]:
    """Smallest k in [2, last] with k * step > bound, or None."""
    if 2 * step > bound:
        return 2
    if step <= 0 or bound == INF:
        return None
    k = int(bound) // step + 1
    return k if k <= last else None


Window = Union[Mapping[str, tuple[int, int]], tuple[tuple[Bound, ...], tuple[Bound, ...]]]


@functools.lru_cache(maxsize=None)
def _unbounded(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The unbounded box in n variables, (-inf, ...) and (inf, ...), built
    once per n: a box is a tuple, which no operation changes, so every
    exact series can hold the same two."""
    return (-INF,) * n, (INF,) * n


def window_box(vars, window: Window) -> tuple[tuple[Bound, ...], tuple[Bound, ...]]:
    """The window as (lo, hi) bounds in the order of `vars`, unbounded for a
    variable it does not name. Every function taking a window also takes
    this box, which is returned as it is: a caller that uses one window for
    many operations computes the box once."""
    if isinstance(window, tuple):
        return window
    if not vars:
        return (), ()
    lo, hi = zip(*[window.get(v, _UNBOUNDED) for v in vars])
    return lo, hi


@functools.lru_cache(maxsize=32)
def _kernel_code(n: int):
    """The product kernel's loops for n variables, `pairs` and `shift`,
    generated and compiled on first use for each n.

    `pairs(left, rows, i, lo, hi, right_lo, right_hi)` multiplies each left
    term by its row of right terms (rows[None], or rows[e1[i]] with the i-th
    exponent zeroed) and keeps the products inside [lo, hi]; a row whose
    every product lies inside (by the right table's bounds) skips the test.
    `shift(items, mu, c, lo, hi, inside)` moves a table by mu and scales it
    by c, keeping the terms inside [lo, hi] unless `inside`. Exponents are
    unpacked into locals and the box is tested with chained comparisons.
    """
    k = range(n)
    unpack = lambda p: "[" + ", ".join(f"{p}{j}" for j in k) + "]"
    expo = lambda terms: "(" + ", ".join(terms) + ("," if n == 1 else "") + ")"
    all_of = lambda tests: " and ".join(tests) or "True"
    in_box = all_of(f"lo{j} <= (s{j} := a{j} + b{j}) <= hi{j}" for j in k)
    row_inside = all_of(f"lo{j} <= a{j} + rl{j} and a{j} + rh{j} <= hi{j}" for j in k)
    added = expo([f"a{j} + b{j}" for j in k])
    sums = expo([f"s{j}" for j in k])
    source = "\n".join([
        "def pairs(left, rows, i, lo, hi, right_lo, right_hi):",
        f"    {unpack('lo')} = lo",
        f"    {unpack('hi')} = hi",
        f"    {unpack('rl')} = right_lo",
        f"    {unpack('rh')} = right_hi",
        "    coeffs = {}",
        "    get = coeffs.get",
        "    for e1, c1 in left:",
        "        row = rows.get(None if i is None else e1[i])",
        "        if not row:",
        "            continue",
        f"        {unpack('a')} = e1 if i is None else e1[:i] + (0,) + e1[i + 1 :]",
        f"        if {row_inside}:",
        f"            for {unpack('b')}, c2 in row:",
        f"                e = {added}",
        "                coeffs[e] = get(e, 0) + c1 * c2",
        "        else:",
        f"            for {unpack('b')}, c2 in row:",
        f"                if {in_box}:",
        f"                    e = {sums}",
        "                    coeffs[e] = get(e, 0) + c1 * c2",
        "    return coeffs",
        "",
        "",
        "def shift(items, mu, c, lo, hi, inside):",
        f"    {unpack('a')} = mu",
        "    if inside:",
        f"        return {{{added}: c2 * c for {unpack('b')}, c2 in items}}",
        f"    {unpack('lo')} = lo",
        f"    {unpack('hi')} = hi",
        f"    return {{{sums}: c2 * c for {unpack('b')}, c2 in items if {in_box}}}",
    ]) + "\n"
    namespace = {}
    exec(compile(source, f"<binomid product kernel, {n} variables>", "exec"), namespace)
    return namespace["pairs"], namespace["shift"]


class LaurentSeries:
    __slots__ = ("vars", "coeffs", "sup_lo", "sup_hi", "acc_lo", "acc_hi", "is_exact", "is_zero")

    def __init__(self, vars, coeffs, sup_lo, sup_hi, acc_lo, acc_hi):
        """The caller keeps `coeffs` inside the accuracy box: normalization
        drops zeros but does not filter the table."""
        self.vars = tuple(vars)
        self.coeffs = coeffs
        self.sup_lo = tuple(sup_lo)
        self.sup_hi = tuple(sup_hi)
        self.acc_lo = tuple(acc_lo)
        self.acc_hi = tuple(acc_hi)
        self._normalize()

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(vars) -> "LaurentSeries":
        return _shared_constant(tuple(vars), 0)

    @staticmethod
    def constant(vars, value) -> "LaurentSeries":
        """The constant series; the constants 0 and 1 are shared."""
        if type(value) is int and value in (0, 1):
            return _shared_constant(tuple(vars), value)
        return LaurentSeries.monomial(vars, {}, value)

    @staticmethod
    def monomial(vars, exps: Mapping[str, int], coeff=1) -> "LaurentSeries":
        vars = tuple(vars)
        if coeff == 0:
            return LaurentSeries.zero(vars)
        unknown = set(exps) - set(vars)
        if unknown:
            raise EngineError(f"monomial uses undeclared variable(s) {sorted(unknown)}")
        e = tuple(exps.get(v, 0) for v in vars)
        n = len(vars)
        return LaurentSeries(vars, {e: coeff}, e, e, *_unbounded(n))

    # -- invariants ----------------------------------------------------------

    def _normalize(self) -> None:
        """Drop zero coefficients; store `is_exact` and `is_zero`."""
        coeffs = self.coeffs
        if 0 in coeffs.values():
            for e in [e for e, c in coeffs.items() if c == 0]:
                del coeffs[e]
        n = len(self.vars)
        le = operator.le
        exact = all(map(le, self.acc_lo, self.sup_lo)) and all(map(le, self.sup_hi, self.acc_hi))
        if not coeffs and (exact or all(map(operator.gt, self.sup_lo, self.sup_hi))):
            lo, hi = _unbounded(n)
            self.sup_lo, self.sup_hi, self.acc_lo, self.acc_hi = hi, lo, lo, hi
            exact = True
        elif exact:
            # fully known: tighten support to the actual table, widen accuracy
            if len(coeffs) == 1:
                self.sup_lo = self.sup_hi = next(iter(coeffs))
            else:
                columns = list(zip(*coeffs))
                self.sup_lo = tuple(map(min, columns))
                self.sup_hi = tuple(map(max, columns))
            self.acc_lo, self.acc_hi = _unbounded(n)
        self.is_exact = exact
        self.is_zero = not coeffs and all(map(operator.gt, self.sup_lo, self.sup_hi))

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise EngineError(f"series has no variable '{var}'") from None

    def _known(self, e: Expo) -> bool:
        if all(lo <= x <= hi for x, lo, hi in zip(e, self.acc_lo, self.acc_hi)):
            return True
        return any(x < lo or x > hi for x, lo, hi in zip(e, self.sup_lo, self.sup_hi))

    # -- queries -------------------------------------------------------------

    def coeff(self, monomial: Mapping[str, int]) -> Fraction:
        """Exact coefficient of the monomial; raises WindowError if unknown."""
        e = tuple(monomial.get(v, 0) for v in self.vars)
        if not self._known(e):
            pretty = " ".join(f"{v}^{x}" for v, x in zip(self.vars, e))
            raise WindowError(f"coefficient of {pretty.strip() or '1'} is outside the accuracy window")
        return Fraction(self.coeffs.get(e, 0))

    def constant_value(self) -> Fraction:
        """The value of a series with no variable dependence."""
        for e, c in self.coeffs.items():
            if any(x != 0 for x in e):
                raise EngineError("series is not constant")
        return self.coeff({})

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        terms = []
        for e, c in self.items()[:8]:
            mono = "*".join(f"{v}^{x}" for v, x in zip(self.vars, e) if x != 0)
            terms.append(f"{c}" + (f"*{mono}" if mono else ""))
        more = "..." if len(self.coeffs) > 8 else ""
        return f"<LaurentSeries {' + '.join(terms) or '0'}{more}>"

    # -- ring operations -------------------------------------------------------

    def _check_compatible(self, other: "LaurentSeries") -> None:
        if self.vars != other.vars:
            raise EngineError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        sup_lo = tuple(map(min, self.sup_lo, other.sup_lo))
        sup_hi = tuple(map(max, self.sup_hi, other.sup_hi))
        acc_lo = tuple(map(max, self.acc_lo, other.acc_lo))
        acc_hi = tuple(map(min, self.acc_hi, other.acc_hi))
        if not (self.is_exact and other.is_exact):
            # the sum is known only where both operands are
            le = operator.le
            coeffs = {e: c for e, c in coeffs.items()
                      if all(map(le, acc_lo, e)) and all(map(le, e, acc_hi))}
        return LaurentSeries(self.vars, coeffs, sup_lo, sup_hi, acc_lo, acc_hi)

    def __neg__(self) -> "LaurentSeries":
        return self.scaled(-1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scaled(self, value) -> "LaurentSeries":
        if value == 0:
            return LaurentSeries.zero(self.vars)
        coeffs = {e: c * value for e, c in self.coeffs.items()}
        return LaurentSeries(self.vars, coeffs, self.sup_lo, self.sup_hi, self.acc_lo, self.acc_hi)

    def __mul__(self, other: "LaurentSeries", window: Optional[Window] = None,
                var: Optional[str] = None) -> "LaurentSeries":
        """`res((self * other).clipped(window), var)`, forming only the pairs
        that land in the result; `window` and `var` may each be None. The
        boxes are computed once here; an exact single-term factor c*mu then
        takes the generated `shift` loop, any other product the `pairs` loop."""
        self._check_compatible(other)
        i = None if var is None else self._var_index(var)
        if self.is_zero or other.is_zero:
            return self if self.is_zero else other
        a, b = self, other
        term = len(b.coeffs) == 1 and b.is_exact
        if not term and len(a.coeffs) == 1 and a.is_exact:
            a, b, term = b, a, True  # the exact single term goes on the right
        vars, add, le = a.vars, operator.add, operator.le
        sup_lo = tuple(map(add, a.sup_lo, b.sup_lo))
        sup_hi = tuple(map(add, a.sup_hi, b.sup_hi))
        n = len(vars)
        lo, hi = _unbounded(n) if window is None else window_box(vars, window)
        if not (a.is_exact and b.is_exact):
            # a factor not fully known on one side bounds the product's accuracy there
            lo = tuple(max(w, al + th if sl < al else -INF, bl + sh if tl < bl else -INF)
                       for w, sl, sh, al, tl, th, bl in zip(lo, a.sup_lo, a.sup_hi, a.acc_lo,
                                                           b.sup_lo, b.sup_hi, b.acc_lo))
            hi = tuple(min(w, ah + tl if sh > ah else INF, bh + sl if th > bh else INF)
                       for w, sl, sh, ah, tl, th, bh in zip(hi, a.sup_lo, a.sup_hi, a.acc_hi,
                                                           b.sup_lo, b.sup_hi, b.acc_hi))
        if i is not None:
            boxes = _residue_boxes(vars, i, sup_lo, sup_hi, lo, hi)
            if boxes is None:
                return LaurentSeries.zero(vars)
            sup_lo, sup_hi, lo, hi = boxes
        pairs, shift = _kernel_code(n)
        if term:
            ((mu, c),) = b.coeffs.items()
            items = a.coeffs.items()
            if i is not None:
                items = [(e[:i] + (-mu[i],) + e[i + 1 :], c2) for e, c2 in items if e[i] == -1 - mu[i]]
            # the table lies inside both of its boxes: shifted, only the window cuts it
            if a.is_exact:
                inside = all(map(le, lo, sup_lo)) and all(map(le, sup_hi, hi))
            else:
                inside = (all(map(le, lo, map(add, mu, map(max, a.sup_lo, a.acc_lo))))
                          and all(map(le, map(add, mu, map(min, a.sup_hi, a.acc_hi)), hi)))
            coeffs = shift(items, mu, c, lo, hi, inside)
        else:
            if i is None:
                rows = {None: b.coeffs.items()}
            else:
                # a pair lands on var^-1 exactly when e2[var] = -1 - e1[var]
                rows = {}
                for e2, c2 in b.coeffs.items():
                    rows.setdefault(-1 - e2[i], []).append((e2[:i] + (0,) + e2[i + 1 :], c2))
            # the right table lies inside both of its boxes
            right_lo = tuple(map(max, b.sup_lo, b.acc_lo))
            right_hi = tuple(map(min, b.sup_hi, b.acc_hi))
            coeffs = pairs(a.coeffs.items(), rows, i, lo, hi, right_lo, right_hi)
        return LaurentSeries(vars, coeffs, sup_lo, sup_hi, lo, hi)

    def clipped(self, window: Window) -> "LaurentSeries":
        """Restrict accuracy to the window (coefficients outside are dropped)."""
        lo, hi = window_box(self.vars, window)
        acc_lo, acc_hi = tuple(map(max, self.acc_lo, lo)), tuple(map(min, self.acc_hi, hi))
        le = operator.le
        coeffs = {e: c for e, c in self.coeffs.items()
                  if all(map(le, acc_lo, e)) and all(map(le, e, acc_hi))}
        return LaurentSeries(self.vars, coeffs, self.sup_lo, self.sup_hi, acc_lo, acc_hi)

    # -- powers ---------------------------------------------------------------

    def pow(self, e: int, window: Optional[Window] = None) -> "LaurentSeries":
        """Integer power by the one power rule: 1 for e = 0, the series for
        e = 1, the closed form of an exact base c*mu*(1 + u*m) for either
        sign of e, multiply-and-clip to `window` for any other base with
        e > 0. A negative power needs a window (WindowError) and such a base
        (NonUnitError)."""
        if e == 0:
            return LaurentSeries.constant(self.vars, 1)
        if e == 1:
            return self
        if e < 0 and window is None:
            raise WindowError("negative power needs a truncation window")
        base = self._binomial_base()
        if base is not None:
            return self._binomial_pow(e, window or {}, *base)
        if e < 0:
            raise NonUnitError("negative power needs a base c*mu*(1 + u*m) with at most two terms")
        return product((self,) * e, window)

    def _binomial_base(self):
        """(c, mu, u, m) when the series is exactly c*mu*(1 + u*m) with m >= 0
        in every variable; u and m are None for a single term. Else None."""
        if not 1 <= len(self.coeffs) <= 2 or not self.is_exact:
            return None
        mu = self.sup_lo
        c = self.coeffs.get(mu)
        if c is None:
            return None  # two terms, neither below the other in every variable
        if len(self.coeffs) == 1:
            return c, mu, None, None
        top = self.sup_hi  # the other term: mu is the minimum in every variable
        a = self.coeffs[top]
        if type(a) is int and type(c) is int:
            u = a // c if a % c == 0 else Fraction(a, c)
        else:
            u = _exact(Fraction(a) / c)
        return c, mu, u, tuple(map(operator.sub, top, mu))

    def _binomial_pow(self, e: int, window, c, mu, u, m) -> "LaurentSeries":
        """Closed form of (c*mu*(1 + u*m))^e, boxes as multiply-and-clip gives.

        e >= 2 (repeated products, clipped after each): per variable, with
        a..b the base's support, a side stays fully known while the k-th
        partial power's support k*a..k*b is inside the window. At the first
        k in [2, e] where it is not, that side of the accuracy box becomes
        the window edge, and from then on moves inward by min(a, 0) (upper)
        or max(b, 0) (lower) per further factor. Sides that never leave sit
        at the window edge, unless no side leaves: then the power is exact.

        e < 0 (truncated binomial series of (1 + u*m)^e, then shifted): the
        upper edge is the window's; the series in m is cut after `depth`
        terms, and a variable whose first term m already lies below the
        shifted window keeps an accuracy floor raised by (depth - 1) * m.
        """
        vars, n = self.vars, len(self.vars)
        win_lo, win_hi = window_box(vars, window)
        lead = tuple(e * x for x in mu)
        if e > 0:
            scale = c ** e
        elif type(c) is int and c in (1, -1):
            scale = c ** -e
        else:
            scale = _exact(Fraction(c) ** e)
        if m is None:
            if e < 0:
                mono = LaurentSeries(vars, {lead: scale}, lead, lead, *_unbounded(n))
                return mono.clipped(window)
            u, m = 0, (0,) * n
        if e > 0:
            acc_lo, acc_hi, exact = [], [], True
            for a, d, wl, wh in zip(mu, m, win_lo, win_hi):
                b = a + d
                j_hi = _first_above(b, wh, e)
                j_lo = _first_above(-a, -wl, e)
                exact = exact and j_hi is None and j_lo is None
                acc_hi.append(wh if j_hi is None else wh + (e - j_hi) * min(a, 0))
                acc_lo.append(wl if j_lo is None else wl + (e - j_lo) * max(b, 0))
            if exact:
                acc_lo, acc_hi = _unbounded(n)
            sup_hi = tuple(x + e * d for x, d in zip(lead, m))
            last = e if u else 0  # a single term has no binomial tail
        else:
            carriers = [i for i in range(n) if m[i] > 0]
            caps = []
            for i in carriers:
                if win_hi[i] == INF:
                    raise WindowError(f"negative power needs a finite window for '{vars[i]}'")
                caps.append(max(int(win_hi[i] - lead[i]), 0))
            depth = caps[0] // m[carriers[0]] + 1 if len(carriers) == 1 else sum(caps) + 1
            acc_hi = win_hi
            acc_lo = tuple(wl + (depth - 1) * d if x + d < wl else wl
                           for x, d, wl in zip(lead, m, win_lo))
            sup_hi = tuple(x if d == 0 else INF for x, d in zip(lead, m))
            last = None
        # the terms i of the binomial series whose exponent lead + i*m lies
        # in the accuracy box; a term with m = 0 in a variable is in or out
        first = 0
        for x, d, lo, hi in zip(lead, m, acc_lo, acc_hi):
            if d == 0:
                if not lo <= x <= hi:
                    last = -1
            else:
                if lo != -INF:
                    first = max(first, -((x - lo) // d))
                if hi != INF:
                    last = (hi - x) // d if last is None else min(last, (hi - x) // d)
        coeffs, b, power = {}, binomial(e, first), u ** first
        exp = tuple(x + first * d for x, d in zip(lead, m))
        for i in range(first, last + 1):  # C(e,i) and u^i by recurrence
            coeffs[exp] = _exact(scale * b * power)
            b, power, exp = b * (e - i) // (i + 1), power * u, tuple(map(operator.add, exp, m))
        return LaurentSeries(vars, coeffs, lead, sup_hi, acc_lo, acc_hi)


@functools.lru_cache(maxsize=64)
def _shared_constant(vars: tuple[str, ...], value: int) -> LaurentSeries:
    """The series 0 or 1 in these variables, built once per tuple: no
    operation changes a series it is given, so every caller can hold the
    same object."""
    n = len(vars)
    if value:
        return LaurentSeries(vars, {(0,) * n: 1}, (0,) * n, (0,) * n, *_unbounded(n))
    lo, hi = _unbounded(n)
    return LaurentSeries(vars, {}, hi, lo, lo, hi)


# ---------------------------------------------------------------------------
# Residue extraction


def res(s: LaurentSeries, var: str) -> LaurentSeries:
    """The coefficient series of var^(-1), as a series in the other variables.

    The variable stays in the context with exponent 0. Raises WindowError if
    the -1 plane is not fully inside the accuracy window.
    """
    i = s._var_index(var)
    boxes = _residue_boxes(s.vars, i, s.sup_lo, s.sup_hi, s.acc_lo, s.acc_hi)
    if boxes is None:
        return LaurentSeries.zero(s.vars)
    coeffs = {e[:i] + (0,) + e[i + 1 :]: c for e, c in s.coeffs.items() if e[i] == -1}
    return LaurentSeries(s.vars, coeffs, *boxes)


def _residue_boxes(vars, i: int, sup_lo, sup_hi, acc_lo, acc_hi):
    """The boxes of the residue in variable i of a series with these boxes;
    None if -1 is outside the support, WindowError if outside the accuracy."""
    if -1 < sup_lo[i] or -1 > sup_hi[i]:
        return None
    if not (acc_lo[i] <= -1 <= acc_hi[i]):
        raise WindowError(f"residue in '{vars[i]}': exponent -1 is outside the accuracy window")
    fix = lambda t, v: t[:i] + (v,) + t[i + 1 :]
    return fix(sup_lo, 0), fix(sup_hi, 0), fix(acc_lo, -INF), fix(acc_hi, INF)


# ---------------------------------------------------------------------------
# Products of several series


def _reach(box, clip, lo, hi):
    """The box cut, in each variable index of `clip`, to the exponents from
    which a product with support lo..hi there can still land on -1; a side
    with unbounded support keeps the box's edge."""
    if not clip:
        return box
    box_lo, box_hi = list(box[0]), list(box[1])
    for i in clip:
        box_lo[i] = max(box_lo[i], -1 - hi[i])
        box_hi[i] = min(box_hi[i], -1 - lo[i])
    return tuple(box_lo), tuple(box_hi)


def product(values, window, outer=(), var=None, tail=None) -> LaurentSeries:
    """`values[0] * values[1] * ...`, each partial product clipped to the
    window, the last multiplication also taking the residue in var.

    Residue-directed (var or `outer` given), only the coefficient at -1 of
    var and of each variable of `outer` (whose residues the caller takes)
    is wanted, once the later factors and `tail` (the support of what the
    caller multiplies in later) are in. So each partial product is clipped
    in those variables to the window (a box) and to the exponents that can
    still get there (`_reach`); the last one only in `outer`, since its
    residue keeps var^-1 alone. That drops only pairs, and narrows accuracy
    only at exponents, that cannot reach the residue plane: coefficients,
    boxes and any WindowError are those of the plain product, each partial
    product clipped to the window alone.
    """
    out = values[0]
    if var is None and not outer:
        for v in values[1:]:
            out = out.__mul__(v, window)
        return out
    vars, last = out.vars, len(values) - 1
    later = [vars.index(t) for t in outer if t in vars]
    clip = later + [vars.index(var)] if var in vars else later
    # tails[j]: the support of `tail` and of the last j values
    tails = [tail or ((0,) * len(vars),) * 2]
    for v in values[:1:-1]:
        lo, hi = tails[-1]
        tails.append((tuple(map(operator.add, lo, v.sup_lo)), tuple(map(operator.add, hi, v.sup_hi))))
    for k in range(1, last):
        out = out.__mul__(values[k], _reach(window, clip, *tails[last - k]))
    return out.__mul__(values[last], _reach(window, later, *tails[0]), var)


# ---------------------------------------------------------------------------
# Geometric collapse and the simple-pole residue rule


def _escape_count(s: LaurentSeries, window) -> int:
    """Smallest K with no monomial of s^k (k > K) inside the window box."""
    win_lo, win_hi = window_box(s.vars, window)
    best = None
    for i in range(len(s.vars)):
        if s.sup_lo[i] >= 1:
            if win_hi[i] == INF:
                continue
            k = int(max(win_hi[i], 0) // s.sup_lo[i]) + 1
        elif s.sup_hi[i] <= -1:
            if win_lo[i] == -INF:
                continue
            k = int(max(-win_lo[i], 0) // -s.sup_hi[i]) + 1
        else:
            continue
        best = k if best is None else min(best, k)
    if best is None:
        raise DivergentSumError(
            "divergent formal sum: the ratio's powers never leave the window"
        )
    return best


def geometric_collapse(ratio: LaurentSeries, window: Window) -> LaurentSeries:
    """sum of ratio^k over k >= 0, truncated to the window.

    The ratio must have positive valuation in some direction (all powers
    eventually leave the window box); a ratio with an invertible constant
    term is a divergent formal sum and raises. A zero ratio sums to 1 in
    any window, also an unbounded one.
    """
    count = 0 if ratio.is_zero else _escape_count(ratio, window)
    total = LaurentSeries.constant(ratio.vars, 1)
    power = LaurentSeries.constant(ratio.vars, 1)
    for _ in range(count):
        power = power.__mul__(ratio, window)
        total = total + power
    total = total.clipped(window)
    return LaurentSeries(total.vars, total.coeffs, *_geo_support(ratio), total.acc_lo, total.acc_hi)


def _geo_support(ratio: LaurentSeries):
    """The support box of geo[ratio]: exponent 0 in a variable where no
    power of the ratio moves, unbounded on each side where one may."""
    return (tuple(0 if lo >= 0 else -INF for lo in ratio.sup_lo),
            tuple(0 if hi <= 0 else INF for hi in ratio.sup_hi))


def geo_residue(ratio: LaurentSeries, factors, box, chain):
    """Residue in chain[-1] of `rest * geo[ratio]`, rest the product of
    factors, exchanged with the geometric sum; None where the exchange does
    not apply.

    When the ratio moves strictly in the residue variable and the rest of
    the product has finite known support there, only finitely many powers of
    the ratio can reach exponent -1; summing their residues term by term
    avoids forming the full product, whose per-variable accuracy boxes can
    be vacuous even though the residue itself is finite. Rest's partial
    products and the powers of the ratio are residue-directed (`product`)
    in the outer variables of the chain only: the geo's support and the
    powers still to come are their tails. The residue variable stays
    unclipped, since the exchange needs rest fully known there.
    """
    vars, outer, var = ratio.vars, chain[:-1], chain[-1]
    i = ratio._var_index(var)
    rest = product((LaurentSeries.constant(vars, 1),) + factors, box, outer, tail=_geo_support(ratio))
    if rest.is_zero:
        return LaurentSeries.zero(vars)
    known_in_var = rest.sup_lo[i] >= rest.acc_lo[i] and rest.sup_hi[i] <= rest.acc_hi[i]
    finite = rest.sup_lo[i] != -INF and rest.sup_hi[i] != INF
    if not (known_in_var and finite):
        return None
    if ratio.is_zero:
        count = 0  # geo[0] = 1
    elif ratio.sup_hi[i] <= -1:
        count = max((int(rest.sup_hi[i]) + 1) // -int(ratio.sup_hi[i]), 0)
    elif ratio.sup_lo[i] >= 1:
        count = max((-1 - int(rest.sup_lo[i])) // int(ratio.sup_lo[i]), 0)
    else:
        return None
    clip = [vars.index(t) for t in outer if t in vars]
    total = LaurentSeries.zero(vars)
    power = LaurentSeries.constant(vars, 1)
    for k in range(count + 1):
        if k > 0:
            # power k serves the terms k..count: up to count - k more ratios
            j = count - k
            lo = tuple(s + (j * min(r, 0) if j else 0) for s, r in zip(rest.sup_lo, ratio.sup_lo))
            hi = tuple(s + (j * max(r, 0) if j else 0) for s, r in zip(rest.sup_hi, ratio.sup_hi))
            power = power.__mul__(ratio, _reach(box, clip, lo, hi))
        total = total + rest.__mul__(power, var=var)
    return total


def residue_eval_simple_pole(
    g: LaurentSeries,
    p_exp: int,
    s: LaurentSeries,
    var: str = "x",
    window: Optional[Window] = None,
) -> LaurentSeries:
    """Residue of g(x) * x^p_exp / (x - s) at the simple pole x = s.

    Computed formally as g(x <- s) * s^p_exp. The substituted series must be
    free of x and must leave any window under powering (valuation condition);
    g must be fully known in x.
    """
    if window is None:
        window = {}
    i = g._var_index(var)
    j = s._var_index(var)
    if not (s.is_zero or (s.sup_lo[j] >= 0 and s.sup_hi[j] <= 0)):
        raise EngineError(f"pole location must not involve '{var}'")
    _escape_count(s, window)  # valuation check: powers must leave the window
    if not (g.sup_lo[i] >= g.acc_lo[i] and g.sup_hi[i] <= g.acc_hi[i]):
        raise WindowError(f"pole evaluation needs '{var}'-slices fully inside the window")
    tables: dict[int, dict[Expo, Number]] = {}
    for e, c in g.coeffs.items():
        mono = e[:i] + (0,) + e[i + 1 :]
        tables.setdefault(e[i], {})[mono] = c
    n = len(g.vars)
    total = LaurentSeries.zero(g.vars)
    for k in sorted(tables):
        keys = list(tables[k])
        piece = LaurentSeries(g.vars, tables[k],
                              tuple(min(e[j] for e in keys) for j in range(n)),
                              tuple(max(e[j] for e in keys) for j in range(n)),
                              *_unbounded(n))
        total = total + piece * s.pow(k + p_exp, window)
    return total


# ---------------------------------------------------------------------------
# Comparison


def first_difference(a: LaurentSeries, b: LaurentSeries):
    """First monomial (sorted) where the two series provably differ, or None.

    Only coefficients known on both sides are compared; raises if the shared
    accuracy region is empty (a vacuous comparison is an error, not a pass).
    """
    if any(max(al, bl) > min(ah, bh) for al, bl, ah, bh in zip(a.acc_lo, b.acc_lo, a.acc_hi, b.acc_hi)):
        raise DegenerateWindowError("accuracy windows do not overlap")
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        if not (a._known(e) and b._known(e)):
            continue
        ca, cb = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
        if ca != cb:
            return e, Fraction(ca), Fraction(cb)
    return None
