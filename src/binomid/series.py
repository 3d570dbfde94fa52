"""Truncated multivariate Laurent series over exact rationals.

A series value carries, per variable, a support box (a mathematical
guarantee: no nonzero coefficient outside it) and an accuracy box (the
region in which stored coefficients equal those of the untruncated
expression). A coefficient is *known* when its exponent vector lies inside
the accuracy box, or outside the support box (then it is zero). Arithmetic
narrows accuracy exactly as far as soundness demands; any query for an
unknown coefficient raises instead of silently returning 0.

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
or residue. Its boxes come from the product's formulas intersected with the
window, and each left row is tested once against bounds on the right table:
a row wholly inside the box skips the per-pair test. With `var`, only pairs
landing on var^-1 are formed. Skipping pairs cannot change a box:
normalization reads the table only to tighten the support of an exact
series, and a product of exact series already has the tight support sup(a) +
sup(b), since Laurent polynomials over Q have no zero divisors; a product
with an inexact factor is inexact.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, Optional, Union

from .arith import binomial

INF = float("inf")

Number = Union[int, Fraction]
Expo = tuple[int, ...]
Bound = Union[int, float]


class EngineError(ValueError):
    """The engine was asked something it cannot answer for these operands."""


class WindowError(Exception):
    """A coefficient outside the accuracy window was requested."""


class NonUnitError(Exception):
    """A negative power of a base that is not c*mu*(1 + u*m)."""


class DivergentSumError(Exception):
    """A formal geometric sum whose ratio never leaves the window."""


class DegenerateWindowError(Exception):
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


def window_box(vars, window: Window) -> tuple[tuple[Bound, ...], tuple[Bound, ...]]:
    """The window as (lo, hi) bounds in the order of `vars`, unbounded for a
    variable it does not name. Every function taking a window also takes
    this box, which is returned as it is: a caller that uses one window for
    many operations computes the box once."""
    if isinstance(window, tuple):
        return window
    lo = tuple(window[v][0] if v in window else -INF for v in vars)
    hi = tuple(window[v][1] if v in window else INF for v in vars)
    return lo, hi


class LaurentSeries:
    __slots__ = ("vars", "coeffs", "sup_lo", "sup_hi", "acc_lo", "acc_hi")

    def __init__(self, vars, coeffs, sup_lo, sup_hi, acc_lo, acc_hi, boxed=False):
        """`boxed` promises that every coefficient already lies inside the
        accuracy box, so normalization skips filtering the table again."""
        self.vars = tuple(vars)
        self.coeffs = coeffs
        self.sup_lo = tuple(sup_lo)
        self.sup_hi = tuple(sup_hi)
        self.acc_lo = tuple(acc_lo)
        self.acc_hi = tuple(acc_hi)
        self._normalize(boxed)

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(vars) -> "LaurentSeries":
        n = len(vars)
        return LaurentSeries(vars, {}, (INF,) * n, (-INF,) * n, (-INF,) * n, (INF,) * n)

    @staticmethod
    def constant(vars, value) -> "LaurentSeries":
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
        return LaurentSeries(vars, {e: coeff}, e, e, (-INF,) * n, (INF,) * n)

    # -- invariants ----------------------------------------------------------

    def _normalize(self, boxed: bool = False) -> None:
        coeffs = self.coeffs
        if 0 in coeffs.values():
            for e in [e for e, c in coeffs.items() if c == 0]:
                del coeffs[e]
        n = len(self.vars)
        if self.is_zero or (not coeffs and self.is_exact):
            self.sup_lo, self.sup_hi = (INF,) * n, (-INF,) * n
            self.acc_lo, self.acc_hi = (-INF,) * n, (INF,) * n
        elif self.is_exact:
            # fully known: tighten support to the actual table, widen accuracy
            columns = list(zip(*coeffs))
            self.sup_lo = tuple(map(min, columns))
            self.sup_hi = tuple(map(max, columns))
            self.acc_lo, self.acc_hi = (-INF,) * n, (INF,) * n
        elif not boxed:
            lo, hi = self.acc_lo, self.acc_hi
            outside = [e for e in coeffs
                       if not (all(map(operator.le, lo, e)) and all(map(operator.le, e, hi)))]
            for e in outside:
                del coeffs[e]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and all(lo > hi for lo, hi in zip(self.sup_lo, self.sup_hi))

    @property
    def is_exact(self) -> bool:
        return (all(map(operator.le, self.acc_lo, self.sup_lo))
                and all(map(operator.le, self.sup_hi, self.acc_hi)))

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
        sup_lo = tuple(min(a, b) for a, b in zip(self.sup_lo, other.sup_lo))
        sup_hi = tuple(max(a, b) for a, b in zip(self.sup_hi, other.sup_hi))
        acc_lo = tuple(max(a, b) for a, b in zip(self.acc_lo, other.acc_lo))
        acc_hi = tuple(min(a, b) for a, b in zip(self.acc_hi, other.acc_hi))
        return LaurentSeries(self.vars, coeffs, sup_lo, sup_hi, acc_lo, acc_hi)

    def __neg__(self) -> "LaurentSeries":
        return self.scaled(-1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scaled(self, value) -> "LaurentSeries":
        if value == 0:
            return LaurentSeries.zero(self.vars)
        coeffs = {e: c * value for e, c in self.coeffs.items()}
        return LaurentSeries(self.vars, coeffs, self.sup_lo, self.sup_hi, self.acc_lo, self.acc_hi,
                             boxed=True)

    def __mul__(self, other: "LaurentSeries", window: Optional[Window] = None,
                var: Optional[str] = None) -> "LaurentSeries":
        """`res((self * other).clipped(window), var)`, forming only the pairs
        that land in the result; `window` and `var` may each be None."""
        self._check_compatible(other)
        i = None if var is None else self._var_index(var)
        if self.is_zero or other.is_zero:
            return self if self.is_zero else other
        # a factor not fully known on one side bounds the product's accuracy there
        lo, hi = [], []
        for sl, sh, al, ah, tl, th, bl, bh in zip(self.sup_lo, self.sup_hi, self.acc_lo, self.acc_hi,
                                                 other.sup_lo, other.sup_hi, other.acc_lo, other.acc_hi):
            hi.append(min(ah + tl if sh > ah else INF, bh + sl if th > bh else INF))
            lo.append(max(al + th if sl < al else -INF, bl + sh if tl < bl else -INF))
        if window is not None:
            win_lo, win_hi = window_box(self.vars, window)
            lo, hi = map(max, lo, win_lo), map(min, hi, win_hi)
        lo, hi = tuple(lo), tuple(hi)
        add, le = operator.add, operator.le
        sup_lo = tuple(map(add, self.sup_lo, other.sup_lo))
        sup_hi = tuple(map(add, self.sup_hi, other.sup_hi))
        # the right table lies inside both of its boxes
        right_lo = tuple(map(max, other.sup_lo, other.acc_lo))
        right_hi = tuple(map(min, other.sup_hi, other.acc_hi))
        if i is None:
            rows = {None: list(other.coeffs.items())}
        else:
            # what `res` asks of the clipped product, whose support box is
            # sup_lo..sup_hi and whose accuracy box is lo..hi or covers it
            if -1 < sup_lo[i] or -1 > sup_hi[i]:
                return LaurentSeries.zero(self.vars)
            if not (lo[i] <= -1 <= hi[i]):
                raise WindowError(f"residue in '{var}': exponent -1 is outside the accuracy window")
            fix = lambda t, v: t[:i] + (v,) + t[i + 1 :]
            sup_lo, sup_hi, lo, hi = fix(sup_lo, 0), fix(sup_hi, 0), fix(lo, -INF), fix(hi, INF)
            # a pair lands on var^-1 exactly when e2[var] = -1 - e1[var]
            rows = {}
            for e2, c2 in other.coeffs.items():
                rows.setdefault(-1 - e2[i], []).append((fix(e2, 0), c2))
        coeffs: dict[Expo, Number] = {}
        get = coeffs.get
        for e1, c1 in self.coeffs.items():
            row = rows.get(None if i is None else e1[i], ())
            if not row:
                continue
            if i is not None:
                e1 = fix(e1, 0)
            inside = (all(map(le, lo, map(add, e1, right_lo)))
                      and all(map(le, map(add, e1, right_hi), hi)))
            for e2, c2 in row:
                e = tuple(map(add, e1, e2))
                if inside or (all(map(le, lo, e)) and all(map(le, e, hi))):
                    coeffs[e] = get(e, 0) + c1 * c2
        return LaurentSeries(self.vars, coeffs, sup_lo, sup_hi, lo, hi, boxed=True)

    def clipped(self, window: Window) -> "LaurentSeries":
        """Restrict accuracy to the window (coefficients outside are dropped)."""
        lo, hi = window_box(self.vars, window)
        acc_lo = tuple(max(a, b) for a, b in zip(self.acc_lo, lo))
        acc_hi = tuple(min(a, b) for a, b in zip(self.acc_hi, hi))
        le = operator.le
        coeffs = {e: c for e, c in self.coeffs.items()
                  if all(map(le, acc_lo, e)) and all(map(le, e, acc_hi))}
        return LaurentSeries(self.vars, coeffs, self.sup_lo, self.sup_hi, acc_lo, acc_hi, boxed=True)

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
        out = self
        for _ in range(e - 1):
            out = out.__mul__(self, window)
        return out

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
        return c, mu, _exact(Fraction(self.coeffs[top]) / c), tuple(map(operator.sub, top, mu))

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
        scale = c ** e if e > 0 else _exact(Fraction(c) ** e)
        if m is None:
            if e < 0:
                mono = LaurentSeries(vars, {lead: scale}, lead, lead, (-INF,) * n, (INF,) * n)
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
                acc_lo, acc_hi = (-INF,) * n, (INF,) * n
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
        coeffs = {tuple(x + i * d for x, d in zip(lead, m)): _exact(scale * binomial(e, i) * u ** i)
                  for i in range(first, last + 1)}
        return LaurentSeries(vars, coeffs, lead, sup_hi, acc_lo, acc_hi, boxed=True)


# ---------------------------------------------------------------------------
# Residue extraction


def res(s: LaurentSeries, var: str) -> LaurentSeries:
    """The coefficient series of var^(-1), as a series in the other variables.

    The variable stays in the context with exponent 0. Raises WindowError if
    the -1 plane is not fully inside the accuracy window.
    """
    i = s._var_index(var)
    if -1 < s.sup_lo[i] or -1 > s.sup_hi[i]:
        return LaurentSeries.zero(s.vars)
    if not (s.acc_lo[i] <= -1 <= s.acc_hi[i]):
        raise WindowError(f"residue in '{var}': exponent -1 is outside the accuracy window")
    coeffs = {}
    for e, c in s.coeffs.items():
        if e[i] == -1:
            coeffs[e[:i] + (0,) + e[i + 1 :]] = c
    fix = lambda t, v: t[:i] + (v,) + t[i + 1 :]
    return LaurentSeries(s.vars, coeffs, fix(s.sup_lo, 0), fix(s.sup_hi, 0),
                         fix(s.acc_lo, -INF), fix(s.acc_hi, INF), boxed=True)


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
    term is a divergent formal sum and raises.
    """
    count = _escape_count(ratio, window)
    total = LaurentSeries.constant(ratio.vars, 1)
    power = LaurentSeries.constant(ratio.vars, 1)
    for _ in range(count):
        power = power.__mul__(ratio, window)
        total = total + power
    total = total.clipped(window)
    sup_lo = tuple(0 if lo >= 0 else -INF for lo in ratio.sup_lo)
    sup_hi = tuple(0 if hi <= 0 else INF for hi in ratio.sup_hi)
    return LaurentSeries(total.vars, total.coeffs, sup_lo, sup_hi, total.acc_lo, total.acc_hi)


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
                              (-INF,) * n, (INF,) * n)
        total = total + piece * s.pow(k + p_exp, window)
    return total


# ---------------------------------------------------------------------------
# Comparison


def shared_window(a: LaurentSeries, b: LaurentSeries):
    lo = tuple(max(x, y) for x, y in zip(a.acc_lo, b.acc_lo))
    hi = tuple(min(x, y) for x, y in zip(a.acc_hi, b.acc_hi))
    if any(l > h for l, h in zip(lo, hi)):
        raise DegenerateWindowError("accuracy windows do not overlap")
    return lo, hi


def first_difference(a: LaurentSeries, b: LaurentSeries):
    """First monomial (sorted) where the two series provably differ, or None.

    Only coefficients known on both sides are compared; raises if the shared
    accuracy region is empty (a vacuous comparison is an error, not a pass).
    """
    shared_window(a, b)
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        if not (a._known(e) and b._known(e)):
            continue
        ca, cb = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
        if ca != cb:
            return e, Fraction(ca), Fraction(cb)
    return None


def series_equal(a: LaurentSeries, b: LaurentSeries) -> bool:
    return first_difference(a, b) is None
