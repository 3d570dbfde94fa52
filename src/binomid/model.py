"""AST for parameterized binomial identities and the operations on it.

The value domain is affine integer expressions (`LinExpr`) sitting inside
binomial factors, products of factors with an optional (-1)^e sign, finite
sums over one bound variable, and named identities with nonnegativity
constraints. Every AST node is an immutable dataclass; all operations return
new values and are safe under concurrency. `CompiledIdentity`, the one
evaluator, runs three Python functions generated from an identity's AST:
`evaluate` and `admissible` at one point, and `walk`, which checks a whole
grid shard in nested loops. Their code object is compiled once and cached
per (lhs, rhs, constraints, names in scope), and holds no state; each
`CompiledIdentity` execs it into its own namespace with its own binomial
memo, and lives for one call. The memo holds one row k -> C(n, k) per
upper argument n; a row whose n is fixed in the summation loop is fetched
once, before the loop. In `walk` those rows, the factors of the terms
outside the sum and the constraint tests are each computed in the loop of
the deepest parameter they name. The summation loop runs only over
the indices where every factor can be nonzero: C(u, l) = 0 when l < 0, and
when 0 <= u < l.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Union

from .arith import binomial


class EvalError(Exception):
    """Evaluation failed (unbound variable)."""


class ConstraintError(Exception):
    """A parameter environment violates an identity's constraints."""


class RewriteError(Exception):
    """A rewrite rule was applied at a position that does not match."""


class SubstitutionError(Exception):
    """A substitution does not cover the parameters it must map."""


def frozen_node(cls):
    """A frozen dataclass whose hash is computed once per node.

    Caches are keyed by AST nodes, and the generated hash would walk the
    whole subtree on every lookup. The cached value stays out of pickles,
    since string hashes differ between processes.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    values = operator.attrgetter(*names)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {n: getattr(self, n) for n in names}

    cls._hash = None  # until the instance caches its own
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Affine integer expressions


@dataclass(frozen=True)
class LinExpr:
    """Affine expression const + sum(coeff * var), canonically ordered.

    Invariants: no zero coefficients are stored and variable names are kept
    sorted, so structural equality of normalized expressions is dataclass
    equality.
    """

    const: int = 0
    coeffs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def make(const: int, coeffs: Mapping[str, int]) -> "LinExpr":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return LinExpr(const, items)

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr(0, ((name, 1),))

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            if v not in env:
                raise EvalError(f"unbound variable '{v}' in expression {self}")
            total += c * env[v]
        return total

    def subst(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Replace each mapped variable by an affine expression."""
        const = self.const
        acc: dict[str, int] = {}
        for v, c in self.coeffs:
            image = mapping.get(v)
            if image is None:
                acc[v] = acc.get(v, 0) + c
            else:
                const += c * image.const
                for w, d in image.coeffs:
                    acc[w] = acc.get(w, 0) + c * d
        return LinExpr.make(const, acc)

    def parity(self) -> "LinExpr":
        """The mod-2 representative; (-1)^e depends only on this."""
        return LinExpr.make(self.const % 2, {v: c % 2 for v, c in self.coeffs})

    def key(self):
        return (self.coeffs, self.const)

    def __add__(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return LinExpr.make(self.const + other.const, acc)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + (-other)

    def __neg__(self) -> "LinExpr":
        return LinExpr(-self.const, tuple((v, -c) for v, c in self.coeffs))

    def scaled(self, factor: int) -> "LinExpr":
        if factor == 0:
            return LinExpr()
        return LinExpr(self.const * factor, tuple((v, c * factor) for v, c in self.coeffs))

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"+{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c:+d}*{v}")
        if self.const != 0 or not parts:
            parts.append(f"{self.const:+d}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


ZERO = LinExpr()
ONE = LinExpr(1)


# ---------------------------------------------------------------------------
# Terms, sums, identities


@frozen_node
class BinomFactor:
    upper: LinExpr
    lower: LinExpr

    def key(self):
        return (self.upper.key(), self.lower.key())


@frozen_node
class Term:
    """Product of binomial factors with an optional (-1)^sign_exponent."""

    sign_exponent: Optional[LinExpr] = None
    factors: tuple[BinomFactor, ...] = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        if self.sign_exponent is not None:
            out.update(self.sign_exponent.variables())
        for f in self.factors:
            out.update(f.upper.variables())
            out.update(f.lower.variables())
        return out


@frozen_node
class SumExpr:
    """sum of body over bound_var from lower to upper inclusive."""

    bound_var: str
    lower: LinExpr
    upper: LinExpr
    body: Term

    def variables(self) -> set[str]:
        out = self.body.variables()
        out.discard(self.bound_var)
        out.update(self.lower.variables())
        out.update(self.upper.variables())
        return out


Side = Union[SumExpr, Term]


@frozen_node
class Identity:
    """Named parameterized equation lhs == rhs with >= 0 constraints."""

    name: str
    params: tuple[str, ...]
    lhs: Side
    rhs: Term
    constraints: tuple[LinExpr, ...] = ()


@dataclass(frozen=True)
class Substitution:
    """Maps parent parameter names to affine images over target parameters."""

    mapping: tuple[tuple[str, LinExpr], ...]
    target_params: tuple[str, ...]

    @staticmethod
    def of(mapping: Mapping[str, LinExpr], target_params) -> "Substitution":
        return Substitution(tuple(mapping.items()), tuple(target_params))

    def as_dict(self) -> dict[str, LinExpr]:
        return dict(self.mapping)


@dataclass(frozen=True)
class EvalResult:
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


# ---------------------------------------------------------------------------
# Evaluation
#
# An identity is evaluated by three Python functions generated from its AST:
# `evaluate` and `admissible` at one point, and `walk` over a grid.
# The names in scope become the locals v0, v1, ... in declared order and the
# bound variable the next one; each affine expression is written out inline
# over those locals and int literals, so no name or text from a catalog
# reaches the source. Binomials go through a memo owned by each compiled
# identity, since across a grid the same (n, k) pairs recur constantly. The
# memo is keyed by n: `cache[n]` is the row of n, a dict k -> C(n, k) filled
# on first lookup, and a factor is read as `cache[n][k]`. In the summation
# loop, a factor whose upper argument does not mention the bound variable has
# its row fetched once, before the loop (`r0 = cache[v0]`), and is read as
# `r0[v5]` inside it; fetching a row computes nothing, so the zero
# short-circuit still decides which pairs are computed. Compiling the source
# costs far more than running it once, so the code objects (never the
# functions, whose globals hold a memo) are cached per (lhs, rhs,
# constraints, names in scope). The memo calls the `binomial` this module
# holds when the identity is compiled, so a rebound `model.binomial` (as the
# benchmark tracer installs) sees every computed pair.
#
# The summation loop runs over lo..hi, the declared range narrowed by the
# zero set of the body's factors: C(u, l) = 0 exactly when l < 0 or
# 0 <= u < l. Write u = d*k + U and l = c*k + L for the bound variable k.
# Rule 1: when c != 0, l >= 0 bounds k; when c = 0, the range is empty where
# L < 0 (`e0 = L < 0`, then `if e0: hi = lo - 1`). Rule 2: when c != d and
# u >= 0 holds over all of lo..hi (tested at the end where u is smallest),
# l <= u, that is (c - d)*k <= U - L, bounds k. Each bound is an
# `if e > lo: lo = e` (or `< hi`) statement, with floor division where |c| or
# |c - d| is not 1. Both rules hold for every integer input, and the bounds only shrink lo..hi, so
# rule 2's test holds on the final range too: every skipped term is 0. The
# constraints on k are still checked over the declared range, since they
# must hold at every declared index, zero terms included; each is affine in
# k, so it holds on the range where it holds at the end where it is smallest.
#
# `walk` nests one loop per parameter in declared order, last innermost, and
# puts each statement in the loop of the deepest parameter it names: the
# constraint tests (as `continue`), the rows of the summation loop, rule 1's
# tests for c = 0 (as flags the clamp reads), and each term's factors
# multiplied in one level at a time (`y0 = r0[v2]` in the third loop,
# `y1 = y0; if y1: y1 *= r1[v3]` in the fourth), with a term factor's row
# fetched at the level of its upper argument when its lower one is deeper.
# Only the clamp, the summation loop and the rest of each term run at every
# point. The innermost loop visits the flat indices (last parameter fastest)
# that are j modulo w, so shard j of w is the same set of points whatever
# the grid's shape.

_CODE_CACHE_SIZE = 256


class _Memo(dict):
    """key -> make(key), made on the first lookup of the key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _lin(e: LinExpr, slot: Mapping[str, str]) -> str:
    parts = []
    for v, c in e.coeffs:
        if v not in slot:
            raise EvalError(f"unbound variable '{v}' in expression {e}")
        parts.append(slot[v] if c == 1 else f"-{slot[v]}" if c == -1 else f"{c:d}*{slot[v]}")
    if e.const or not parts:
        parts.append(f"{e.const:d}")
    return " + ".join(parts).replace("+ -", "- ")


def _key(f: BinomFactor, slot: Mapping[str, str], rows: Mapping[str, str]) -> str:
    """The lookup of C(u, l); `rows` maps the source of u to a local holding its row."""
    upper = _lin(f.upper, slot)
    return f"{rows.get(upper) or f'cache[{upper}]'}[{_lin(f.lower, slot)}]"


def _product_lines(local: str, start: str, keys: list[str], sign: Optional[str]) -> list[str]:
    """Statements setting local to start times the keys, negated where sign is
    odd; no key after a zero is looked up."""
    if start == "1" and keys:
        start, keys = keys[0], keys[1:]
    lines = [f"{local} = {start}"] + [f"if {local}: {local} *= {key}" for key in keys]
    if sign is not None:
        lines.append(f"if {local} and ({sign}) % 2: {local} = -{local}")
    return lines


def _term_lines(t: Term, slot: Mapping[str, str], rows: Mapping[str, str]) -> list[str]:
    """Statements leaving the term's value in t."""
    sign = _lin(t.sign_exponent, slot) if t.sign_exponent is not None else None
    return _product_lines("t", "1", [_key(f, slot, rows) for f in t.factors], sign)


def _chain(t: Term, name: str, slot: Mapping[str, str], rows: Mapping[str, str], level):
    """Statements (level, line) leaving the term's value in a local, and the
    local's name: each factor, and the sign, is multiplied in at the loop
    level of the deepest parameter it names, onto the product so far."""
    keys = [(level(f.upper, f.lower), _key(f, slot, rows)) for f in t.factors]
    sign = t.sign_exponent
    at = {d for d, _ in keys} | ({level(sign)} if sign is not None else set())
    placed, value = [], "1"
    for i, d in enumerate(sorted(at)):
        odd = _lin(sign, slot) if sign is not None and level(sign) == d else None
        lines = _product_lines(f"{name}{i}", value, [key for e, key in keys if e == d], odd)
        placed += [(d, line) for line in lines]
        value = f"{name}{i}"
    return placed, value


def _split(e: LinExpr, bv: str) -> tuple[int, LinExpr]:
    """e as (c, E) with e = c*bv + E."""
    c = dict(e.coeffs).get(bv, 0)
    return c, e - LinExpr.var(bv).scaled(c)


def _bound(e: LinExpr, bv: str, slot: Mapping[str, str], guard: str = "") -> str:
    """The statement narrowing lo..hi to the indices where e >= 0; e has
    a nonzero coefficient c on bv, and e = c*bv + E >= 0 is bv >= ceil(-E/c)
    when c > 0, bv <= floor(E/-c) when c < 0."""
    c, rest = _split(e, bv)
    if c > 0:
        edge = _lin(-rest, slot) if c == 1 else f"({_lin(ONE.scaled(c - 1) - rest, slot)}) // {c}"
        return f"if {guard}{edge} > lo: lo = {edge}"
    edge = _lin(rest, slot) if c == -1 else f"({_lin(rest, slot)}) // {-c}"
    return f"if {guard}{edge} < hi: hi = {edge}"


def _fixed_lowers(s: SumExpr) -> list[LinExpr]:
    """The body's lower arguments that do not name the bound variable (and
    are not a constant >= 0): the sum is empty where one is negative."""
    lowers = (f.lower for f in s.body.factors if s.bound_var not in f.lower.variables())
    return list(dict.fromkeys(l for l in lowers if l.coeffs or l.const < 0))


def _clamp_lines(s: SumExpr, slot: Mapping[str, str], empty: list[str]) -> list[str]:
    """Statements setting lo..hi to the summation range of s, less indices
    where a factor C(u, l) of the body is 0: where l < 0 or 0 <= u < l.
    `empty` names the locals that are true where a lower argument of
    `_fixed_lowers(s)` is negative."""
    bv, first, last = s.bound_var, _lin(s.lower, slot), _lin(s.upper, slot)
    bounds = [f"if {first} > lo: lo = {first}", f"if {last} < hi: hi = {last}"]
    bounds += [f"if {flag}: hi = lo - 1" for flag in empty]
    bounds += [_bound(f.lower, bv, slot) for f in s.body.factors if _split(f.lower, bv)[0]]
    for f in s.body.factors:
        d, _ = _split(f.upper, bv)
        if _split(f.lower, bv)[0] != d:
            # u is smallest at lo when d > 0, at hi when d < 0; the range
            # only shrinks, so u >= 0 holds on it from here on
            smallest = _lin(f.upper, {**slot, bv: "lo" if d > 0 else "hi"})
            bounds.append(_bound(f.upper - f.lower, bv, slot, f"{smallest} >= 0 and "))
    # the first two are the declared bounds, which already hold
    return [f"lo = {first}", f"hi = {last}"] + list(dict.fromkeys(bounds))[2:]


def _violations(constraints: tuple[LinExpr, ...], lhs: Side, slot: Mapping[str, str]):
    """Each constraint as (the expressions it reads, a test true where it
    fails). A constraint on the bound variable must hold at every index of
    the declared range; being affine in it, it is smallest at one end."""
    bv = lhs.bound_var if isinstance(lhs, SumExpr) else None
    tests = []
    for c in constraints:
        coeff = dict(c.coeffs).get(bv, 0)
        if not coeff:
            tests.append(((c,), f"{_lin(c, slot)} < 0"))
            continue
        first, last = _lin(lhs.lower, slot), _lin(lhs.upper, slot)
        end = c.subst({bv: lhs.lower if coeff > 0 else lhs.upper})
        tests.append(((end, lhs.lower, lhs.upper), f"{first} <= {last} and {_lin(end, slot)} < 0"))
    return tests


def _walk_lines(n: int, placed: list[tuple[int, str]], point: list[str]) -> list[str]:
    """The body of `walk(ranges, j, w)` over n parameters: one loop per
    parameter in declared order (over the one point when n is 0), each placed
    line inside the loop of its level (level -1 before them all), the point
    lines innermost. p{i} is the flat index of the prefix v0..v{i}; the
    innermost loop starts at the first point of its row whose flat index is
    j modulo w, and steps by w."""
    lines = [f"[{', '.join(f'(a{i}, b{i})' for i in range(n))}] = ranges", "checked = 0", "failed = []"]
    lines += [line for d, line in placed if d < 0]
    for i in range(n - 1):
        pad = "    " * i
        prefix = f"p{i - 1} * (b{i} - a{i} + 1) + " if i else ""
        lines += [f"{pad}for v{i} in range(a{i}, b{i} + 1):", f"{pad}    p{i} = {prefix}v{i} - a{i}"]
        lines += [f"{pad}    {line}" for d, line in placed if d == i]
    last = max(n - 1, 0)
    pad = "    " * last
    if n == 0:
        lines.append("for _ in range(j, 1, w):")
    else:
        start = f"(j - p{last - 1} * (b{last} - a{last} + 1)) % w" if last else "j % w"
        lines.append(f"{pad}for v{last} in range(a{last} + {start}, b{last} + 1, w):")
    lines += [f"{pad}    {line}" for d, line in placed if d == last] + [f"{pad}    {line}" for line in point]
    return lines + ["return checked, failed"]


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _evaluator_code(lhs: Side, rhs: Term, constraints: tuple[LinExpr, ...], names: tuple[str, ...]):
    """Source and code object defining `evaluate` and `admissible` over
    `vals`, and `walk` over a grid."""
    slot = {p: f"v{i}" for i, p in enumerate(names)}
    order = {p: i for i, p in enumerate(names)}

    def level(*exprs: LinExpr) -> int:
        """The loop level of the deepest parameter named, -1 for none."""
        return max((order[v] for e in exprs for v in e.variables() if v in order), default=-1)

    placed, point = [], []  # statements by walk's loop level, and those at every point
    rows, fixed = {}, {}  # the local holding each row, and its upper argument
    terms = {"y": rhs}  # the terms multiplied out level by level
    if isinstance(lhs, SumExpr):
        uppers = (f.upper for f in lhs.body.factors if lhs.bound_var not in f.upper.variables())
        fixed = {_lin(upper, slot): upper for upper in uppers}
        rows = {upper: f"r{i}" for i, upper in enumerate(fixed)}
        lowers = _fixed_lowers(lhs)
        placed += [(level(lower), f"e{i} = {_lin(lower, slot)} < 0") for i, lower in enumerate(lowers)]
        inner = {**slot, lhs.bound_var: f"v{len(names)}"}
        point = ["lhs = 0"] + _clamp_lines(lhs, inner, [f"e{i}" for i in range(len(lowers))])
        point += ["if lo <= hi:", f"    for v{len(names)} in range(lo, hi + 1):"]
        point += ["        " + line for line in _term_lines(lhs.body, inner, rows) + ["lhs += t"]]
    else:
        terms["x"] = lhs
    # a term's factor has its row fetched ahead of it where the lower
    # argument names a deeper parameter than the upper one
    for f in (f for t in terms.values() for f in t.factors):
        if level(f.upper) < level(f.lower):
            fixed.setdefault(_lin(f.upper, slot), f.upper)
    rows.update({upper: f"q{i}" for i, upper in enumerate(u for u in fixed if u not in rows)})
    placed += [(level(fixed[upper]), f"{row} = cache[{upper}]") for upper, row in rows.items()]
    for name, t in terms.items():
        chain, terms[name] = _chain(t, name, slot, rows, level)
        placed += chain
    placed.sort(key=operator.itemgetter(0))
    lhs_value, rhs_value = terms.get("x", "lhs"), terms["y"]
    tests = _violations(constraints, lhs, slot)
    unpack = f"[{', '.join(slot.values())}] = vals"
    compare = (f"if {lhs_value} != {rhs_value}: "
               f"failed.append(([{', '.join(slot.values())}], {lhs_value}, {rhs_value}))")
    walk = _walk_lines(len(names), [(max(level(*exprs), 0), f"if {test}: continue") for exprs, test in tests]
                       + placed, ["checked += 1"] + point + [compare])
    source = "\n".join(
        ["def evaluate(vals):", "    " + unpack] + ["    " + line for _, line in placed]
        + ["    " + line for line in point + [f"return {lhs_value}, {rhs_value}"]]
        + ["", "", "def admissible(vals):", "    " + unpack]
        + ["    " + f"if {test}: return False" for _, test in tests] + ["    return True"]
        + ["", "", "def walk(ranges, j, w):"] + ["    " + line for line in walk]
    ) + "\n"
    return source, compile(source, "<binomid evaluator>", "exec")


class CompiledIdentity:
    """An identity compiled for evaluation at many environments.

    `evaluate(vals)` returns the two sides and `admissible(vals)` whether
    every constraint is >= 0, for `vals` the parameter values in declared
    order; a constraint on the bound variable must hold at every index of
    the summation range. `walk(ranges, j, w)` checks the grid of inclusive
    (lo, hi) ranges in declared order at the points whose flat index (last
    parameter fastest) is j modulo w, for 0 <= j < w, and returns the number
    of admissible points and the failing ones as ([values], lhs, rhs), in
    flat order. `source` is the generated text of the three functions.
    Raises EvalError when the identity mentions a variable that is neither
    a parameter nor, inside the sum and its constraints, the bound variable.
    """

    def __init__(self, ident: Identity):
        self.params = ident.params
        self.source, code = _evaluator_code(ident.lhs, ident.rhs, ident.constraints, ident.params)
        computed = binomial  # the rows keep the binomial of this moment
        namespace = {"cache": _Memo(lambda n: _Memo(functools.partial(computed, n)))}
        exec(code, namespace)
        # popped, so the namespace (the functions' globals) holds no reference
        # cycle and the memo is freed with this object, not by the collector
        self.evaluate = namespace.pop("evaluate")
        self.admissible = namespace.pop("admissible")
        self.walk = namespace.pop("walk")


def _compiled_at(ident: Identity, env: Mapping[str, int]):
    """The identity compiled with every name of env in scope, in env's order,
    and env's values."""
    compiled = CompiledIdentity(Identity(ident.name, tuple(env), ident.lhs, ident.rhs, ident.constraints))
    return compiled, list(env.values())


def eval_side(side: Side, env: Mapping[str, int]) -> int:
    """The side's value at env."""
    compiled, vals = _compiled_at(Identity("side", (), side, Term()), env)
    return compiled.evaluate(vals)[0]


def eval_identity(ident: Identity, env: Mapping[str, int]) -> EvalResult:
    """Evaluate both sides exactly; raises on unbound params or violated constraints."""
    for p in ident.params:
        if p not in env:
            raise EvalError(f"identity '{ident.name}': parameter '{p}' not bound")
    compiled, vals = _compiled_at(ident, env)
    if not compiled.admissible(vals):
        raise ConstraintError(f"identity '{ident.name}': constraints violated at {dict(env)}")
    return EvalResult(*compiled.evaluate(vals))


# ---------------------------------------------------------------------------
# Canonicalization


def _canonical_sign(e: Optional[LinExpr]) -> Optional[LinExpr]:
    if e is None:
        return None
    p = e.parity()
    return None if p == ZERO else p


def canonicalize_term(t: Term) -> Term:
    factors = tuple(sorted((f for f in t.factors if f.lower != ZERO), key=BinomFactor.key))
    return Term(_canonical_sign(t.sign_exponent), factors)


def _canonical_bound_name(taken: set[str]) -> str:
    if "k" not in taken:
        return "k"
    for i in itertools.count(1):
        name = f"k{i}"
        if name not in taken:
            return name


def _rename_bound(s: SumExpr, new: str) -> SumExpr:
    if s.bound_var == new:
        return s
    return SumExpr(new, s.lower, s.upper, _subst_term(s.body, {s.bound_var: LinExpr.var(new)}))


def canonicalize(ident: Identity) -> Identity:
    """Normalize an identity to its canonical form.

    Factors are sorted, factors with lower index identically 0 (value 1) are
    dropped, sign exponents are reduced to their mod-2 representative, and
    the bound variable is alpha-renamed to a fixed canonical name. Idempotent
    and evaluation-invariant.
    """
    lhs = ident.lhs
    if isinstance(lhs, SumExpr):
        lhs = _rename_bound(lhs, _canonical_bound_name(set(ident.params)))
        lhs = SumExpr(lhs.bound_var, lhs.lower, lhs.upper, canonicalize_term(lhs.body))
    else:
        lhs = canonicalize_term(lhs)
    constraints = tuple(sorted(set(ident.constraints), key=LinExpr.key))
    return Identity(ident.name, ident.params, lhs, canonicalize_term(ident.rhs), constraints)


# ---------------------------------------------------------------------------
# Substitution


def _subst_term(t: Term, m: Mapping[str, LinExpr]) -> Term:
    return Term(
        t.sign_exponent.subst(m) if t.sign_exponent is not None else None,
        tuple(BinomFactor(f.upper.subst(m), f.lower.subst(m)) for f in t.factors),
    )


def substitute_raw(ident: Identity, sub: Substitution, new_name: str) -> Identity:
    """Apply a substitution without canonicalizing (factor order preserved)."""
    m = sub.as_dict()
    for p in ident.params:
        if p not in m:
            raise SubstitutionError(f"substitution into '{ident.name}' misses parameter '{p}'")
    params = sub.target_params

    lhs = ident.lhs
    if isinstance(lhs, SumExpr):
        # the bound variable is not a parameter; keep it out of the image vars
        bv = lhs.bound_var
        if any(bv in image.variables() for image in m.values()) or bv in params:
            lhs = _rename_bound(lhs, _canonical_bound_name(set(params) | set(m)))
            bv = lhs.bound_var
        lhs = SumExpr(bv, lhs.lower.subst(m), lhs.upper.subst(m), _subst_term(lhs.body, m))
    else:
        lhs = _subst_term(lhs, m)
    return Identity(
        new_name,
        params,
        lhs,
        _subst_term(ident.rhs, m),
        tuple(c.subst(m) for c in ident.constraints),
    )


def substitute(ident: Identity, sub: Substitution, new_name: str) -> Identity:
    """Specialize an identity through a parameter substitution, canonicalized."""
    return canonicalize(substitute_raw(ident, sub, new_name))


# ---------------------------------------------------------------------------
# Rewrite rules
#
# Each rule rewrites one factor of a term in place and returns the new term
# plus an optional side condition (a LinExpr that must be >= 0 for the
# rewrite to preserve values; None when unconditional).


def _merge_sign(sign: Optional[LinExpr], extra: LinExpr) -> Optional[LinExpr]:
    return extra if sign is None else sign + extra


def rewrite_upper_negation(t: Term, i: int) -> tuple[Term, Optional[LinExpr]]:
    """C(n,k) becomes (-1)^k C(k-n-1,k); valid for all integers."""
    f = t.factors[i]
    factors = list(t.factors)
    factors[i] = BinomFactor(f.lower - f.upper - ONE, f.lower)
    return Term(_merge_sign(t.sign_exponent, f.lower), tuple(factors)), None


def rewrite_second_symmetry(t: Term, i: int) -> tuple[Term, Optional[LinExpr]]:
    """C(n,k) becomes (-1)^(n-k) C(-k-1,n-k); needs n-k >= 0 recorded."""
    f = t.factors[i]
    nk = f.upper - f.lower
    factors = list(t.factors)
    factors[i] = BinomFactor(-f.lower - ONE, nk)
    return Term(_merge_sign(t.sign_exponent, nk), tuple(factors)), nk


def rewrite_lower_symmetry(t: Term, i: int) -> tuple[Term, Optional[LinExpr]]:
    """C(n,k) becomes C(n,n-k); needs n >= 0 recorded."""
    f = t.factors[i]
    factors = list(t.factors)
    factors[i] = BinomFactor(f.upper, f.upper - f.lower)
    return Term(t.sign_exponent, tuple(factors)), f.upper


TERM_REWRITES = {
    "upper_negation": rewrite_upper_negation,
    "second_symmetry": rewrite_second_symmetry,
    "lower_symmetry": rewrite_lower_symmetry,
}


# ---------------------------------------------------------------------------
# Identity-level rewrite chains


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite application at a factor position of one side."""

    op: str
    side: str  # "lhs" | "rhs"
    index: int


@dataclass(frozen=True)
class SubstStep:
    mapping: tuple[tuple[str, LinExpr], ...]


@dataclass(frozen=True)
class CancelSignStep:
    pass


ChainStep = Union[RewriteStep, SubstStep, CancelSignStep]


def _term_of_side(side: Side) -> Term:
    return side.body if isinstance(side, SumExpr) else side


def _with_term(side: Side, t: Term) -> Side:
    if isinstance(side, SumExpr):
        return SumExpr(side.bound_var, side.lower, side.upper, t)
    return t


def cancel_common_sign(ident: Identity) -> Identity:
    """Drop (-1)^e from both sides when the exponents agree in parity."""
    lt = _term_of_side(ident.lhs)
    rt = ident.rhs
    if lt.sign_exponent is None or rt.sign_exponent is None:
        raise RewriteError("cancel_sign: both sides must carry a sign exponent")
    if lt.sign_exponent.parity() != rt.sign_exponent.parity():
        raise RewriteError(
            f"cancel_sign: exponents {lt.sign_exponent} and {rt.sign_exponent} "
            "differ in parity"
        )
    return Identity(
        ident.name,
        ident.params,
        _with_term(ident.lhs, Term(None, lt.factors)),
        Term(None, rt.factors),
        ident.constraints,
    )


def apply_chain_step(ident: Identity, step: ChainStep) -> Identity:
    if isinstance(step, CancelSignStep):
        return cancel_common_sign(ident)
    if isinstance(step, SubstStep):
        mapping = dict(step.mapping)
        full = {p: mapping.get(p, LinExpr.var(p)) for p in ident.params}
        sub = Substitution.of(full, ident.params)
        return substitute_raw(ident, sub, ident.name)
    rule = TERM_REWRITES[step.op]
    side = ident.lhs if step.side == "lhs" else ident.rhs
    term = _term_of_side(side)
    new_term, condition = rule(term, step.index)
    constraints = ident.constraints
    if condition is not None:
        constraints = constraints + (condition,)
    if step.side == "lhs":
        return Identity(ident.name, ident.params, _with_term(ident.lhs, new_term), ident.rhs, constraints)
    return Identity(ident.name, ident.params, ident.lhs, new_term, constraints)


def apply_chain(ident: Identity, steps) -> Identity:
    for step in steps:
        ident = apply_chain_step(ident, step)
    return ident


# ---------------------------------------------------------------------------
# Structural equality (never numeric)


def structurally_equal(a: Identity, b: Identity, allow_renaming: bool = False) -> bool:
    """True iff canonical forms coincide, optionally up to renaming params.

    Compares the equation shape only (constraints and names are metadata);
    never resorts to numeric sampling. Renaming tries every bijection of
    a's parameters onto b's, declared order first, so a mismatch between
    identities with p parameters costs p! substitutions.
    """
    ca, cb = canonicalize(a), canonicalize(b)
    if not allow_renaming:
        return ca.lhs == cb.lhs and ca.rhs == cb.rhs
    if len(ca.params) != len(cb.params):
        return False
    for images in itertools.permutations(cb.params):
        sub = Substitution.of({p: LinExpr.var(q) for p, q in zip(ca.params, images)}, cb.params)
        renamed = substitute(ca, sub, cb.name)
        if renamed.lhs == cb.lhs and renamed.rhs == cb.rhs:
            return True
    return False
