"""Expression language for proof states: formal sums, residues, series.

Proof scripts ship as data; every intermediate state of a proof is a small
expression over the series variables (x, y, z) and the instance parameters,
built from integer powers, binomial values, finite and support-bounded
infinite sums, residue extraction, and collapsed geometric series. The
evaluator turns a state into a concrete LaurentSeries at one parameter
instance, inside a truncation window.

    expr    ::= ("-")? term (("+"|"-") term)*
    term    ::= factor ("*" factor)*
    factor  ::= base ("^" "(" linexpr ")")?
    base    ::= INT | NAME | "C" "(" linexpr "," linexpr ")" | "(" expr ")"
              | "sum" "(" NAME "," linexpr "," linexpr ")" "[" expr "]"
              | "isum" "(" NAME "," linexpr ")" "[" expr "]"
              | "res" "(" NAME ")" "[" expr "]"
              | "geo" "[" expr "]"

`isum(k,b)[...]` is a sum over k >= 0 whose terms are asserted to vanish for
k > b; the evaluator checks that assertion on a probe range past the bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from . import dsl
from .arith import binomial
from .model import BinomFactor, LinExpr, SumExpr, Term, frozen_node
from .series import INF, EngineError, LaurentSeries, geometric_collapse, res, window_box


class SupportBoundError(Exception):
    """An isum term past the declared support bound is not zero."""


@frozen_node
class RInt:
    value: int


@frozen_node
class RVar:
    name: str


@frozen_node
class RBinom:
    upper: LinExpr
    lower: LinExpr


@frozen_node
class RPow:
    base: "RNode"
    exponent: LinExpr


@frozen_node
class RProd:
    factors: tuple["RNode", ...]


@frozen_node
class RAdd:
    terms: tuple[tuple[int, "RNode"], ...]  # (sign, node)


@frozen_node
class RSum:
    var: str
    lower: LinExpr
    upper: LinExpr
    body: "RNode"


@frozen_node
class RISum:
    var: str
    bound: LinExpr
    body: "RNode"


@frozen_node
class RRes:
    var: str
    body: "RNode"


@frozen_node
class RGeo:
    body: "RNode"


RNode = Union[RInt, RVar, RBinom, RPow, RProd, RAdd, RSum, RISum, RRes, RGeo]


# binder name -> (node class, number of linexpr bounds after the bound variable)
_BINDERS = {"sum": (RSum, 2), "isum": (RISum, 1), "res": (RRes, 0)}


class _Parser(dsl._Parser):
    """The expression grammar on the catalog parser's tokens and linexprs."""

    def expr(self) -> RNode:
        terms: list[tuple[int, RNode]] = []
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        terms.append((sign, self.term()))
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.next().text == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return RAdd(tuple(terms))

    def term(self) -> RNode:
        factors = [self.factor()]
        while self.at_sym("*"):
            self.next()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else RProd(tuple(factors))

    def factor(self) -> RNode:
        base = self.base()
        if self.at_sym("^"):
            self.next()
            self.expect_sym("(")
            e = self.parse_linexpr()
            self.expect_sym(")")
            return RPow(base, e)
        return base

    def base(self) -> RNode:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return RInt(int(tok.text))
        if self.at_sym("("):
            self.next()
            inner = self.expr()
            self.expect_sym(")")
            return inner
        if tok.kind != "NAME":
            raise self.error("expected an expression")
        if tok.text == "C":
            f = self.parse_binom(None)
            return RBinom(f.upper, f.lower)
        name = self.next().text
        if name == "geo":
            return RGeo(self.body())
        if name not in _BINDERS:
            return RVar(name)
        node, bounds = _BINDERS[name]
        self.expect_sym("(")
        args = [self.expect_name().text]
        for _ in range(bounds):
            self.expect_sym(",")
            args.append(self.parse_linexpr())
        self.expect_sym(")")
        return node(*args, self.body())

    def body(self) -> RNode:
        """The `[expr]` a binder applies to."""
        self.expect_sym("[")
        body = self.expr()
        self.expect_sym("]")
        return body


def parse_resexpr(text: str) -> RNode:
    return _Parser.parse_whole(text, _Parser.expr, "expression")


# ---------------------------------------------------------------------------
# Evaluation


# Entries one memo may hold before it is emptied and refilled. A memo serves
# the instances of one window in one shard, and their number, so the memo's
# size, grows with the parameter ranges.
MEMO_LIMIT = 8_192


@dataclass
class EvalContext:
    """Where and at which parameter values a proof state is evaluated.

    `memo` maps (node, *values of the node's free parameters) to the node's
    value and is consulted in every scope. Contexts may share one memo only
    while they share `vars`, `window` and `probe`: child scopes do, and a
    proof run hands one memo to all instances of the same window. `box` is
    the window as `series.window_box` bounds, computed once per context tree.
    """

    vars: tuple[str, ...]
    window: dict[str, tuple[int, int]]
    probe: int
    env: dict[str, int]
    # value cache for the root environment; inner binder scopes disable it
    cache: dict | None = None
    memo: dict = field(default_factory=dict)
    box: tuple | None = None

    def __post_init__(self):
        if self.box is None:
            self.box = window_box(self.vars, self.window)

    def child(self, var: str, value: int) -> "EvalContext":
        env = dict(self.env)
        env[var] = value
        return EvalContext(self.vars, self.window, self.probe, env, None, self.memo, self.box)


def free_params(node: RNode) -> tuple[str, ...]:
    """The sorted names a node's value depends on; cached on the node."""
    try:
        return node._free
    except AttributeError:
        pass
    names: set[str] = set()
    if isinstance(node, RBinom):
        names.update(node.upper.variables(), node.lower.variables())
    elif isinstance(node, RPow):
        names.update(free_params(node.base), node.exponent.variables())
    elif isinstance(node, RProd):
        for f in node.factors:
            names.update(free_params(f))
    elif isinstance(node, RAdd):
        for _, t in node.terms:
            names.update(free_params(t))
    elif isinstance(node, (RSum, RISum)):
        names.update(free_params(node.body))
        names.discard(node.var)
        bounds = (node.lower, node.upper) if isinstance(node, RSum) else (node.bound,)
        for b in bounds:
            names.update(b.variables())
    elif isinstance(node, (RRes, RGeo)):
        names.update(free_params(node.body))
    free = tuple(sorted(names))
    object.__setattr__(node, "_free", free)  # kept out of pickles, like the hash
    return free


def evaluate(node: RNode, ctx: EvalContext) -> LaurentSeries:
    cache = ctx.cache
    if cache is not None:
        hit = cache.get(node)
        if hit is not None:
            return hit
    # one flat tuple: a nested `tuple(map(...))` of values, dropped on every
    # lookup, kept about 0.5 MB more resident over a run of proof instances
    key = (node, *map(ctx.env.get, free_params(node)))
    memo = ctx.memo
    hit = memo.get(key)
    if hit is None:
        hit = _evaluate(node, ctx)
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[key] = hit
    if cache is not None:
        cache[node] = hit
    return hit


def _evaluate(node: RNode, ctx: EvalContext) -> LaurentSeries:
    if isinstance(node, RInt):
        return LaurentSeries.constant(ctx.vars, node.value)
    if isinstance(node, RVar):
        if node.name not in ctx.vars:
            raise EngineError(f"'{node.name}' is not a series variable")
        return LaurentSeries.monomial(ctx.vars, {node.name: 1})
    if isinstance(node, RBinom):
        value = binomial(node.upper.evaluate(ctx.env), node.lower.evaluate(ctx.env))
        return LaurentSeries.constant(ctx.vars, value)
    if isinstance(node, RPow):
        return evaluate(node.base, ctx).pow(node.exponent.evaluate(ctx.env), ctx.box)
    if isinstance(node, RProd):
        return _product(node.factors, ctx)
    if isinstance(node, RAdd):
        out = LaurentSeries.zero(ctx.vars)
        for sign, sub in node.terms:
            piece = evaluate(sub, ctx)
            out = out + (piece if sign > 0 else -piece)
        return out
    if isinstance(node, RSum):
        lo = node.lower.evaluate(ctx.env)
        hi = node.upper.evaluate(ctx.env)
        out = LaurentSeries.zero(ctx.vars)
        for k in range(lo, hi + 1):
            out = out + evaluate(node.body, ctx.child(node.var, k))
        return out
    if isinstance(node, RISum):
        bound = max(node.bound.evaluate(ctx.env), -1)
        out = LaurentSeries.zero(ctx.vars)
        for k in range(0, bound + 1):
            out = out + evaluate(node.body, ctx.child(node.var, k))
        for k in range(bound + 1, bound + 1 + ctx.probe):
            tail = evaluate(node.body, ctx.child(node.var, k))
            if tail.coeffs:
                raise SupportBoundError(
                    f"isum({node.var},{node.bound}): term at {node.var}={k} is not zero"
                )
        return out
    if isinstance(node, RRes):
        expanded = _res_of_geo_product(node, ctx)
        if expanded is not None:
            return expanded
        if isinstance(node.body, RProd):
            return _product(node.body.factors, ctx, node.var)
        return res(evaluate(node.body, ctx), node.var)
    if isinstance(node, RGeo):
        return geometric_collapse(evaluate(node.body, ctx), ctx.box)
    raise TypeError(f"unknown node {node!r}")


def _product(factors, ctx: EvalContext, var: str | None = None) -> LaurentSeries:
    """The product of two or more factors, clipped to the window after each
    multiplication; with `var`, the last multiplication also takes the residue."""
    out = evaluate(factors[0], ctx)
    for f in factors[1:-1]:
        out = out.__mul__(evaluate(f, ctx), ctx.box)
    return out.__mul__(evaluate(factors[-1], ctx), ctx.box, var)


def _res_of_geo_product(node: RRes, ctx: EvalContext):
    """Residue of `rest * geo[r]`, exchanged with the geometric sum.

    When the ratio moves strictly in the residue variable and the rest of
    the product has finite known support there, only finitely many powers of
    the ratio can reach exponent -1; summing their residues term by term
    avoids forming the full product, whose per-variable accuracy boxes can
    be vacuous even though the residue itself is finite.
    """
    if not isinstance(node.body, RProd):
        return None
    geos = [f for f in node.body.factors if isinstance(f, RGeo)]
    if len(geos) != 1:
        return None
    rest_nodes = [f for f in node.body.factors if not isinstance(f, RGeo)]
    ratio = evaluate(geos[0].body, ctx)
    rest = LaurentSeries.constant(ctx.vars, 1)
    for f in rest_nodes:
        rest = rest.__mul__(evaluate(f, ctx), ctx.box)
    if rest.is_zero:
        return LaurentSeries.zero(ctx.vars)
    i = ctx.vars.index(node.var)
    known_in_var = rest.sup_lo[i] >= rest.acc_lo[i] and rest.sup_hi[i] <= rest.acc_hi[i]
    finite = rest.sup_lo[i] != -INF and rest.sup_hi[i] != INF
    if not (known_in_var and finite):
        return None
    rlo, rhi = ratio.sup_lo[i], ratio.sup_hi[i]
    if rhi <= -1:
        count = max((int(rest.sup_hi[i]) + 1) // -int(rhi), 0)
    elif rlo >= 1:
        count = max((-1 - int(rest.sup_lo[i])) // int(rlo), 0)
    else:
        return None
    total = LaurentSeries.zero(ctx.vars)
    power = LaurentSeries.constant(ctx.vars, 1)
    for k in range(count + 1):
        if k > 0:
            power = power.__mul__(ratio, ctx.box)
        total = total + rest.__mul__(power, var=node.var)
    return total


# ---------------------------------------------------------------------------
# Conversion to the identity model (for Recognize steps)


def node_to_term(node: RNode, aliases: Mapping[str, LinExpr]) -> Term:
    """Convert a product of binomial values into a Term, expanding aliases."""
    factors: list[BinomFactor] = []

    def walk(n: RNode) -> None:
        if isinstance(n, RBinom):
            factors.append(BinomFactor(n.upper.subst(aliases), n.lower.subst(aliases)))
        elif isinstance(n, RProd):
            for f in n.factors:
                walk(f)
        else:
            raise ValueError(f"not a product of binomials: {n!r}")

    walk(node)
    return Term(None, tuple(factors))


def split_carried_sum(node: RNode, aliases: Mapping[str, LinExpr]) -> tuple[Term, SumExpr]:
    """Split a `carried * sum(...)` state into the multiplier and the sum."""
    if not isinstance(node, RProd):
        raise ValueError("state is not a product")
    carried: list[BinomFactor] = []
    sums: list[SumExpr] = []
    for f in node.factors:
        if isinstance(f, RSum):
            body = node_to_term(f.body, aliases)
            sums.append(SumExpr(f.var, f.lower.subst(aliases), f.upper.subst(aliases), body))
        elif isinstance(f, RBinom):
            carried.append(BinomFactor(f.upper.subst(aliases), f.lower.subst(aliases)))
        else:
            raise ValueError(f"unexpected factor in carried-sum state: {f!r}")
    if len(sums) != 1:
        raise ValueError("state must contain exactly one sum")
    return Term(None, tuple(carried)), sums[0]
