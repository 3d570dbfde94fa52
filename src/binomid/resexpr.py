"""Expression language for proof states: formal sums, residues, series.

Proof scripts ship as data; every intermediate state of a proof is a small
expression over the series variables (x, y, z) and the instance parameters,
built from integer powers, binomial values, finite and support-bounded
infinite sums, residue extraction, and collapsed geometric series. The
evaluator turns a state into a concrete LaurentSeries at one parameter
instance, inside a truncation window, by a function generated for the
state on its first evaluation (see `evaluate`). A product, and a residue
chain over one, is one call of `series.product`, where the box rules live.
A separable residue chain is an integer by Egorychev's coefficient rule,
res_v (1+v)^E v^M = C(E, -1-M), exact under any window (`_separable`).

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

import functools
from dataclasses import dataclass, field
from typing import Mapping, Union

from . import dsl
from .arith import binomial
from .model import BinomFactor, EvalError, LinExpr, SumExpr, Term, _lin, frozen_node
from .series import EngineError, LaurentSeries, geo_residue, geometric_collapse, product, res, window_box


class SupportBoundError(EngineError):
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
    value. Contexts may share one memo only while they share `vars`,
    `window` and `probe`: a proof run hands one memo to all instances of the
    same window. The window is a mapping or already a box; `box` is the
    window as `series.window_box` bounds.
    """

    vars: tuple[str, ...]
    window: Mapping[str, tuple[int, int]] | tuple
    probe: int
    env: dict[str, int]
    # value cache for the root nodes evaluated in this environment
    cache: dict | None = None
    memo: dict = field(default_factory=dict)
    box: tuple = field(init=False)

    def __post_init__(self):
        self.vars = tuple(self.vars)
        self.box = window_box(self.vars, self.window)


def free_params(node: RNode) -> tuple[str, ...]:
    """The sorted names a node's value depends on."""
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
    return tuple(sorted(names))


def evaluate(node: RNode, ctx: EvalContext) -> LaurentSeries:
    """The node's value in ctx, by the function generated for it on its
    first evaluation and compiled once per equal node (`_compiled`).

    The function keeps every non-leaf node's value in `ctx.memo`, and runs
    the series operations as a walk of the tree would: a sum's terms in
    index order, a product's factors left to right, all before the first
    multiplication (`series.product`, the one product routine; a product
    with no residue never raises, so the first error is the walk's). A
    subtree of integers, binomials, products, sums, `isum`s and separable
    residue chains is computed in int arithmetic and made a constant series
    once. A separable chain (`_separable`) is the sum of products of
    binomials that Egorychev's coefficient rule gives, after the check that
    each of its variables is a series variable. Where the window holds
    exponent 0 of every variable (a proof's always does), every series value
    of the rest on the way would be an exact constant, which its value
    fixes; under any other window the subtree is its exact constant, as an
    integer leaf is. So is a separable chain, also where the series path
    would find a residue's -1 plane, or the coefficient it needs of an
    inexact (1+v)^E, outside the window and raise `WindowError`.

    Any other chain of nested residues over a product is a residue-directed
    `series.product` (`series.geo_residue` over a `geo` factor): its
    factors' values come from the memo as computed over the full window,
    and only the partial products, which no other node shares, are clipped
    further, to the exponents that can still reach the residue plane. The
    memo is keyed by node and parameter values alone, so it must hold
    full-window values; the inner residues of such a chain are not kept in
    it. The box rules all live in `series`.
    """
    cache = ctx.cache
    if cache is not None:
        hit = cache.get(node)
        if hit is not None:
            return hit
    value = _compiled(node)(ctx)
    if cache is not None:
        cache[node] = value
    return value


# CPython's compile errors for nesting past its fixed limits (20 nested loops,
# 100 indentation levels); a state nested that deeply fails its own step
_NESTING_LIMITS = ("too many statically nested blocks", "too many levels of indentation")


@functools.lru_cache(maxsize=256)
def _compiled(node: RNode):
    """The generated function of a node, built once per equal node."""
    gen = _Generator()
    source = gen.source(node)
    try:
        code = compile(source, "<binomid state>", "exec")
    except SyntaxError as exc:
        if exc.msg not in _NESTING_LIMITS:
            raise  # any other syntax error is a bug of the generator
        raise EngineError(f"state nested too deeply to compile: {exc.msg}") from None
    namespace = {}
    # the functions run on this module's globals, so `binomial`, `res` and the
    # rest are looked up at each call: a wrapper rebound later is seen
    exec(code, globals(), namespace)
    return namespace["make"](*gen.constants)


def _integral(node: RNode) -> bool:
    """Whether the node's value is an integer at every instance."""
    if isinstance(node, (RInt, RBinom)):
        return True
    if isinstance(node, RRes):
        return _separable(node) is not None
    if isinstance(node, RProd):
        return all(map(_integral, node.factors))
    if isinstance(node, RAdd):
        return all(_integral(t) for _, t in node.terms)
    return isinstance(node, (RSum, RISum)) and _integral(node.body)


def _separable(node: RRes):
    """The integral node equal to a separable residue chain, None if the
    chain is not separable.

    A chain res(v1)[...res(vn)[body]] over distinct variables is separable
    when its body names no variable outside the chain and is a product of
    integral factors, powers (1+v)^(e), monomials v^(m), (v*w)^(m) and v,
    and at most one finite sum of such a product, whose index the rest of
    the body does not name. Its value is then, by Egorychev's coefficient
    rule res_v (1+v)^E v^M = C(E, -1-M), the sum over that index of the
    integral factors times C(E_v, -1-M_v) for each v of the chain: E_v adds
    up the exponents of (1+v), M_v those of v.
    """
    chain = []
    while isinstance(node, RRes):
        chain.append(node.var)
        node = node.body
    exponents = {v: [LinExpr(), LinExpr()] for v in chain}  # v -> [E_v, M_v]
    if len(exponents) < len(chain):
        return None
    factors, ints, total = list(_factors(node)), [], None
    for f in factors:  # the sum's factors join the list
        if _integral(f):
            ints.append(f)
        elif isinstance(f, RSum) and total is None and f.var not in free_params(node):
            total = f
            factors += _factors(f.body)
        else:
            base, e = (f.base, f.exponent) if isinstance(f, RPow) else (f, LinExpr(1))
            if (isinstance(base, RAdd) and len(base.terms) == 2 and base.terms[0] == (1, RInt(1))
                    and base.terms[1][0] == 1):
                names, which = (base.terms[1][1],), 0
            else:
                names, which = _factors(base), 1
            for name in names:
                if not (isinstance(name, RVar) and name.name in exponents):
                    return None
                exponents[name.name][which] += e
    value = RProd((*ints, *(RBinom(e, LinExpr(-1) - m) for e, m in exponents.values())))
    return value if total is None else RSum(total.var, total.lower, total.upper, value)


def _factors(node: RNode) -> tuple:
    return node.factors if isinstance(node, RProd) else (node,)


class _Generator:
    """The source of one node's function `make(*constants)(ctx)`.

    Parameters are locals `v0, v1, ...` (the node's free parameters), each
    binder's variable a loop local, and linexprs are rendered by
    `model._lin`. Each `series`, `compute` or `integer` call emits the
    statements a node needs and returns an expression for its value.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.constants: list = []
        self.uses: list = []  # (linexpr, its parameters) in evaluation order
        self.count = 0
        self.params: dict[str, str] = {}

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"n{len(self.constants) - 1}"

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def lin(self, e: LinExpr, slot) -> str:
        self.uses.append((e, tuple(v for v, _ in e.coeffs if slot[v] == self.params.get(v))))
        return _lin(e, slot)

    def source(self, node: RNode) -> str:
        self.params = {p: f"v{i}" for i, p in enumerate(free_params(node))}
        value = self.series(node, self.params, 2)
        body, self.lines = self.lines, []
        uses = self.constant(tuple(self.uses))
        self.emit(0, f"def make({', '.join(f'n{i}' for i in range(len(self.constants)))}):")
        self.emit(1, "def run(ctx):")
        for name in ("env", "vars", "box", "probe", "memo"):
            self.emit(2, f"{name} = ctx.{name}")
        self.emit(2, "get = memo.get")
        if self.params:
            self.emit(2, "try:")
            for name, local in self.params.items():
                self.emit(3, f"{local} = env[{name!r}]")
            self.emit(2, "except KeyError:")
            self.emit(3, f"_unbound(env, {uses})")
        self.lines += body
        self.emit(2, f"return {value}")
        self.emit(1, "return run")
        return "\n".join(self.lines) + "\n"

    def series(self, node: RNode, slot, depth: int, compute=None) -> str:
        """A node's value as a LaurentSeries, through the memo; `compute`
        emits its computation where it is not the node's own."""
        values = [slot[p] for p in free_params(node)]
        key, out = self.fresh("m") if values else self.constant((node,)), self.fresh("s")
        lookup = f"({key} := ({', '.join([self.constant(node)] + values)}))" if values else key
        self.emit(depth, f"{out} = get({lookup})")
        self.emit(depth, f"if {out} is None:")
        value = (compute or self.compute)(node, slot, depth + 1)
        self.emit(depth + 1, f"{out} = _keep(memo, {key}, {value})")
        return out

    def compute(self, node: RNode, slot, depth: int) -> str:
        """A node's value, computed; an integral one in int arithmetic."""
        if _integral(node):
            return f"LaurentSeries.constant(vars, {self.integer(node, slot, depth)})"
        if isinstance(node, RVar):
            return f"_variable(vars, {node.name!r})"
        if isinstance(node, RPow):
            base = self.series(node.base, slot, depth)
            return f"{base}.pow({self.lin(node.exponent, slot)}, box)"
        if isinstance(node, RProd):
            factors = [self.series(f, slot, depth) for f in node.factors]
            return f"product(({', '.join(factors)}), box)"
        if isinstance(node, RAdd):
            out = self.fresh("s")
            for i, (sign, term) in enumerate(node.terms):
                piece = self.series(term, slot, depth)
                piece = piece if sign > 0 else f"(-{piece})"
                # the first term added to 0 is that term
                self.emit(depth, f"{out} = {piece}" if i == 0 else f"{out} = {out} + {piece}")
            return out
        if isinstance(node, (RSum, RISum)):
            return self.sum(node, slot, depth, False)
        if isinstance(node, RRes):
            return self.residue(node, slot, depth)
        if isinstance(node, RGeo):
            return f"geometric_collapse({self.series(node.body, slot, depth)}, box)"
        raise TypeError(f"unknown node {node!r}")

    def residue(self, node: RRes, slot, depth: int) -> str:
        """A residue; a chain of nested residues over a product takes the
        innermost one in a residue-directed `product`, whose inner residues
        the memo does not hold, and plain `res` outside it."""
        chain, body = (node.var,), node.body
        while isinstance(body, RRes):
            chain, body = chain + (body.var,), body.body
        if not isinstance(body, RProd):
            return f"res({self.series(node.body, slot, depth)}, {node.var!r})"
        geos = [f for f in body.factors if isinstance(f, RGeo)]
        # the residue of rest * geo[ratio], exchanged with the geometric sum;
        # where the exchange does not apply, the product of the same values
        ratio = self.series(geos[0].body, slot, depth) if len(geos) == 1 else None
        values = [f if ratio and isinstance(f, RGeo) else self.series(f, slot, depth) for f in body.factors]
        out = self.fresh("s")
        if ratio:
            rest = "".join(f"{v}, " for v in values if isinstance(v, str))
            self.emit(depth, f"{out} = geo_residue({ratio}, ({rest}), box, {chain!r})")
            self.emit(depth, f"if {out} is None:")
            depth += 1
            collapse = lambda *_: f"geometric_collapse({ratio}, box)"  # noqa: E731
            values = [self.series(v, slot, depth, collapse) if isinstance(v, RGeo) else v for v in values]
        self.emit(depth, f"{out} = product(({', '.join(values)}), box, {chain[:-1]!r}, {chain[-1]!r})")
        for var in reversed(chain[:-1]):
            out = f"res({out}, {var!r})"
        return out

    def sum(self, node, slot, depth: int, integral: bool) -> str:
        """A sum or isum over its binder, in int arithmetic or as a series; an
        isum's probe terms past its bound must be zero."""
        value = self.integer if integral else self.series
        out, k = self.fresh("i" if integral else "s"), self.fresh("k")
        zero = "0" if integral else "LaurentSeries.zero(vars)"
        inner = {**slot, node.var: k}
        if isinstance(node, RSum):
            lo, hi = self.lin(node.lower, slot), self.lin(node.upper, slot)
            self.emit(depth, f"{out} = {zero}")
            self.emit(depth, f"for {k} in range({lo}, {hi} + 1):")
            self.emit(depth + 1, f"{out} = {out} + {value(node.body, inner, depth + 1)}")
            return out
        bound, term = self.fresh("b"), self.fresh("t")
        self.emit(depth, f"{bound} = max({self.lin(node.bound, slot)}, -1)")
        self.emit(depth, f"{out} = {zero}")
        self.emit(depth, f"for {k} in range(0, {bound} + 1 + probe):")
        self.emit(depth + 1, f"{term} = {value(node.body, inner, depth + 1)}")
        self.emit(depth + 1, f"if {k} <= {bound}:")
        self.emit(depth + 2, f"{out} = {out} + {term}")
        nonzero = term if integral else f"{term}.coeffs"
        self.emit(depth + 1, f"elif {nonzero}:")
        message = f"isum({node.var},{node.bound}): term at {node.var}="
        self.emit(depth + 2, f"raise SupportBoundError({message!r} + str({k}) + ' is not zero')")
        return out

    def integer(self, node: RNode, slot, depth: int) -> str:
        """The value of an integral node (`_integral`) as an int."""
        if isinstance(node, RInt):
            return f"({node.value})"
        if isinstance(node, RBinom):
            return f"binomial({self.lin(node.upper, slot)}, {self.lin(node.lower, slot)})"
        if isinstance(node, RProd):
            return "(" + " * ".join(self.integer(f, slot, depth) for f in node.factors) + ")"
        if isinstance(node, RAdd):
            terms = [("+ " if sign > 0 else "- ") + self.integer(t, slot, depth) for sign, t in node.terms]
            return "(" + " ".join(terms).removeprefix("+ ") + ")"
        if isinstance(node, RRes):
            # a separable chain (`_separable`) fails as the series path does:
            # a residue variable that is not a series variable raises the
            # error of `_variable`, and an unbound parameter is named in the
            # linexpr the series path reads first, so the body's own
            # linexprs, as its generated code reads them, come first in `uses`
            body = node
            while isinstance(body, RRes):
                self.emit(depth, f"if {body.var!r} not in vars: _variable(vars, {body.var!r})")
                body = body.body
            series_path = _Generator()
            series_path.params = self.params
            series_path.series(body, slot, depth)
            self.uses += series_path.uses
            return self.integer(_separable(node), slot, depth)
        return self.sum(node, slot, depth, True)


def _keep(memo: dict, key, value: LaurentSeries) -> LaurentSeries:
    """Store a value in the memo, emptied first when it is full."""
    if len(memo) >= MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


@functools.lru_cache(maxsize=64)
def _variable(vars, name: str) -> LaurentSeries:
    """The series of one variable, built once per variable tuple: no
    operation changes a series it is given, so every state can hold it."""
    if name not in vars:
        raise EngineError(f"'{name}' is not a series variable")
    return LaurentSeries.monomial(vars, {name: 1})


def _unbound(env, uses) -> None:
    """Raise the EvalError of the first linexpr, in evaluation order, that
    names a parameter env does not bind."""
    for e, params in uses:
        for v in params:
            if v not in env:
                raise EvalError(f"unbound variable '{v}' in expression {e}")


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
