"""AST for parameterized binomial identities and the operations on it.

The value domain is affine integer expressions (`LinExpr`) sitting inside
binomial factors, products of factors with an optional (-1)^e sign, finite
sums over one bound variable, and named identities with nonnegativity
constraints. Every AST node is an immutable dataclass; all operations return
new values and are safe under concurrency. `CompiledIdentity`, the one
evaluator, runs two Python functions generated from an identity's AST. Their
code objects are compiled once and cached per (lhs, rhs, constraints, names
in scope), and hold no state; each `CompiledIdentity` execs them into its own
namespace with its own binomial memo, and belongs to the caller that built it.
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
    def of(const: int = 0, **vars: int) -> "LinExpr":
        return LinExpr.make(const, vars)

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

    def __str__(self) -> str:
        return f"C({self.upper},{self.lower})"


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

    def bound_var(self) -> Optional[str]:
        return self.lhs.bound_var if isinstance(self.lhs, SumExpr) else None


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
# An identity is evaluated by two Python functions generated from its AST.
# The names in scope become the locals v0, v1, ... in declared order and the
# bound variable the next one; each affine expression is written out inline
# over those locals and int literals, so no name or text from a catalog
# reaches the source. Binomials go through a memo dict owned by each compiled
# identity: across a grid the same (n, k) pairs recur constantly. Compiling
# the source costs far more than running it once, so the code objects (never
# the functions, whose globals hold a memo) are cached per (lhs, rhs,
# constraints, names in scope). The memo calls the `binomial` this module
# holds when the identity is compiled, so a rebound `model.binomial` (as the
# benchmark tracer installs) sees every computed pair.

_CODE_CACHE_SIZE = 256


class _Memo(dict):
    """(n, k) -> binomial(n, k), computed on the first lookup of the pair."""

    def __init__(self, binomial):
        super().__init__()
        self.binomial = binomial

    def __missing__(self, key):
        value = self[key] = self.binomial(*key)
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


def _term_lines(t: Term, slot: Mapping[str, str]) -> list[str]:
    """Statements leaving the term's value in t; no factor after a zero is looked up."""
    sign = _lin(t.sign_exponent, slot) if t.sign_exponent is not None else None
    keys = [f"cache[{_lin(f.upper, slot)}, {_lin(f.lower, slot)}]" for f in t.factors]
    lines = [f"t = {keys[0]}" if keys else "t = 1"] + [f"if t: t *= {key}" for key in keys[1:]]
    if sign is not None:
        lines.append(f"if t and ({sign}) % 2: t = -t")
    return lines


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _evaluator_code(lhs: Side, rhs: Term, constraints: tuple[LinExpr, ...], names: tuple[str, ...]):
    """Source and code object defining `evaluate` and `admissible` over `vals`."""
    slot = {p: f"v{i}" for i, p in enumerate(names)}
    unpack = f"[{', '.join(slot.values())}] = vals"
    rhs_lines = _term_lines(rhs, slot)
    bv = lhs.bound_var if isinstance(lhs, SumExpr) else None
    if bv is None:
        lhs_lines = _term_lines(lhs, slot) + ["lhs = t"]
    else:
        loop = f"for v{len(names)} in range({_lin(lhs.lower, slot)}, {_lin(lhs.upper, slot)} + 1):"
        slot = {**slot, bv: f"v{len(names)}"}
        lhs_lines = ["lhs = 0", loop] + ["    " + line for line in _term_lines(lhs.body, slot)] + ["    lhs += t"]
    checks, pointwise = [], []
    for c in constraints:
        (pointwise if bv in c.variables() else checks).append(f"if {_lin(c, slot)} < 0: return False")
    if pointwise:
        checks += [loop] + ["    " + line for line in pointwise]
    source = "\n".join(
        ["def evaluate(vals):", "    " + unpack]
        + ["    " + line for line in lhs_lines + rhs_lines + ["return lhs, t"]]
        + ["", "", "def admissible(vals):", "    " + unpack]
        + ["    " + line for line in checks + ["return True"]]
    ) + "\n"
    return source, compile(source, "<binomid evaluator>", "exec")


class CompiledIdentity:
    """An identity compiled for evaluation at many environments.

    `evaluate(vals)` returns the two sides and `admissible(vals)` whether
    every constraint is >= 0, for `vals` the parameter values in declared
    order; a constraint on the bound variable must hold at every index of
    the summation range. `source` is the generated text of both functions.
    Raises EvalError when the identity mentions a variable that is neither
    a parameter nor, inside the sum and its constraints, the bound variable.
    """

    def __init__(self, ident: Identity):
        self.source, code = _evaluator_code(ident.lhs, ident.rhs, ident.constraints, ident.params)
        namespace = {"cache": _Memo(binomial)}
        exec(code, namespace)
        # popped, so the namespace (the functions' globals) holds no reference
        # cycle and the memo is freed with this object, not by the collector
        self.evaluate = namespace.pop("evaluate")
        self.admissible = namespace.pop("admissible")


def _compiled_at(ident: Identity, env: Mapping[str, int]) -> tuple[CompiledIdentity, list[int]]:
    """The identity compiled with every name of env in scope, and env's values."""
    names = tuple(env)
    compiled = CompiledIdentity(Identity(ident.name, names, ident.lhs, ident.rhs, ident.constraints))
    return compiled, [env[n] for n in names]


def eval_side(side: Side, env: Mapping[str, int]) -> int:
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
