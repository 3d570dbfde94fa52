"""Text format for identities and catalogs.

Grammar (whitespace-insensitive, `#` starts a line comment):

    identity   ::= "identity" NAME "params" "(" NAME ("," NAME)* ")"
                   ("require" linexpr ">=" "0" ("," linexpr ">=" "0")*)?
                   "::" side "==" term
    side       ::= sumexpr | term
    sumexpr    ::= "sum" "(" NAME "," linexpr "," linexpr ")" "[" term "]"
    term       ::= (signfac "*")? binom ("*" binom)*
    signfac    ::= "(" "-" "1" ")" "^" "(" linexpr ")"
    binom      ::= "C" "(" linexpr "," linexpr ")"
    linexpr    ::= ("+"|"-")? linitem (("+"|"-") linitem)*
    linitem    ::= INT ("*" NAME)? | NAME
    specialize ::= "specializes" NAME "from" NAME "with"
                   "{" NAME "=" linexpr ("," NAME "=" linexpr)* "}"

Lexical rules: an INT is a run of the ASCII digits 0-9. A NAME starts with a
letter (`str.isalpha`) or `_` and goes on with letters, digits (`str.isalnum`)
or `_`. Spaces, tabs, CR and LF separate tokens, and `#` starts a comment that
runs to the end of the line. Any other character, `²` or `٣` among them, is an
unexpected character.

A catalog file is a sequence of identity and specialize declarations. The
parser is a pure function of its input. Tokens keep only their offsets; every
error carries a SourceSpan, whose lines and columns are computed from the text
when the error is raised.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, TypeVar

from .model import (
    BinomFactor,
    Identity,
    LinExpr,
    Side,
    SumExpr,
    Term,
    canonicalize,
)

RESERVED = {"identity", "params", "require", "sum", "specializes", "from", "with", "C"}

T = TypeVar("T")


@dataclass(frozen=True)
class SourcePos:
    line: int
    column: int
    offset: int


@dataclass(frozen=True)
class SourceSpan:
    start: SourcePos
    end: SourcePos

    def __str__(self) -> str:
        return f"{self.start.line}:{self.start.column}"

    @staticmethod
    def of(text: str, start: int, end: int) -> "SourceSpan":
        """The span of text[start:end]; lines and columns count from 1."""

        def pos(offset: int) -> SourcePos:
            return SourcePos(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset), offset)

        return SourceSpan(pos(start), pos(end))


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span}: {message}{detail}")
        self.message = message
        self.span = span
        self.expected = expected


class Token(NamedTuple):
    kind: str  # NAME, INT, SYM, EOF
    text: str
    start: int
    end: int


# One match per whitespace run, comment or token; only tokens match a named group.
# INT is ASCII only: str.isdigit also accepts digits int() cannot read, such as '²'.
# \w is str.isalnum or '_', so tokenize checks that a NAME starts with a letter or '_'.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|(?P<INT>[0-9]+)|(?P<NAME>\w+)"
                    r"|(?P<SYM>::|==|>=|[-()\[\]{},*+^=])|(?P<BAD>.)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word, start = m.group(), m.start()
        if kind == "BAD" or (kind == "NAME" and not (word[0].isalpha() or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", SourceSpan.of(text, start, start + 1))
        tokens.append(Token(kind, word, start, m.end()))
    tokens.append(Token("EOF", "", len(text), len(text)))
    return tokens


@dataclass(frozen=True)
class SpecializeDecl:
    """An unresolved `specializes` line (names resolved by the catalog)."""

    name: str
    parent: str
    mapping: tuple[tuple[str, LinExpr], ...]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    @classmethod
    def parse_whole(cls, text: str, parse: Callable[..., T], what: str) -> T:
        """`parse` (a parser method) applied to all of `text`; a token left over is an error."""
        p = cls(text)
        result = parse(p)
        if p.peek().kind != "EOF":
            raise p.error(f"trailing input after {what}")
        return result

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def span(self, tok: Token) -> SourceSpan:
        return SourceSpan.of(self.text, tok.start, tok.end)

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ParseError(f"{message}, found {what}", self.span(tok), expected)

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYM" or tok.text != sym:
            raise self.error("syntax error", (repr(sym),))
        return self.next()

    def expect_name(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind != "NAME":
            raise self.error(f"expected {what}", ("identifier",))
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or tok.text != word:
            raise self.error("syntax error", (repr(word),))
        return self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == sym

    def at_name(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word

    def comma_list(self, item: Callable[[], T]) -> list[T]:
        """item ("," item)*"""
        items = [item()]
        while self.at_sym(","):
            self.next()
            items.append(item())
        return items

    # -- linexpr ------------------------------------------------------------

    def parse_linexpr(self, declared: Optional[set[str]] = None) -> LinExpr:
        const = 0
        coeffs: dict[str, int] = {}
        sign = -1 if self.at_sym("-") else 1
        if sign < 0 or self.at_sym("+"):
            self.next()
        while True:
            value, name = self._linitem(declared)
            if name is None:
                const += sign * value
            else:
                coeffs[name] = coeffs.get(name, 0) + sign * value
            if not (self.at_sym("+") or self.at_sym("-")):
                return LinExpr.make(const, coeffs)
            sign = 1 if self.next().text == "+" else -1

    def _linitem(self, declared: Optional[set[str]]) -> tuple[int, Optional[str]]:
        """(coefficient, variable name or None for a constant)"""
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            if self.at_sym("*"):
                self.next()
                return int(tok.text), self._var_name(declared)
            return int(tok.text), None
        if tok.kind == "NAME":
            return 1, self._var_name(declared)
        raise self.error("expected integer or variable", ("INT", "identifier"))

    def _var_name(self, declared: Optional[set[str]]) -> str:
        tok = self.expect_name("variable")
        if declared is not None and tok.text not in declared:
            raise ParseError(f"unknown variable '{tok.text}'", self.span(tok))
        return tok.text

    # -- terms and identities -------------------------------------------------

    def parse_binom(self, declared: Optional[set[str]]) -> BinomFactor:
        self.expect_keyword("C")
        self.expect_sym("(")
        upper = self.parse_linexpr(declared)
        self.expect_sym(",")
        lower = self.parse_linexpr(declared)
        self.expect_sym(")")
        return BinomFactor(upper, lower)

    def parse_term(self, declared: Optional[set[str]] = None) -> Term:
        sign = None
        if self.at_sym("("):
            # only a sign factor can start a term with "("
            self.expect_sym("(")
            self.expect_sym("-")
            one = self.peek()
            if one.kind != "INT" or one.text != "1":
                raise self.error("sign factor must be (-1)", ("'1'",))
            self.next()
            self.expect_sym(")")
            self.expect_sym("^")
            self.expect_sym("(")
            sign = self.parse_linexpr(declared)
            self.expect_sym(")")
            self.expect_sym("*")
        factors = [self.parse_binom(declared)]
        while self.at_sym("*"):
            self.next()
            factors.append(self.parse_binom(declared))
        return Term(sign, tuple(factors))

    def parse_side(self, declared: set[str]) -> Side:
        if self.at_name("sum"):
            self.next()
            self.expect_sym("(")
            bound = self.expect_name("bound variable")
            if bound.text in declared or bound.text in RESERVED:
                raise ParseError(f"bound variable '{bound.text}' shadows a parameter", self.span(bound))
            self.expect_sym(",")
            lower = self.parse_linexpr(declared)
            self.expect_sym(",")
            upper = self.parse_linexpr(declared)
            self.expect_sym(")")
            self.expect_sym("[")
            body = self.parse_term(declared | {bound.text})
            self.expect_sym("]")
            return SumExpr(bound.text, lower, upper, body)
        return self.parse_term(declared)

    def _constraint(self) -> tuple[LinExpr, Token]:
        """One `linexpr >= 0` clause, with its first token for errors."""
        at = self.peek()
        expr = self.parse_linexpr()
        self.expect_sym(">=")
        zero = self.peek()
        if zero.kind != "INT" or zero.text != "0":
            raise self.error("constraints are of the form expr >= 0", ("'0'",))
        self.next()
        return expr, at

    def parse_identity_decl(self) -> Identity:
        self.expect_keyword("identity")
        name = self.expect_name("identity name")
        self.expect_keyword("params")
        self.expect_sym("(")
        seen: set[str] = set()

        def param() -> str:
            p = self.expect_name("parameter")
            if p.text in RESERVED:
                raise ParseError(f"'{p.text}' is reserved and cannot be a parameter", self.span(p))
            if p.text in seen:
                raise ParseError(f"duplicate parameter '{p.text}'", self.span(p))
            seen.add(p.text)
            return p.text

        params = self.comma_list(param)
        self.expect_sym(")")
        constraints: list[tuple[LinExpr, Token]] = []
        if self.at_name("require"):
            self.next()
            constraints = self.comma_list(self._constraint)
        self.expect_sym("::")
        lhs = self.parse_side(seen)
        self.expect_sym("==")
        rhs = self.parse_term(seen)
        bound = lhs.bound_var if isinstance(lhs, SumExpr) else None
        allowed = seen | ({bound} if bound else set())
        for expr, at in constraints:
            for v in expr.variables():
                if v not in allowed:
                    raise ParseError(f"unknown variable '{v}' in constraint", self.span(at))
        return Identity(name.text, tuple(params), lhs, rhs, tuple(c for c, _ in constraints))

    def parse_specialize_decl(self) -> SpecializeDecl:
        self.expect_keyword("specializes")
        name = self.expect_name("identity name")
        self.expect_keyword("from")
        parent = self.expect_name("identity name")
        self.expect_keyword("with")
        self.expect_sym("{")
        seen: set[str] = set()

        def assignment() -> tuple[str, LinExpr]:
            p = self.expect_name("parameter")
            if p.text in seen:
                raise ParseError(f"duplicate parameter '{p.text}' in substitution", self.span(p))
            seen.add(p.text)
            self.expect_sym("=")
            return p.text, self.parse_linexpr()

        mapping = self.comma_list(assignment)
        self.expect_sym("}")
        return SpecializeDecl(name.text, parent.text, tuple(mapping))


def parse_identity(text: str) -> Identity:
    """Parse a single identity declaration; the whole input must be consumed."""
    return _Parser.parse_whole(text, _Parser.parse_identity_decl, "identity")


def parse_linexpr(text: str) -> LinExpr:
    return _Parser.parse_whole(text, _Parser.parse_linexpr, "expression")


def parse_term(text: str) -> Term:
    return _Parser.parse_whole(text, _Parser.parse_term, "term")


def parse_catalog(text: str) -> tuple[list[Identity], list[SpecializeDecl]]:
    """Parse a catalog: identities plus specialization declarations.

    The first error aborts the parse (no partial results); duplicate identity
    names are rejected.
    """
    p = _Parser(text)
    identities: list[Identity] = []
    names: set[str] = set()
    specials: list[SpecializeDecl] = []
    while p.peek().kind != "EOF":
        if p.at_name("identity"):
            at = p.peek()
            ident = p.parse_identity_decl()
            if ident.name in names:
                raise ParseError(f"duplicate identity name '{ident.name}'", p.span(at))
            names.add(ident.name)
            identities.append(ident)
        elif p.at_name("specializes"):
            specials.append(p.parse_specialize_decl())
        else:
            raise p.error("expected a declaration", ("'identity'", "'specializes'"))
    return identities, specials


# ---------------------------------------------------------------------------
# Printing (canonical, deterministic)


def print_term(t: Term) -> str:
    parts = [f"C({f.upper},{f.lower})" for f in t.factors]
    if not parts:
        parts = ["C(0,0)"]
    body = "*".join(parts)
    if t.sign_exponent is not None:
        return f"(-1)^({t.sign_exponent})*{body}"
    return body


def print_side(side: Side) -> str:
    if isinstance(side, SumExpr):
        return f"sum({side.bound_var},{side.lower},{side.upper})[{print_term(side.body)}]"
    return print_term(side)


def print_identity(ident: Identity) -> str:
    """Canonical text; parse(print(I)) is structurally equal to canonicalize(I)."""
    ident = canonicalize(ident)
    header = f"identity {ident.name} params({','.join(ident.params)})"
    if ident.constraints:
        header += " require " + ",".join(f"{c}>=0" for c in ident.constraints)
    return f"{header} :: {print_side(ident.lhs)} == {print_term(ident.rhs)}"
