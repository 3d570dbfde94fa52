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
    linexpr    ::= ("-")? linitem (("+"|"-") linitem)*
    linitem    ::= INT ("*" NAME)? | NAME
    specialize ::= "specializes" NAME "from" NAME "with"
                   "{" NAME "=" linexpr ("," NAME "=" linexpr)* "}"

A catalog file is a sequence of identity and specialize declarations. The
parser is a pure function of its input; every error carries a SourceSpan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: tuple[str, ...] = ()):
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span}: {message}{detail}")
        self.message = message
        self.span = span
        self.expected = expected


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, INT, SYM, EOF
    text: str
    span: SourceSpan


_DIGITS = "0123456789"  # str.isdigit also accepts digits int() cannot read, such as '²'
_SYMBOLS = ("::", "==", ">=", "(", ")", "[", "]", "{", "}", ",", "*", "+", "-", "^", "=")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def pos() -> SourcePos:
        return SourcePos(line, col, i)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start = pos()
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            tokens.append(Token("INT", word, SourceSpan(start, pos())))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            tokens.append(Token("NAME", word, SourceSpan(start, pos())))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                i += len(sym)
                col += len(sym)
                tokens.append(Token("SYM", sym, SourceSpan(start, pos())))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", SourceSpan(start, SourcePos(line, col + 1, i + 1)))
    end = SourcePos(line, col, i)
    tokens.append(Token("EOF", "", SourceSpan(end, end)))
    return tokens


@dataclass(frozen=True)
class SpecializeDecl:
    """An unresolved `specializes` line (names resolved by the catalog)."""

    name: str
    parent: str
    mapping: tuple[tuple[str, LinExpr], ...]
    span: SourceSpan


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ParseError(f"{message}, found {what}", tok.span, expected)

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

    # -- linexpr ------------------------------------------------------------

    def parse_linexpr(self, declared: Optional[set[str]] = None) -> LinExpr:
        total = LinExpr()
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        elif self.at_sym("+"):
            self.next()
        total = total + self._linitem(declared).scaled(sign)
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.next().text == "+" else -1
            total = total + self._linitem(declared).scaled(sign)
        return total

    def _linitem(self, declared: Optional[set[str]]) -> LinExpr:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            value = int(tok.text)
            if self.at_sym("*"):
                self.next()
                name = self._var_name(declared)
                return LinExpr.var(name).scaled(value)
            return LinExpr(value)
        if tok.kind == "NAME":
            return LinExpr.var(self._var_name(declared))
        raise self.error("expected integer or variable", ("INT", "identifier"))

    def _var_name(self, declared: Optional[set[str]]) -> str:
        tok = self.expect_name("variable")
        if declared is not None and tok.text not in declared:
            raise ParseError(f"unknown variable '{tok.text}'", tok.span)
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

    def parse_term(self, declared: Optional[set[str]]) -> Term:
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
                raise ParseError(f"bound variable '{bound.text}' shadows a parameter", bound.span)
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

    def parse_identity_decl(self) -> Identity:
        self.expect_keyword("identity")
        name = self.expect_name("identity name")
        self.expect_keyword("params")
        self.expect_sym("(")
        params: list[str] = []
        seen: set[str] = set()
        while True:
            p = self.expect_name("parameter")
            if p.text in RESERVED:
                raise ParseError(f"'{p.text}' is reserved and cannot be a parameter", p.span)
            if p.text in seen:
                raise ParseError(f"duplicate parameter '{p.text}'", p.span)
            params.append(p.text)
            seen.add(p.text)
            if self.at_sym(","):
                self.next()
                continue
            break
        self.expect_sym(")")
        constraints: list[tuple[LinExpr, SourceSpan]] = []
        if self.at_name("require"):
            self.next()
            while True:
                at = self.peek().span
                expr = self.parse_linexpr(None)
                self.expect_sym(">=")
                zero = self.peek()
                if zero.kind != "INT" or zero.text != "0":
                    raise self.error("constraints are of the form expr >= 0", ("'0'",))
                self.next()
                constraints.append((expr, at))
                if self.at_sym(","):
                    self.next()
                    continue
                break
        self.expect_sym("::")
        lhs = self.parse_side(seen)
        self.expect_sym("==")
        rhs = self.parse_term(seen)
        bound = lhs.bound_var if isinstance(lhs, SumExpr) else None
        allowed = seen | ({bound} if bound else set())
        for expr, at in constraints:
            for v in expr.variables():
                if v not in allowed:
                    raise ParseError(f"unknown variable '{v}' in constraint", at)
        return Identity(name.text, tuple(params), lhs, rhs, tuple(c for c, _ in constraints))

    def parse_specialize_decl(self) -> SpecializeDecl:
        start = self.expect_keyword("specializes").span
        name = self.expect_name("identity name")
        self.expect_keyword("from")
        parent = self.expect_name("identity name")
        self.expect_keyword("with")
        self.expect_sym("{")
        mapping: list[tuple[str, LinExpr]] = []
        seen: set[str] = set()
        while True:
            p = self.expect_name("parameter")
            if p.text in seen:
                raise ParseError(f"duplicate parameter '{p.text}' in substitution", p.span)
            seen.add(p.text)
            self.expect_sym("=")
            mapping.append((p.text, self.parse_linexpr(None)))
            if self.at_sym(","):
                self.next()
                continue
            break
        end = self.expect_sym("}").span
        return SpecializeDecl(name.text, parent.text, tuple(mapping), SourceSpan(start.start, end.end))


def parse_identity(text: str) -> Identity:
    """Parse a single identity declaration; the whole input must be consumed."""
    p = _Parser(text)
    ident = p.parse_identity_decl()
    if p.peek().kind != "EOF":
        raise p.error("trailing input after identity")
    return ident


def parse_linexpr(text: str) -> LinExpr:
    p = _Parser(text)
    e = p.parse_linexpr(None)
    if p.peek().kind != "EOF":
        raise p.error("trailing input after expression")
    return e


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term(None)
    if p.peek().kind != "EOF":
        raise p.error("trailing input after term")
    return t


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
            at = p.peek().span
            ident = p.parse_identity_decl()
            if ident.name in names:
                raise ParseError(f"duplicate identity name '{ident.name}'", at)
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
