"""AST and parser for the bounded-quantifier formula DSL.

Grammar (whitespace-insensitive between tokens)::

    formula := quant | impl
    quant   := ("forall" | "exists") IDENT "in" term ":" formula
    impl    := disj ("->" disj)*        # right-associative
    disj    := conj ("|" conj)*
    conj    := neg ("&" neg)*
    neg     := "!" neg | atom
    atom    := term ("=" | "in") term | "(" formula ")"
    term    := IDENT

All quantifiers are bounded by construction: a quantifier always ranges
over a term, so unbounded formulas cannot be written.  The AST also carries
an ``Iff`` connective for programmatic use; it has no concrete syntax.

Input nested deeper than :data:`MAX_DEPTH` levels (parentheses, quantifiers,
negations, implications, or a syntax tree of that height) is refused with a
:class:`ParseError`, so neither the parser nor the recursive evaluators can
exhaust the interpreter stack.

:func:`parse` remembers the syntax trees of the last :data:`PARSE_MEMO_SIZE`
distinct texts for the life of the process, so a repeated text is parsed
once; the trees are frozen, so one object per text can be shared.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Union


class ParseError(ValueError):
    """Syntax error, with the 0-based character position of the offender."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Var:
    """A term: either a bound variable or an environment constant."""

    name: str


@dataclass(frozen=True)
class Eq:
    left: Var
    right: Var


@dataclass(frozen=True)
class Mem:
    left: Var
    right: Var


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    bound: Var
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    bound: Var
    body: "Formula"


Formula = Union[Eq, Mem, Not, And, Or, Implies, Iff, Forall, Exists]

#: Deepest nesting, and tallest syntax tree, that :func:`parse` accepts.
MAX_DEPTH = 100
#: Most distinct texts whose syntax trees :func:`parse` keeps; the least
#: recently used is dropped first.
PARSE_MEMO_SIZE = 1024

_KEYWORDS = {"forall", "exists", "in"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>->)|(?P<sym>[|&!()=:]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "ident":
            word = m.group("ident")
            kind = word if word in _KEYWORDS else "IDENT"
            tokens.append((kind, word, m.start("ident")))
        elif m.lastgroup == "arrow":
            tokens.append(("->", "->", m.start("arrow")))
        else:
            sym = m.group("sym")
            tokens.append((sym, sym, m.start("sym")))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        if _height(f) > MAX_DEPTH:
            raise ParseError(f"formula is nested deeper than {MAX_DEPTH} levels", 0)
        return f

    def enter(self) -> None:
        """Open one more level of parser recursion, refusing too many."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula is nested deeper than {MAX_DEPTH} levels",
                             self.peek()[2])

    def formula(self) -> Formula:
        self.enter()
        if self.peek()[0] in ("forall", "exists"):
            f = self.quant()
        else:
            f = self.impl()
        self.depth -= 1
        return f

    def quant(self) -> Formula:
        kw = self.next()
        var = self.expect("IDENT")[1]
        self.expect("in")
        bound = self.term()
        self.expect(":")
        body = self.formula()
        cls = Forall if kw[0] == "forall" else Exists
        return cls(var, bound, body)

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.next()
            self.enter()
            # right-associative: a -> b -> c parses as a -> (b -> c)
            f = Implies(left, self.impl())
            self.depth -= 1
            return f
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek()[0] == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.neg()
        while self.peek()[0] == "&":
            self.next()
            f = And(f, self.neg())
        return f

    def neg(self) -> Formula:
        if self.peek()[0] == "!":
            self.next()
            self.enter()
            f = Not(self.neg())
            self.depth -= 1
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        left = self.term()
        rel = self.next()
        if rel[0] == "=":
            return Eq(left, self.term())
        if rel[0] == "in":
            return Mem(left, self.term())
        raise ParseError(f"expected '=' or 'in', found {rel[1] or 'end of input'!r}", rel[2])

    def term(self) -> Var:
        tok = self.next()
        if tok[0] != "IDENT":
            raise ParseError(f"expected identifier, found {tok[1] or 'end of input'!r}", tok[2])
        return Var(tok[1])


def parse(text: str) -> Formula:
    """Parse a formula; raises :class:`ParseError` with position on failure.

    Results are memoized by text (``_parse.cache_info()`` counts hits and
    misses); errors are not, so a bad text raises afresh on every call.
    """
    return _parse(text)


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(text: str) -> Formula:
    return _Parser(text).parse()


def _height(f: Formula) -> int:
    """Height of the syntax tree (an atom has height 1)."""
    return _deepest(f, (Eq, Mem, Not, And, Or, Implies, Iff, Forall, Exists))


def quantifier_depth(f: Formula) -> int:
    """Most quantifiers nested on one path of the syntax tree."""
    return _deepest(f, (Forall, Exists))


def _deepest(f: Formula, counted: tuple[type, ...]) -> int:
    """Most nodes of the counted types on one root-to-leaf path, without recursion."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        node, h = stack.pop()
        h += isinstance(node, counted)
        deepest = max(deepest, h)
        if isinstance(node, (Not, Forall, Exists)):
            stack.append((node.body, h))
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.extend(((node.left, h), (node.right, h)))
    return deepest


def free_names(f: Formula) -> frozenset[str]:
    """Names that must be supplied by the evaluation environment."""
    if isinstance(f, (Eq, Mem)):
        return frozenset({f.left.name, f.right.name})
    if isinstance(f, Not):
        return free_names(f.body)
    if isinstance(f, (And, Or, Implies, Iff)):
        return free_names(f.left) | free_names(f.right)
    if isinstance(f, (Forall, Exists)):
        return frozenset({f.bound.name}) | (free_names(f.body) - {f.var})
    raise TypeError(f"not a formula node: {f!r}")


def unparse(f: Formula) -> str:
    """Render a formula back to (parenthesized) DSL syntax."""
    if isinstance(f, Eq):
        return f"{f.left.name} = {f.right.name}"
    if isinstance(f, Mem):
        return f"{f.left.name} in {f.right.name}"
    if isinstance(f, Not):
        return f"!({unparse(f.body)})"
    if isinstance(f, And):
        return f"({unparse(f.left)}) & ({unparse(f.right)})"
    if isinstance(f, Or):
        return f"({unparse(f.left)}) | ({unparse(f.right)})"
    if isinstance(f, Implies):
        return f"({unparse(f.left)}) -> ({unparse(f.right)})"
    if isinstance(f, Iff):
        # no concrete syntax; rendered via its definition
        return f"(({unparse(f.left)}) -> ({unparse(f.right)})) & (({unparse(f.right)}) -> ({unparse(f.left)}))"
    if isinstance(f, Forall):
        return f"forall {f.var} in {f.bound.name} : {unparse(f.body)}"
    if isinstance(f, Exists):
        return f"exists {f.var} in {f.bound.name} : {unparse(f.body)}"
    raise TypeError(f"not a formula node: {f!r}")
