"""Closed-form scalar expressions over chart coordinates.

Sources are parsed into immutable ASTs over real literals, coordinate
variables ``x1 .. xn``, named constants, the arithmetic operators
``+ - * / ^`` (with unary minus), and the functions ``sqrt sin cos tan exp
log``.  Precedence is ``^`` > unary ``-`` > ``* /`` > ``+ -`` and ``^`` is
right-associative, so ``-x1^2`` is ``-(x1^2)`` and ``2^-x1`` parses.

The grammar is documented in docs/expression-grammar.ebnf.  Parsing is total:
any malformed source raises :class:`ParseError` carrying the byte offset of
the first offending character.  Trees are frozen dataclasses, so parsing the
pretty-printed form of a tree yields an equal tree and evaluation is safe to
share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

FUNCTIONS = ("sqrt", "sin", "cos", "tan", "exp", "log")
# an integer exponent k costs |k| - 1 products in a jet, so |k| is bounded
MAX_INTEGER_EXPONENT = 1000
# deepest tree, and deepest nesting of groups, calls and exponents, a source
# may parse to: every walk of a tree recurses once per level
MAX_DEPTH = 100
# a parse error quotes at most this many characters of a long token, and a
# fixture's error this many source characters on each side of its offset
QUOTE_CHARS = 100


class ExpressionError(ValueError):
    """Base class for parse- and evaluation-time failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.source = None  # the string parse() was given, which offset points into


def _quoted(text: str) -> str:
    """``repr(text)``, or for a token whose repr exceeds 2 * QUOTE_CHARS
    characters, the repr of its first QUOTE_CHARS characters and its length."""
    quoted = repr(text)
    if len(quoted) <= 2 * QUOTE_CHARS:
        return quoted
    return f"{text[:QUOTE_CHARS]!r} (the first {QUOTE_CHARS} of {len(text)} characters)"


class EvalDomainError(ExpressionError):
    """Evaluation left the expression's domain (division by zero, log <= 0, ...)."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Const:
    name: str
    value: float


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Add:
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Sub:
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Mul:
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Div:
    lhs: "Expression"
    rhs: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Num | Var | Const | Neg | Add | Sub | Mul | Div | Pow | Call


# --- Lexer ----------------------------------------------------------------

_OPERATORS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, m = 0, len(source)
    while i < m:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < m and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < m and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < m and source[j] in "eE":
                k = j + 1
                if k < m and source[k] in "+-":
                    k += 1
                if k < m and source[k].isdigit():
                    j = k
                    while j < m and source[j].isdigit():
                        j += 1
            tokens.append(_Token("num", source[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < m and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", m))
    return tokens


# --- Parser ---------------------------------------------------------------


class _Parser:
    """Recursive descent that tracks each subtree's depth (a leaf is 1) and the
    nesting of groups, calls and exponents it recurses into, so a source
    deeper than MAX_DEPTH fails at the token that goes too deep, before the
    parser, or any later walk of the tree, runs out of stack."""

    def __init__(self, tokens: list[_Token], variables: Sequence[str],
                 constants: Mapping[str, float]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.constants = dict(constants)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            if text == ")":
                raise ParseError("unbalanced parentheses: expected ')'", tok.offset)
            raise ParseError(f"expected {text!r}", tok.offset)
        return self.advance()

    @staticmethod
    def deeper(depth: int, tok: _Token) -> int:
        """depth + 1, or a ParseError at tok beyond MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests more than {MAX_DEPTH} levels deep", tok.offset)
        return depth + 1

    def nested(self, tok: _Token, rule) -> tuple[Expression, int]:
        """``rule()`` for the group, call or exponent opened at tok."""
        self.nesting = self.deeper(self.nesting, tok)
        result = rule()
        self.nesting -= 1
        return result

    def parse(self) -> Expression:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            if tok.kind == "op" and tok.text == ")":
                raise ParseError("unbalanced parentheses: unmatched ')'", tok.offset)
            raise ParseError(f"unexpected trailing input {_quoted(tok.text)}", tok.offset)
        return node

    def expr(self) -> tuple[Expression, int]:
        node, depth = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs, rhs_depth = self.term()
            node = Add(node, rhs) if op.text == "+" else Sub(node, rhs)
            depth = self.deeper(max(depth, rhs_depth), op)
        return node, depth

    def term(self) -> tuple[Expression, int]:
        node, depth = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs, rhs_depth = self.unary()
            node = Mul(node, rhs) if op.text == "*" else Div(node, rhs)
            depth = self.deeper(max(depth, rhs_depth), op)
        return node, depth

    def unary(self) -> tuple[Expression, int]:
        signs = []
        while self.peek().kind == "op" and self.peek().text == "-":
            signs.append(self.advance())
        node, depth = self.power()
        for tok in reversed(signs):
            node, depth = Neg(node), self.deeper(depth, tok)
        return node, depth

    def power(self) -> tuple[Expression, int]:
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            offset = self.peek().offset
            # exponent at unary level: right-associative, allows 2^-3
            exponent, exp_depth = self.nested(tok, self.unary)
            k = _literal_value(exponent)
            if k is not None and k.is_integer() and abs(k) > MAX_INTEGER_EXPONENT:
                raise ParseError(f"integer exponent {k!r} exceeds {MAX_INTEGER_EXPONENT} "
                                 "in absolute value", offset)
            return Pow(base, exponent), self.deeper(max(depth, exp_depth), tok)
        return base, depth

    def atom(self) -> tuple[Expression, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "ident":
            name = tok.text
            if name in FUNCTIONS:
                arg, depth = self.nested(self.expect_op("("), self.expr)
                nxt = self.peek()
                if nxt.kind == "op" and nxt.text == ",":
                    raise ParseError(f"{name} takes exactly one argument", nxt.offset)
                self.expect_op(")")
                return Call(name, arg), self.deeper(depth, tok)
            if name in self.variables:
                return Var(name, self.variables[name]), 1
            if name in self.constants:
                return Const(name, float(self.constants[name])), 1
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                raise ParseError(f"unknown function {_quoted(name)}", tok.offset)
            raise ParseError(f"unknown identifier {_quoted(name)}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            result = self.nested(tok, self.expr)
            self.expect_op(")")
            return result
        if tok.kind == "op" and tok.text == ",":
            raise ParseError("unexpected ','", tok.offset)
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.offset)
        raise ParseError(f"unexpected {_quoted(tok.text)}", tok.offset)


def _literal_value(node: Expression) -> float | None:
    """The value of a literal or named constant, negated or not, else None."""
    if isinstance(node, Neg):
        inner = _literal_value(node.arg)
        return None if inner is None else -inner
    return node.value if isinstance(node, (Num, Const)) else None


def parse(source: str, n: int | None = None, *,
          variables: Sequence[str] | None = None,
          constants: Mapping[str, float] | None = None) -> Expression:
    """Parse a source string into an Expression.

    Coordinate names default to ``x1 .. xn``.  Named constants must be bound
    here; an unbound identifier is a parse error, not a runtime NaN.
    """
    if not isinstance(source, str):
        raise ParseError(f"expected an expression string, got {source!r}", 0)
    if not source.strip():
        raise ParseError("empty expression", 0)
    if variables is None:
        if n is None:
            raise ValueError("parse() needs either n or an explicit variable list")
        variables = tuple(f"x{i + 1}" for i in range(n))
    try:
        return _Parser(_tokenize(source), variables, constants or {}).parse()
    except ParseError as exc:
        exc.source = source
        raise


# --- Pretty printer --------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expression) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_UNARY
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt_number(v: float) -> str:
    return repr(v)


def to_source(node: Expression) -> str:
    """Render a tree to source that re-parses to an equal tree."""

    def wrap(child: Expression, minimum: int) -> str:
        text = to_source(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        return "-" + wrap(node.arg, _PREC_UNARY)
    if isinstance(node, Add):
        return f"{wrap(node.lhs, _PREC_ADD)} + {wrap(node.rhs, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{wrap(node.lhs, _PREC_ADD)} - {wrap(node.rhs, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{wrap(node.lhs, _PREC_MUL)}*{wrap(node.rhs, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{wrap(node.lhs, _PREC_MUL)}/{wrap(node.rhs, _PREC_MUL + 1)}"
    if isinstance(node, Pow):
        # base needs parens unless it is a pure atom (^ binds above unary -)
        return f"{wrap(node.base, _PREC_ATOM)}^{wrap(node.exponent, _PREC_UNARY)}"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")


def is_constant(node: Expression) -> bool:
    """True when the tree contains no coordinate variable."""
    if isinstance(node, (Num, Const)):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, Neg):
        return is_constant(node.arg)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return is_constant(node.lhs) and is_constant(node.rhs)
    if isinstance(node, Pow):
        return is_constant(node.base) and is_constant(node.exponent)
    if isinstance(node, Call):
        return is_constant(node.arg)
    raise TypeError(f"not an expression node: {node!r}")
