"""Recursive-descent parser for quantity and polynomial expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' signed-integer)?
    atom   := number | symbol | '(' expr ')'

Juxtaposition of a number and a symbol term denotes multiplication and
binds tighter than '*': "36.7 cm^3/s" is (36.7 x cm^3) / s.  Numbers are
decimal literals read as exact rationals.  Whitespace between tokens is
skipped; a token's position is the offset of its own first character.
Polynomial mode additionally allows a leading unary minus, which
coefficient tables need: "-x" is (-1)·x.  An exponent's magnitude is at
most MAX_EXPONENT, a number has at most MAX_LITERAL_DIGITS digits, and
parentheses nest at most MAX_NESTING deep.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ExprSyntaxError, UnknownSymbolError

# Exact powers grow without bound (2^99999999 has about 3·10^7 digits), so a
# larger literal exponent is an input error rather than a computation.
MAX_EXPONENT = 1000
# Python refuses to read an integer of more than 4300 digits from a string.
MAX_LITERAL_DIGITS = 4300
# The parser recurses once per parenthesis level; this keeps it far from
# Python's recursion limit.
MAX_NESTING = 100

# A unit or generator name; registries refuse symbols that do not match it.
SYMBOL = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

# One token after any whitespace; "end" matches only at the end of the input,
# and "bad" takes the first character no other kind accepts.
_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)"
    rf"|(?P<symbol>{SYMBOL.pattern})"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))"
)


# Tokens and tree nodes are made with tuple.__new__, which skips each
# NamedTuple's generated Python __new__: an expression makes about one
# record per token.
_new = tuple.__new__


class Token(NamedTuple):
    kind: str  # "number" | "symbol" | "op" | "end"
    text: str
    pos: int


def tokenize(src: str):
    """The tokens of src, ending with an "end" token; one match per token.
    _TOKEN matches at every offset, so successive matches abut and the
    scan stops at the "end" match."""
    out, new = [], _new
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {src[start]!r}", start)
        out.append(new(Token, (kind, m[kind], start)))
        if kind == "end":
            return out


# -- syntax tree -------------------------------------------------------------


class Num(NamedTuple):
    value: Fraction


class Sym(NamedTuple):
    name: str
    pos: int


class BinOp(NamedTuple):
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


class Pow(NamedTuple):
    base: object
    exponent: int


class Parser:
    def __init__(self, src: str, known_symbol=None, allow_unary_minus: bool = False):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0
        self.known_symbol = known_symbol
        self.allow_unary_minus = allow_unary_minus

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> Token:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def parse(self):
        tree = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"trailing input {t.text!r}", t.pos)
        return tree

    def expr(self):
        if (
            self.allow_unary_minus
            and self.peek().kind == "op"
            and self.peek().text == "-"
        ):
            self.next()
            node = _new(BinOp, ("*", _new(Num, (Fraction(-1),)), self.term()))
        else:
            node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = _new(BinOp, (op, node, self.term()))
        return node

    def term(self):
        node = self.juxta_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = _new(BinOp, (op, node, self.juxta_factor()))
        return node

    def juxta_factor(self):
        """A factor absorbing juxtaposed symbol factors: `2 m s^-1`."""
        node = self.factor()
        while self.peek().kind == "symbol":
            node = _new(BinOp, ("*", node, self.factor()))
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = _new(Pow, (node, self.signed_integer()))
        return node

    def signed_integer(self) -> int:
        sign = 1
        t = self.peek()
        if t.kind == "op" and t.text in "+-":
            self.next()
            sign = -1 if t.text == "-" else 1
        t = self.next()
        if t.kind != "number" or "." in t.text:
            raise ExprSyntaxError("malformed exponent: expected an integer", t.pos)
        # compare digit counts first: int() refuses strings of 4300+ digits
        digits = t.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent is beyond the limit {MAX_EXPONENT}", t.pos)
        return sign * int(digits)

    def atom(self):
        t = self.next()
        if t.kind == "number":
            if len(t.text) - ("." in t.text) > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(
                    f"number has more than {MAX_LITERAL_DIGITS} digits", t.pos)
            whole, _, frac = t.text.partition(".")
            return _new(Num, (Fraction(int(whole + frac), 10 ** len(frac)),))
        if t.kind == "symbol":
            if self.known_symbol is not None and not self.known_symbol(t.text):
                raise UnknownSymbolError(t.text, t.pos)
            return _new(Sym, (t.text, t.pos))
        if t.kind == "op" and t.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", t.pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ExprSyntaxError(f"expected a value, found {t.text or 'end of input'!r}", t.pos)


def parse_quantity_expr(src: str, known_symbol=None):
    """Parse a quantity expression to its syntax tree."""
    return Parser(src, known_symbol=known_symbol).parse()


def parse_poly_expr(src: str, known_symbol=None):
    """Parse a polynomial expression (unary minus allowed) to its tree."""
    return Parser(src, known_symbol=known_symbol, allow_unary_minus=True).parse()


def eval_tree(tree, leaf_number, leaf_symbol, add, sub, mul, div, power):
    """Fold a syntax tree with caller-supplied semantics.

    Operands are evaluated left to right, on an explicit stack rather
    than by recursion, so a sum of any length folds.  Nodes are told apart
    by their exact type.  An operator node pushes its operation (the
    operator's function, or a power's integer exponent) beneath its
    operands; when the operation is popped, its operands' values are the
    top of the value stack, and it replaces them with its result."""
    ops = {"+": add, "-": sub, "*": mul, "/": div}
    values = []
    todo = [tree]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is BinOp:
            todo += (ops[node.op], node.right, node.left)
        elif kind is Num:
            values.append(leaf_number(node.value))
        elif kind is Sym:
            values.append(leaf_symbol(node.name, node.pos))
        elif kind is Pow:
            todo += (node.exponent, node.base)
        elif kind is int:
            values.append(power(values.pop(), node))
        else:  # a binary operation
            right = values.pop()
            values.append(node(values.pop(), right))
    return values.pop()
