"""Recursive-descent parser for quantity and polynomial expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' signed-integer)?
    atom   := number | symbol | '(' expr ')'

Juxtaposition of a number and a symbol term denotes multiplication and
binds tighter than '*': "36.7 cm^3/s" is (36.7 x cm^3) / s.  Numbers are
decimal literals read as exact rationals.  Polynomial mode additionally
allows a leading unary minus, which coefficient tables need: "-x" is
(-1)·x.  An exponent's magnitude is at most MAX_EXPONENT, a number has
at most MAX_LITERAL_DIGITS digits, and parentheses nest at most
MAX_NESTING deep.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

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

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    rf"|(?P<symbol>{SYMBOL.pattern})"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "symbol" | "op" | "end"
    text: str
    pos: int


def tokenize(src: str):
    out = []
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[i]!r}", i)
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(Token("end", "", len(src)))
    return out


# -- syntax tree -------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
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
            node = BinOp("*", Num(Fraction(-1)), self.term())
        else:
            node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.juxta_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = BinOp(op, node, self.juxta_factor())
        return node

    def juxta_factor(self):
        """A factor absorbing juxtaposed symbol factors: `2 m s^-1`."""
        node = self.factor()
        while self.peek().kind == "symbol":
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            node = Pow(node, self.signed_integer())
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
            return Num(Fraction(t.text))
        if t.kind == "symbol":
            if self.known_symbol is not None and not self.known_symbol(t.text):
                raise UnknownSymbolError(t.text, t.pos)
            return Sym(t.text, t.pos)
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
    than by recursion, so a sum of any length folds."""
    ops = {"+": add, "-": sub, "*": mul, "/": div}
    values = []
    todo = [(tree, False)]  # (node, operands already evaluated)
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Num):
            values.append(leaf_number(node.value))
        elif isinstance(node, Sym):
            values.append(leaf_symbol(node.name, node.pos))
        elif ready and isinstance(node, Pow):
            values.append(power(values.pop(), node.exponent))
        elif ready:
            right = values.pop()
            values.append(ops[node.op](values.pop(), right))
        else:
            todo.append((node, True))
            if isinstance(node, Pow):
                todo.append((node.base, False))
            else:
                todo += [(node.right, False), (node.left, False)]
    return values.pop()
