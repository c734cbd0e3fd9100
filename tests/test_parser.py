import re
import string
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from dimalg import ExprSyntaxError, UnknownSymbolError
from dimalg.exprparse import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    BinOp,
    Num,
    Pow,
    Sym,
    Token,
    parse_poly_expr,
    eval_tree,
    parse_quantity_expr,
    tokenize,
)


# The tokenizer that matched whitespace as a token of its own, one match per
# token and one per gap: the reference the one-pass tokenizer must agree with.
_REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<symbol>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def reference_tokenize(src: str):
    out = []
    i = 0
    while i < len(src):
        m = _REFERENCE_TOKEN.match(src, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[i]!r}", i)
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    out.append(Token("end", "", len(src)))
    return out


def tokens_or_refusal(tokenizer, src: str):
    try:
        return tokenizer(src)
    except ExprSyntaxError as exc:
        return str(exc), exc.pos


class TestTokenizer:
    @given(st.text(string.digits + string.ascii_letters + ".-+*/^() \t\n", max_size=40),
           st.none() | st.integers(0, 40))
    @example("  2.5 m ^-2\t", None)
    @example("1 m\n", 3)
    def test_one_pass_agrees_with_the_reference(self, text, stray):
        """The same tokens (kind, text, position) or the same refusal, with
        its offset, as the reference; `stray` puts a `$` at that offset."""
        if stray is not None:
            text = text[:stray] + "$" + text[stray:]
        assert tokens_or_refusal(tokenize, text) == tokens_or_refusal(reference_tokenize, text)

    @given(st.text(string.digits, min_size=1, max_size=30),
           st.none() | st.text(string.digits, min_size=1, max_size=30))
    @example("007", "50")
    @example("00", "10")
    def test_a_decimal_literal_reads_as_its_fraction(self, whole, frac):
        text = whole if frac is None else f"{whole}.{frac}"
        assert parse_quantity_expr(text) == Num(F(text))

    def test_positions_are_byte_offsets(self):
        toks = tokenize("2.5 + cm")
        assert [(t.kind, t.pos) for t in toks] == [
            ("number", 0), ("op", 4), ("symbol", 6), ("end", 8)
        ]

    def test_unexpected_character_reports_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            tokenize("2 $ 3")
        assert exc.value.pos == 2


class TestGrammar:
    def test_worked_example_shape(self):
        # "36.7 cm^3/s" parses as (36.7 x cm^3) / s
        tree = parse_quantity_expr("36.7 cm^3/s")
        assert isinstance(tree, BinOp) and tree.op == "/"
        assert isinstance(tree.right, Sym) and tree.right.name == "s"
        left = tree.left
        assert isinstance(left, BinOp) and left.op == "*"
        assert left.left == Num(F("36.7"))
        assert isinstance(left.right, Pow) and left.right.exponent == 3

    def test_sum_of_quantity_terms(self):
        tree = parse_quantity_expr("2.1 L/min + 2.2 L/min")
        assert isinstance(tree, BinOp) and tree.op == "+"
        assert isinstance(tree.left, BinOp) and tree.left.op == "/"

    def test_parenthesized_power(self):
        tree = parse_quantity_expr("(3 m)^2")
        assert isinstance(tree, Pow) and tree.exponent == 2

    def test_negative_exponent(self):
        tree = parse_quantity_expr("s^-2")
        assert isinstance(tree, Pow) and tree.exponent == -2

    def test_juxtaposition_binds_tighter_than_star(self):
        # 2 m * 3 s must group as (2·m) * (3·s)
        tree = parse_quantity_expr("2 m * 3 s")
        assert tree.op == "*"
        assert isinstance(tree.left, BinOp) and tree.left.left == Num(F(2))
        assert isinstance(tree.right, BinOp) and tree.right.left == Num(F(3))

    def test_decimal_literals_are_exact(self):
        tree = parse_quantity_expr("0.1")
        assert tree == Num(F(1, 10))

    def test_malformed_exponent(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_quantity_expr("m^x")
        assert "exponent" in str(exc.value)
        with pytest.raises(ExprSyntaxError):
            parse_quantity_expr("m^1.5")

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_quantity_expr("2 )")

    def test_unknown_symbol_with_resolver(self):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_quantity_expr("2 parsec", known_symbol=lambda s: s == "m")
        assert exc.value.symbol == "parsec"
        assert exc.value.pos == 2

    def test_missing_operand(self):
        with pytest.raises(ExprSyntaxError):
            parse_quantity_expr("2 +")

    def test_unary_minus_only_in_poly_mode(self):
        with pytest.raises(ExprSyntaxError):
            parse_quantity_expr("-2")
        assert parse_poly_expr("-2") == BinOp("*", Num(F(-1)), Num(F(2)))

    def test_leading_minus_negates_the_first_term(self):
        # "-x^2 + y" is ((-1)·x^2) + y: the minus binds to the first term only
        tree = parse_poly_expr("-x^2 + y")
        assert tree == BinOp("+", BinOp("*", Num(F(-1)), Pow(Sym("x", 1), 2)), Sym("y", 7))

    def test_leading_minus_on_a_dimensioned_polynomial(self):
        from dimalg import GradedPolyRing
        from dimalg.structure import parse_poly

        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        neg = parse_poly(ring, "-3 q^2 p")
        assert neg.dim == (1,)
        assert neg == ring.neg(parse_poly(ring, "3 q^2 p"))

    @pytest.mark.parametrize("parse", [parse_quantity_expr, parse_poly_expr])
    def test_exponent_magnitude_is_bounded(self, parse):
        assert parse(f"x^{MAX_EXPONENT}").exponent == MAX_EXPONENT
        assert parse(f"x^-{MAX_EXPONENT}").exponent == -MAX_EXPONENT
        assert parse("x^0001").exponent == 1
        for text in (f"x^{MAX_EXPONENT + 1}", f"x^-{MAX_EXPONENT + 1}", "2^99999999",
                     "x^" + "9" * 5000):
            with pytest.raises(ExprSyntaxError, match="beyond the limit"):
                parse(text)

    @pytest.mark.parametrize("parse", [parse_quantity_expr, parse_poly_expr])
    def test_literal_digits_are_bounded(self, parse):
        nines = "9" * MAX_LITERAL_DIGITS
        assert parse(nines).value == int(nines)
        assert parse(nines[1:] + ".5").value == F(int(nines[1:] + "5"), 10)
        for text in ("9" * (MAX_LITERAL_DIGITS + 1), nines + ".5", "9" * 5000):
            with pytest.raises(ExprSyntaxError,
                               match=rf"more than {MAX_LITERAL_DIGITS} digits \(at offset 4\)"):
                parse(f"2 * {text} x")

    @pytest.mark.parametrize("parse", [parse_quantity_expr, parse_poly_expr])
    def test_parenthesis_nesting_is_bounded(self, parse):
        assert parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == Sym("x", MAX_NESTING)
        # the depth counts open parentheses, not all that were ever opened
        assert parse("(x) + " * 1000 + "x").op == "+"
        deep = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ExprSyntaxError, match=rf"deeper than {MAX_NESTING} levels "
                                                  rf"\(at offset {MAX_NESTING}\)"):
            parse(deep)
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse("(" * 5000)


class TestEvalTree:
    @staticmethod
    def fold(src):
        """Evaluate over Fractions, spelling every step out."""
        trace = []

        def step(name, fn):
            def run(*args):
                trace.append((name, *args))
                return fn(*args)
            return run

        value = eval_tree(
            parse_quantity_expr(src),
            step("num", lambda v: v),
            step("sym", lambda name, pos: F(len(name))),
            step("+", lambda a, b: a + b),
            step("-", lambda a, b: a - b),
            step("*", lambda a, b: a * b),
            step("/", lambda a, b: a / b),
            step("^", lambda a, n: a**n),
        )
        return value, trace

    def test_operands_fold_left_to_right(self):
        value, trace = self.fold("(2 - xx)^3 / 4 + 5 y")
        assert value == 5
        assert trace == [
            ("num", 2), ("sym", "xx", 5), ("-", 2, 2), ("^", 0, 3), ("num", 4),
            ("/", 0, 4), ("num", 5), ("sym", "y", 19), ("*", 5, 1), ("+", F(0), 5),
        ]

    def test_a_long_sum_folds(self):
        value, trace = self.fold(" + ".join(["2"] * 5000) + " - 1")
        assert value == 9999 and len(trace) == 2 * 5001 - 1


class TestRoundTrip:
    @given(
        st.integers(1, 9999),
        st.integers(0, 99),
        st.sampled_from(["m", "cm", "L", "s", "min"]),
    )
    def test_format_parse_format_is_stable(self, whole, frac, symbol):
        from pathlib import Path

        from dimalg import evaluate, format_quantity, registry_load

        reg = registry_load(
            Path(__file__).parent.parent / "data" / "registries" / "si_demo.json"
        )
        text = f"{whole}.{frac:02d} {symbol}"
        q = evaluate(text, reg)
        once = format_quantity(q, reg)
        again = format_quantity(evaluate(once, reg), reg)
        assert once == again
