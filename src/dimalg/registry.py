"""Unit registries and exact quantity evaluation.

A registry declares ordered base dimensions (fixing the exponent group
Z^k and one line per base dimension) and unit symbols with exact
rational factors to the coherent base unit.  Evaluating an expression
converts every leaf to the coherent power-ring representation; addition
is the power ring's partial addition, so incompatible dimensions fail
with both exponent vectors pretty-printed in base-dimension names.
"""

import re
import reprlib
from fractions import Fraction
from typing import NamedTuple

from .core import DimElement, Line, PowerRing
from .errors import (
    MAX_VALUE_BITS, DimensionMismatch, InputFormatError, load_json, require_bits, typed_field)
from .exprparse import MAX_LITERAL_DIGITS, SYMBOL, eval_tree, parse_quantity_expr
from .numfmt import format_rational, fraction_str


class UnitDef(NamedTuple):
    symbol: str
    dims: tuple
    factor: Fraction


def _parse_factor(text) -> Fraction:
    """`p/q` or a decimal, exactly; no exponent notation, which would make
    "1e9999999" a ten-million-digit integer."""
    try:
        s = str(text)
        if isinstance(text, str) and "e" in s.lower():
            raise ValueError("exponent notation is not accepted")
        if any(len(re.findall(r"\d", n)) > MAX_LITERAL_DIGITS for n in s.split("/")):
            raise ValueError(f"a number has more than {MAX_LITERAL_DIGITS} digits")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad rational factor {reprlib.repr(text)}: {exc}") from exc


class UnitRegistry:
    """Ordered base dimensions, unit symbols and the power ring of the lines.

    Built once per registry, at load: each symbol's element and its factor
    as an integer pair, and the leaf and operation functions `eval_expr`
    folds every tree with.  Those functions look up the ring's methods at
    each call rather than keeping bound methods from load, so a wrapper set
    on `PowerRing` after the registry was loaded (a per-layer tracer, a
    test's counter) still sees every call."""

    def __init__(self, base, units):
        self.base = tuple(base)
        if not self.base:
            raise InputFormatError("registry needs at least one base dimension")
        if len(set(self.base)) != len(self.base):
            raise InputFormatError("duplicate base dimension names")
        self.units: dict = {}
        for u in units:
            if not SYMBOL.fullmatch(u.symbol):
                raise InputFormatError(
                    f"unit symbol {reprlib.repr(u.symbol)} is not a name expressions "
                    f"can use ({SYMBOL.pattern})"
                )
            if u.symbol in self.units:
                raise InputFormatError(f"duplicate unit symbol {u.symbol!r}")
            if len(u.dims) != len(self.base):
                raise InputFormatError(
                    f"unit {u.symbol!r} has {len(u.dims)} exponents, expected {len(self.base)}"
                )
            if u.factor == 0:
                raise InputFormatError(f"unit {u.symbol!r} has zero factor")
            self.units[u.symbol] = u
        for i, name in enumerate(self.base):
            e_i = tuple(int(j == i) for j in range(len(self.base)))
            coherent = [
                u for u in self.units.values() if u.dims == e_i and u.factor == 1
            ]
            if len(coherent) != 1:
                raise InputFormatError(
                    f"base dimension {name!r} needs exactly one coherent unit "
                    f"(factor 1), found {len(coherent)}"
                )
        self.ring = PowerRing(tuple(Line(n) for n in self.base))
        # each symbol's element and (numerator, denominator), built once:
        # expressions read the element at every leaf, displays the factor
        self._elements = {s: self.ring.element(u.factor, u.dims) for s, u in self.units.items()}
        self._factors = {
            s: (u.factor.numerator, u.factor.denominator) for s, u in self.units.items()}
        self._folds = _folds(self)

    @property
    def rank(self) -> int:
        return len(self.base)

    def element_of(self, symbol: str) -> DimElement:
        return self._elements[symbol]

    def dim_name(self, dims) -> str:
        """Pretty-print an exponent vector in base-dimension names."""
        parts = [
            f"{name}^{e}" if e != 1 else name
            for name, e in zip(self.base, dims)
            if e
        ]
        return "·".join(parts) if parts else "dimensionless"


def registry_load(source) -> UnitRegistry:
    """Build a registry from a JSON document (a path or a dict)."""
    doc = load_json(source)
    if not isinstance(doc, dict) or "base" not in doc or "units" not in doc:
        raise InputFormatError('registry needs "base" and "units" fields')
    base = typed_field(doc["base"], [str], "base")
    units = []
    for entry in typed_field(doc["units"], [dict], "units"):
        try:
            symbol = typed_field(entry["symbol"], str, "unit symbol")
            units.append(
                UnitDef(
                    symbol=symbol,
                    dims=typed_field(entry["dims"], [int], f"dims of unit {symbol!r}"),
                    factor=_parse_factor(entry["factor"]),
                )
            )
        except KeyError as exc:
            raise InputFormatError(f"unit entry missing field {exc}") from exc
    return UnitRegistry(base, units)


# ---------------------------------------------------------------------------
# Quantities
# ---------------------------------------------------------------------------


class Quantity(NamedTuple):
    """An exact power-ring element plus the unit expression it displays in."""

    element: DimElement
    unit: tuple  # ordered ((symbol, exponent), ...) with nonzero exponents


def _unit_mul(a: tuple, b: tuple, sign: int = 1) -> tuple:
    if not a and sign == 1:  # a number times a unit
        return b
    acc = dict(a)
    order = [s for s, _ in a]
    for s, e in b:
        if s not in acc:
            order.append(s)
            acc[s] = 0
        acc[s] += sign * e
    return tuple((s, acc[s]) for s in order if acc[s] != 0)


def _unit_pow(a: tuple, n: int) -> tuple:
    return tuple((s, e * n) for s, e in a if e * n != 0)


def unit_factor_dims(reg: UnitRegistry, unit: tuple) -> tuple:
    """A unit expression's exact factor and exponent vector, in one walk
    that raises and multiplies integers."""
    num, den, dims = 1, 1, (0,) * reg.rank
    factors, units = reg._factors, reg.units
    for s, e in unit:
        p, q = factors[s]
        if e < 0:
            p, q = q, p
        num, den = num * p ** abs(e), den * q ** abs(e)
        dims = tuple([x + e * y for x, y in zip(dims, units[s].dims)])
    return Fraction(num, den), dims


def render_unit(unit: tuple) -> str:
    pos = [f"{s}^{e}" if e != 1 else s for s, e in unit if e > 0]
    out = "*".join(pos)
    for s, e in unit:
        if e < 0:
            out += f"/{s}" if e == -1 else f"/{s}^{-e}"
    return out


def parse_expr(src: str, reg: UnitRegistry):
    """Parse a quantity expression against a registry's symbols."""
    return parse_quantity_expr(src, known_symbol=lambda s: s in reg.units)


def _folds(reg: UnitRegistry) -> tuple:
    """The leaf and operation functions `eval_tree` folds a tree with, for
    one registry.  Each operation checks errors.MAX_VALUE_BITS on the
    element it made; records are made with `tuple.__new__`, which skips
    `Quantity`'s generated `__new__`."""
    ring, elements, new = reg.ring, reg._elements, tuple.__new__

    def num(v):
        return new(Quantity, (ring.scalar(v), ()))

    def sym(name, pos):
        return new(Quantity, (elements[name], ((name, 1),)))

    def mismatch(exc, verb):
        return DimensionMismatch(reg.dim_name(exc.left), reg.dim_name(exc.right), f"cannot {verb}")

    def add(a, b):
        try:
            e = ring.add(a.element, b.element)
        except DimensionMismatch as exc:
            raise mismatch(exc, "add") from None
        v = e.value
        if v.numerator.bit_length() > MAX_VALUE_BITS or v.denominator.bit_length() > MAX_VALUE_BITS:
            require_bits(v)  # raises, with the bound's message
        return new(Quantity, (e, a.unit))

    def sub(a, b):
        try:
            e = ring.sub(a.element, b.element)
        except DimensionMismatch as exc:
            raise mismatch(exc, "subtract") from None
        v = e.value
        if v.numerator.bit_length() > MAX_VALUE_BITS or v.denominator.bit_length() > MAX_VALUE_BITS:
            require_bits(v)
        return new(Quantity, (e, a.unit))

    def mul(a, b):
        e = ring.mul(a.element, b.element)
        v = e.value
        if v.numerator.bit_length() > MAX_VALUE_BITS or v.denominator.bit_length() > MAX_VALUE_BITS:
            require_bits(v)
        return new(Quantity, (e, _unit_mul(a.unit, b.unit)))

    def div(a, b):
        e = ring.mul(a.element, ring.reciprocal(b.element))
        v = e.value
        if v.numerator.bit_length() > MAX_VALUE_BITS or v.denominator.bit_length() > MAX_VALUE_BITS:
            require_bits(v)
        return new(Quantity, (e, _unit_mul(a.unit, b.unit, sign=-1)))

    def power(a, n):
        require_bits(a.element.value, n)
        e = ring.pow(a.element, n)
        v = e.value
        if v.numerator.bit_length() > MAX_VALUE_BITS or v.denominator.bit_length() > MAX_VALUE_BITS:
            require_bits(v)
        return new(Quantity, (e, _unit_pow(a.unit, n)))

    return num, sym, add, sub, mul, div, power


def eval_expr(tree, reg: UnitRegistry) -> Quantity:
    """Evaluate a parsed tree to an exact Quantity.

    Every leaf becomes a coherent power-ring element; additions use the
    ring's partial addition (the display unit of a sum is the left
    operand's); multiplication and division are total.  A result beyond
    errors.MAX_VALUE_BITS is an InputFormatError, and a power that must exceed
    it is refused before it is computed.  Operands are evaluated left to
    right, so the leftmost failing operation raises.

    The fold functions are built once per registry, at load (`_folds`),
    not on every call.  They look up `ring.add`, `mul`, `pow` and the rest
    at each call instead of keeping bound methods from load, so a wrapper
    set on `PowerRing` after the registry was loaded still sees the call.
    """
    return eval_tree(tree, *reg._folds)


def evaluate(src: str, reg: UnitRegistry) -> Quantity:
    return eval_expr(parse_expr(src, reg), reg)


def convert(q: Quantity, target: str, reg: UnitRegistry) -> Quantity:
    """Re-express a quantity in a compatible unit expression, exactly; a
    target whose value in its own unit is not 1 (`2 cm`, `0 m`) is refused."""
    tree = parse_expr(target, reg)
    unit_q = eval_expr(tree, reg)
    if unit_q.element.dim != q.element.dim:
        raise DimensionMismatch(
            reg.dim_name(q.element.dim),
            reg.dim_name(unit_q.element.dim),
            "cannot convert",
        )
    if display_value(unit_q, reg) != 1:
        raise InputFormatError(
            f"conversion target {reprlib.repr(target)} is not a unit: its number is not 1"
        )
    return tuple.__new__(Quantity, (q.element, unit_q.unit))


def display_value(q: Quantity, reg: UnitRegistry) -> Fraction:
    """The exact numeric part of the quantity in its display unit."""
    f, dims = unit_factor_dims(reg, q.unit)
    if dims != q.element.dim:
        raise DimensionMismatch(
            reg.dim_name(q.element.dim), reg.dim_name(dims), "display unit drifted")
    return q.element.value / f


def format_quantity(q: Quantity, reg: UnitRegistry, digits: int = 4, exact: bool = False) -> str:
    """Decimal rendering (round-half-even, `digits` significant digits) or
    the exact rational with --exact; unit suffix in registry symbols."""
    v = display_value(q, reg)
    if not exact:
        body = format_rational(v, digits)
    else:
        body = fraction_str(v)
    suffix = render_unit(q.unit)
    return f"{body} {suffix}".strip()
