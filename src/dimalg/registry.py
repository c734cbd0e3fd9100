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
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, InputFormatError, load_json, require_bits, typed_field
from .exprparse import MAX_LITERAL_DIGITS, SYMBOL, eval_tree, parse_quantity_expr
from .group import DimElement
from .lines import Line, PowerRing
from .numfmt import format_rational, fraction_str


@dataclass(frozen=True)
class UnitDef:
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

    @property
    def rank(self) -> int:
        return len(self.base)

    def element_of(self, symbol: str) -> DimElement:
        u = self.units[symbol]
        return self.ring.element(u.factor, u.dims)

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


@dataclass(frozen=True)
class Quantity:
    """An exact power-ring element plus the unit expression it displays in."""

    element: DimElement
    unit: tuple  # ordered ((symbol, exponent), ...) with nonzero exponents


def _unit_mul(a: tuple, b: tuple, sign: int = 1) -> tuple:
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


def unit_factor(reg: UnitRegistry, unit: tuple) -> Fraction:
    out = Fraction(1)
    for s, e in unit:
        out *= reg.units[s].factor ** e
    return out


def unit_dims(reg: UnitRegistry, unit: tuple) -> tuple:
    out = (0,) * reg.rank
    for s, e in unit:
        out = tuple(x + e * y for x, y in zip(out, reg.units[s].dims))
    return out


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


def eval_expr(tree, reg: UnitRegistry) -> Quantity:
    """Evaluate a parsed tree to an exact Quantity.

    Every leaf becomes a coherent power-ring element; additions use the
    ring's partial addition (the display unit of a sum is the left
    operand's); multiplication and division are total.  A result beyond
    errors.MAX_VALUE_BITS is an InputFormatError, and a power that must exceed
    it is refused before it is computed.
    """
    ring = reg.ring

    def bounded(op):
        def run(a, b):
            q = op(a, b)
            require_bits(q.element.value)
            return q

        return run

    def num(v):
        return Quantity(ring.scalar(v), ())

    def sym(name, pos):
        return Quantity(reg.element_of(name), ((name, 1),))

    def additive(op, verb):
        def run(a, b):
            try:
                return Quantity(op(a.element, b.element), a.unit)
            except DimensionMismatch as exc:
                raise DimensionMismatch(
                    reg.dim_name(exc.left), reg.dim_name(exc.right), f"cannot {verb}"
                ) from None

        return run

    add, sub = additive(ring.add, "add"), additive(ring.sub, "subtract")

    def mul(a, b):
        return Quantity(ring.mul(a.element, b.element), _unit_mul(a.unit, b.unit))

    def div(a, b):
        return Quantity(
            ring.mul(a.element, ring.reciprocal(b.element)),
            _unit_mul(a.unit, b.unit, sign=-1),
        )

    def power(a, n):
        require_bits(a.element.value, n)
        return Quantity(ring.pow(a.element, n), _unit_pow(a.unit, n))

    return eval_tree(tree, num, sym, *map(bounded, (add, sub, mul, div, power)))


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
    return Quantity(q.element, unit_q.unit)


def display_value(q: Quantity, reg: UnitRegistry) -> Fraction:
    """The exact numeric part of the quantity in its display unit."""
    f = unit_factor(reg, q.unit)
    if unit_dims(reg, q.unit) != q.element.dim:
        raise DimensionMismatch(
            reg.dim_name(q.element.dim),
            reg.dim_name(unit_dims(reg, q.unit)),
            "display unit drifted",
        )
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
