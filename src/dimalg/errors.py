"""Exception types shared across the package, and the JSON reader, field
check, value bound, term bound and reduction bound that raise
InputFormatError."""

import json
import math
import reprlib


class DimAlgError(Exception):
    """Base class for every error raised by dimalg."""


class DimensionMismatch(DimAlgError):
    """A slice-wise operation was applied to elements of distinct dimensions.

    Addition (and anything built on it) is only defined within a single
    dimension slice; the two offending dimensions are kept for reporting,
    and `args` is (left, right, context).  The message is formatted when it
    is read: the ring suite's law of addition across slices raises one per
    case and reads none.
    """

    def __init__(self, left, right, context: str = ""):
        super().__init__(left, right, context)
        self.left = left
        self.right = right
        self.context = context

    def __str__(self):
        msg = f"undefined across dimensions {self.left!r} and {self.right!r}"
        return f"{self.context}: {msg}" if self.context else msg


class DimensionMapMismatch(DimAlgError):
    """Pointwise addition of maps whose dimension maps differ."""


class CarrierError(DimAlgError):
    """A value does not belong to a slice carrier, or the carrier kind is unsupported."""


class ConstructionError(DimAlgError):
    """A structure failed its construction-time validation (with a witness)."""


class ExprSyntaxError(DimAlgError):
    """Lexing or parsing failure in a quantity/polynomial expression."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")


class UnknownSymbolError(ExprSyntaxError):
    """An expression referenced a symbol the resolver does not know."""

    def __init__(self, symbol: str, pos: int):
        self.symbol = symbol
        super().__init__(f"unknown symbol {reprlib.repr(symbol)}", pos)


class InputFormatError(DimAlgError):
    """A registry/structure/poisson document is malformed (distinct from axiom failures)."""


# The most bits a value's numerator or denominator may have.  Any value
# within it renders in well under a second; nested powers such as
# (2^1000)^1000 would otherwise evaluate at once and never finish printing.
MAX_VALUE_BITS = 2**18


def require_bits(x, power: int = 1) -> None:
    """Refuse the rational x, or x**power before it is computed, when the
    result must have more than MAX_VALUE_BITS bits: x**n has at least
    |n|·(bits(x) − 1) + 1 of them."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if abs(power) * (bits - 1) + 1 > MAX_VALUE_BITS:
        raise InputFormatError(f"a value has more than {MAX_VALUE_BITS} bits")


# The most terms a polynomial product or power may have, counted before
# it is computed: len(a)·len(b) for a product, C(t+n−1, n) for the n-th
# power of a sum of t terms.
MAX_POLY_TERMS = 1000


def require_terms(count: int) -> None:
    """Refuse a polynomial product or power that may have `count` terms
    when that is more than MAX_POLY_TERMS."""
    if count > MAX_POLY_TERMS:
        raise InputFormatError(f"a polynomial may have more than {MAX_POLY_TERMS} terms")


# The most monomials a reduction may span: C(cutoff + n, n) of degree at
# most the cutoff in n generators.  At this bound `poisson reduce` on four
# generators (cutoff 19) takes about 0.2 s on a 2-vCPU machine, and cutoff
# 40 (135 751 monomials) about 0.15 s of CPU to reduce in the library.
MAX_REDUCE_MONOMIALS = 10_000


def require_monomials(cutoff: int, nvars: int) -> None:
    """Refuse a reduction up to degree `cutoff` in `nvars` generators when
    it spans more than MAX_REDUCE_MONOMIALS monomials."""
    count = math.comb(cutoff + nvars, nvars)
    if count > MAX_REDUCE_MONOMIALS:
        raise InputFormatError(
            f"cutoff {cutoff} spans {count} monomials in {nvars} generators, "
            f"more than {MAX_REDUCE_MONOMIALS}"
        )


_NAMES = {
    int: ("an integer", "integers"), str: ("a string", "strings"),
    bool: ("a boolean", "booleans"), dict: ("an object", "objects"), list: ("an array", "arrays"),
}


def _describe(shape, plural: bool = False) -> str:
    if isinstance(shape, (list, dict)):
        inner = shape[0] if isinstance(shape, list) else shape[str]
        return f"{_NAMES[type(shape)][plural]} of {_describe(inner, True)}"
    return _NAMES[shape][plural]


def _fit(x, shape):
    """`x` with its arrays as tuples; ValueError when it has another shape.
    A container whose entries all have exactly its leaf type is copied in
    one pass; any other goes entry by entry."""
    if isinstance(shape, list) and isinstance(x, (list, tuple)):
        t = shape[0]
        if isinstance(t, type) and all(type(v) is t for v in x):
            return tuple(x)
        return tuple(_fit(v, t) for v in x)
    if isinstance(shape, dict) and isinstance(x, dict):
        t = shape[str]
        if isinstance(t, type) and all(type(k) is str and type(v) is t for k, v in x.items()):
            return dict(x)
        if all(isinstance(k, str) for k in x):
            return {k: _fit(v, t) for k, v in x.items()}
    if isinstance(shape, type) and isinstance(x, shape) and not (
        shape is int and isinstance(x, bool)
    ):
        return x
    raise ValueError(shape)


def load_json(source):
    """The decoded JSON document at path `source`; a dict passes through.
    An unreadable file or invalid JSON raises InputFormatError."""
    if isinstance(source, dict):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer beyond Python's digit limit
        raise InputFormatError(f"not valid JSON: {exc}") from exc


def typed_field(value, shape, what: str):
    """Check one decoded JSON field against its expected shape.

    `shape` is a type (int, str, bool or dict), a one-entry list `[s]`
    (an array of shape s, returned as a tuple) or `{str: s}` (an object
    with values of shape s, returned as a dict); shapes nest.  Booleans
    are not integers.  A mismatch raises InputFormatError naming `what`.
    """
    try:
        return _fit(value, shape)
    except ValueError:
        got = reprlib.repr(value)
        raise InputFormatError(f"{what} must be {_describe(shape)}, got {got}") from None
