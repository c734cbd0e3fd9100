"""Exception types shared across the package, and the JSON field check
that raises InputFormatError."""


class DimAlgError(Exception):
    """Base class for every error raised by dimalg."""


class DimensionMismatch(DimAlgError):
    """A slice-wise operation was applied to elements of distinct dimensions.

    Addition (and anything built on it) is only defined within a single
    dimension slice; the two offending dimensions are kept for reporting.
    """

    def __init__(self, left, right, context: str = ""):
        self.left = left
        self.right = right
        msg = f"undefined across dimensions {left!r} and {right!r}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


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
        super().__init__(f"unknown symbol {symbol!r}", pos)


class InputFormatError(DimAlgError):
    """A registry/structure/poisson document is malformed (distinct from axiom failures)."""


_SINGULAR = {int: "an integer", str: "a string", dict: "an object"}
_PLURAL = {int: "integers", str: "strings", dict: "objects"}


def _has_type(x, kind) -> bool:
    return isinstance(x, kind) and not (kind is int and isinstance(x, bool))


def typed_field(value, shape, what: str):
    """Check one decoded JSON field against its expected shape.

    `shape` is a type (int, str or dict), a one-entry list `[t]` (an
    array of t, returned as a tuple) or `{str: t}` (an object with t
    values, returned as a dict).  Booleans are not integers.  A mismatch
    raises InputFormatError naming `what`.
    """
    if isinstance(shape, list):
        ok = isinstance(value, (list, tuple)) and all(_has_type(x, shape[0]) for x in value)
        expected, convert = f"an array of {_PLURAL[shape[0]]}", tuple
    elif isinstance(shape, dict):
        ok = isinstance(value, dict) and all(
            isinstance(k, str) and _has_type(x, shape[str]) for k, x in value.items()
        )
        expected, convert = f"an object of {_PLURAL[shape[str]]}", dict
    else:
        ok = _has_type(value, shape)
        expected, convert = _SINGULAR[shape], None
    if not ok:
        raise InputFormatError(f"{what} must be {expected}, got {value!r}")
    return convert(value) if convert else value
