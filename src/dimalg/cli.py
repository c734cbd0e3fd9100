"""One-shot command line front end.

Exit codes: 0 success, 1 axiom or dimension failure, 2 input error.
Each command imports the layers it runs: start-up loads only the
calculator (`registry` and what it builds on).
"""

import sys
from contextlib import contextmanager

import click

from .errors import (
    DimAlgError,
    DimensionMismatch,
    ExprSyntaxError,
    InputFormatError,
    require_monomials,
)
from .numfmt import MAX_DIGITS
from .registry import (
    convert as convert_quantity,
    evaluate,
    format_quantity,
    registry_load,
)

EXIT_FAILURE = 1
EXIT_INPUT = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _check_digits(digits):
    if not 1 <= digits <= MAX_DIGITS:
        _fail(EXIT_INPUT, f"digits must be between 1 and {MAX_DIGITS}")


@contextmanager
def _exit_on(*policy):
    """Turn an error into one `error:` line and an exit code.  `policy`
    is (error type, exit code) pairs; the first type that matches wins."""
    try:
        yield
    except tuple(kind for kind, _ in policy) as exc:
        code = next(code for kind, code in policy if isinstance(exc, kind))
        _fail(code, "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc))


def _load_registry(path):
    if path is None:
        _fail(EXIT_INPUT, "a registry is required (--registry PATH)")
    with _exit_on((InputFormatError, EXIT_INPUT)):
        return registry_load(path)


# click >= 8.2 raises this to print the help of a group called bare
_SHOWS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextmanager
def _one_line_usage_errors():
    try:
        yield
    except click.UsageError as exc:
        if isinstance(exc, _SHOWS_HELP):
            raise
        _fail(EXIT_INPUT, exc.format_message())


class _Main(click.Group):
    """The root group. A usage error (an unknown option or command, a
    missing or malformed argument) is an input error like any other: one
    line on stderr, exit 2. An argument that starts with '-' follows
    '--'."""

    def parse_args(self, ctx, args):
        with _one_line_usage_errors():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _one_line_usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Exact dimensioned-quantity calculator and structure checker."""


def _print_quantity(expression, target, registry_path, digits, exact):
    """Evaluate `expression`, convert it to `target` unless that is None,
    and print it: the body of `eval` and `convert`."""
    _check_digits(digits)
    reg = _load_registry(registry_path)
    with _exit_on((ExprSyntaxError, EXIT_INPUT), (InputFormatError, EXIT_INPUT),
                  (ZeroDivisionError, EXIT_INPUT), (DimensionMismatch, EXIT_FAILURE)):
        q = evaluate(expression, reg)
        if target is not None:
            q = convert_quantity(q, target, reg)
    click.echo(format_quantity(q, reg, digits=digits, exact=exact))


@main.command("eval")
@click.argument("expression")
@click.option("--registry", "registry_path", type=click.Path(), help="registry JSON")
@click.option("--digits", default=4, show_default=True, help="significant digits")
@click.option("--exact", is_flag=True, help="print the exact rational")
@click.option("--to", "target", default=None, help="convert the result to this unit")
def eval_cmd(expression, registry_path, digits, exact, target):
    """Evaluate a quantity expression."""
    _print_quantity(expression, target, registry_path, digits, exact)


@main.command("convert")
@click.argument("expression")
@click.argument("target")
@click.option("--registry", "registry_path", type=click.Path(), help="registry JSON")
@click.option("--digits", default=4, show_default=True)
@click.option("--exact", is_flag=True)
def convert_cmd(expression, target, registry_path, digits, exact):
    """Evaluate an expression and re-express it in TARGET units."""
    _print_quantity(expression, target, registry_path, digits, exact)


@main.group("registry")
def registry_group():
    """Registry utilities."""


@registry_group.command("validate")
@click.argument("path", type=click.Path())
def registry_validate(path):
    """Validate a registry file and summarize it."""
    reg = _load_registry(path)
    click.echo(f"ok: {len(reg.base)} base dimensions ({', '.join(reg.base)}), "
               f"{len(reg.units)} units")


@main.command("check")
@click.argument("path", type=click.Path())
def check_cmd(path):
    """Run the axiom suite on a declared finite structure."""
    from .structure import check_structure

    with _exit_on((InputFormatError, EXIT_INPUT)):
        code, lines = check_structure(path)
    for line in lines:
        click.echo(line)
    sys.exit(code)


@main.group("poisson")
def poisson_group():
    """Dimensioned Poisson algebra commands (JSON descriptions)."""


def _load_poisson(path, validate):
    from .structure import load_poisson

    with _exit_on((InputFormatError, EXIT_INPUT), (DimAlgError, EXIT_FAILURE)):
        return load_poisson(path, validate=validate)


@poisson_group.command("check")
@click.argument("path", type=click.Path())
def poisson_check(path):
    """Axiom suite, then the coisotrope check when an ideal is declared and
    the axioms hold (as `reduce` validates the algebra before reducing)."""
    from .poisson import coisotrope_check, poisson_axiom_report

    p, ideal = _load_poisson(path, validate=False)
    rep = poisson_axiom_report(p)
    if ideal and rep.ok:
        rep = rep.merged(coisotrope_check(p, ideal))
    for line in rep.lines():
        click.echo(line)
    sys.exit(0 if rep.ok else EXIT_FAILURE)


@poisson_group.command("bracket")
@click.argument("path", type=click.Path())
@click.argument("left")
@click.argument("right")
def poisson_bracket_cmd(path, left, right):
    """Print the bracket of two polynomial expressions."""
    from .structure import parse_poly

    p, _ = _load_poisson(path, validate=True)
    with _exit_on((DimAlgError, EXIT_INPUT)):
        f = parse_poly(p.ring, left)
        g = parse_poly(p.ring, right)
    with _exit_on((DimensionMismatch, EXIT_FAILURE)):
        out = p.bracket(f, g)
    click.echo(p.ring.show(out))


@poisson_group.command("reduce")
@click.argument("path", type=click.Path())
@click.option("--cutoff", default=6, show_default=True, help="degree cutoff")
def poisson_reduce_cmd(path, cutoff):
    """Reduce by the declared coisotrope and list the surviving basis."""
    from .poisson import poisson_reduce

    if cutoff < 1:
        _fail(EXIT_INPUT, "cutoff must be >= 1")
    p, ideal = _load_poisson(path, validate=True)
    if not ideal:
        _fail(EXIT_INPUT, "the description declares no ideal to reduce by")
    with _exit_on((InputFormatError, EXIT_INPUT)):
        require_monomials(cutoff, p.ring.nvars)
    with _exit_on((DimAlgError, EXIT_FAILURE)):
        reduced = poisson_reduce(p, ideal, cutoff)
    click.echo(f"reduced basis up to degree {cutoff} "
               f"({len(reduced.basis)} classes):")
    for b in reduced.basis:
        click.echo(f"  {p.ring.show(b)} @ {b.dim}")
    rep = reduced.axiom_report()
    for line in rep.lines():
        click.echo(line)
    sys.exit(0 if rep.ok else EXIT_FAILURE)


if __name__ == "__main__":
    main()
