"""One-shot command line front end, on the standard library alone.

Exit codes: 0 success, 1 axiom or dimension failure, 2 input error.
Each command imports the layers it runs: start-up loads only the
calculator (`registry`, `core` and what they build on), no law suite.
`check` adds `structure`, `ring`, `poly` and `report`, and `poisson ...`
adds `poisson` and `linalg` to those. No command loads `algebra`, the
group or carrier layers, or `dataclasses` (`core` says why).
"""

import sys
from contextlib import contextmanager

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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


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


def _print_quantity(expression, registry, digits, exact, to=None, target=None):
    """`eval` and `convert`: evaluate `expression`, convert it to the unit
    `to` (eval) or `target` (convert) unless that is None, and print it."""
    if not 1 <= digits <= MAX_DIGITS:
        _fail(EXIT_INPUT, f"digits must be between 1 and {MAX_DIGITS}")
    reg = _load_registry(registry)
    with _exit_on((ExprSyntaxError, EXIT_INPUT), (InputFormatError, EXIT_INPUT),
                  (ZeroDivisionError, EXIT_INPUT), (DimensionMismatch, EXIT_FAILURE)):
        q = evaluate(expression, reg)
        target = to if target is None else target
        if target is not None:
            q = convert_quantity(q, target, reg)
    print(format_quantity(q, reg, digits=digits, exact=exact))


def registry_validate(path):
    reg = _load_registry(path)
    print(f"ok: {len(reg.base)} base dimensions ({', '.join(reg.base)}), "
          f"{len(reg.units)} units")


def check_cmd(path):
    from .structure import check_structure

    with _exit_on((InputFormatError, EXIT_INPUT)):
        code, lines = check_structure(path)
    for line in lines:
        print(line)
    sys.exit(code)


def _load_poisson(path, validate):
    from .structure import load_poisson

    with _exit_on((InputFormatError, EXIT_INPUT), (DimAlgError, EXIT_FAILURE)):
        return load_poisson(path, validate=validate)


def poisson_check(path):
    """The axiom suite, then the coisotrope check when an ideal is declared
    and the axioms hold (as `reduce` validates the algebra before reducing)."""
    from .poisson import coisotrope_check, poisson_axiom_report

    p, ideal = _load_poisson(path, validate=False)
    rep = poisson_axiom_report(p)
    if ideal and rep.ok:
        rep = rep.merged(coisotrope_check(p, ideal))
    for line in rep.lines():
        print(line)
    sys.exit(0 if rep.ok else EXIT_FAILURE)


def poisson_bracket_cmd(path, left, right):
    from .structure import parse_poly

    p, _ = _load_poisson(path, validate=True)
    with _exit_on((DimAlgError, EXIT_INPUT)):
        f = parse_poly(p.ring, left)
        g = parse_poly(p.ring, right)
    with _exit_on((DimensionMismatch, EXIT_FAILURE)):
        out = p.bracket(f, g)
    print(p.ring.show(out))


def poisson_reduce_cmd(path, cutoff):
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
    print(f"reduced basis up to degree {cutoff} ({len(reduced.basis)} classes):")
    for b in reduced.basis:
        print(f"  {p.ring.show(b)} @ {b.dim}")
    rep = reduced.axiom_report()
    for line in rep.lines():
        print(line)
    sys.exit(0 if rep.ok else EXIT_FAILURE)


# Every command and every group (no handler): its handler, help, positionals
# and options. An option is (flag, metavar, default, help): no metavar makes
# it a flag, an int default makes it read an integer. A handler takes each
# positional in lower case and each option by its flag's name.
_REGISTRY = ("--registry", "PATH", None, "registry JSON")
_DIGITS = ("--digits", "INTEGER", 4, "significant digits")
_EXACT = ("--exact", None, False, "print the exact rational")
_HELP = ("--help", None, False, "Show this message and exit.")
_GROUP = ["COMMAND", "[ARGS]..."]
COMMANDS = {
    "": (None, "Exact dimensioned-quantity calculator and structure checker.", _GROUP, []),
    "eval": (_print_quantity, "Evaluate a quantity expression.", ["EXPRESSION"],
             [_REGISTRY, _DIGITS, _EXACT, ("--to", "TEXT", None, "convert the result to this unit")]),
    "convert": (_print_quantity, "Evaluate an expression and re-express it in TARGET units.",
                ["EXPRESSION", "TARGET"], [_REGISTRY, _DIGITS, _EXACT]),
    "registry": (None, "Registry utilities.", _GROUP, []),
    "registry validate": (registry_validate, "Validate a registry file and summarize it.", ["PATH"], []),
    "check": (check_cmd, "Run the axiom suite on a declared finite structure.", ["PATH"], []),
    "poisson": (None, "Dimensioned Poisson algebra commands (JSON descriptions).", _GROUP, []),
    "poisson check": (poisson_check, "Run the axiom suite, then the coisotrope check if an ideal is declared.",
                      ["PATH"], []),
    "poisson bracket": (poisson_bracket_cmd, "Print the bracket of two polynomial expressions.",
                        ["PATH", "LEFT", "RIGHT"], []),
    "poisson reduce": (poisson_reduce_cmd, "Reduce by the declared coisotrope and list the surviving basis.",
                       ["PATH"], [("--cutoff", "INTEGER", 6, "degree cutoff")]),
}


def _children(group):
    """The commands and groups in `group`, by their last word."""
    return {c.rpartition(" ")[2]: c for c in sorted(COMMANDS) if c and c.rpartition(" ")[0] == group}


def _no_such(kind, name, choices):
    from difflib import get_close_matches

    close = get_close_matches(name, choices, n=1)
    _fail(EXIT_INPUT, f"No such {kind} '{name}'." + (f" Did you mean '{close[0]}'?" if close else ""))


def _parse(args, options, interspersed):
    """The words and the {flag: value} of one command line, in the order
    given. A word after '--', or after the first word unless options
    and words intersperse, is never an option."""
    specs = {o[0]: o for o in options + [_HELP]}
    words, values = [], {}
    while args and (interspersed or not words):
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            words.append(arg)
            continue
        flag, eq, value = arg.partition("=") if arg[:2] == "--" else (arg[:2], "", "")
        if flag not in specs:
            _no_such("option", flag, list(specs))
        takes_value = specs[flag][1] is not None
        if eq and not takes_value:
            _fail(EXIT_INPUT, f"Option '{flag}' does not take a value.")
        if takes_value and not eq and not args:
            _fail(EXIT_INPUT, f"Option '{flag}' requires an argument.")
        values[flag] = (value if eq else args.pop(0)) if takes_value else True
    return words + args, values


def _help(prog, name, asked):
    """Print the help of command or group `name`: on stdout with exit 0
    when --help asked for it, else on stderr with exit 2."""
    _, text, positionals, options = COMMANDS[name]
    sections = {
        "Options": [(f"{f} {m}" if m else f, h + f"  [default: {d}]" * (type(d) is int))
                    for f, m, d, h in options + [_HELP]],
        "Commands": [(word, COMMANDS[sub][1]) for word, sub in _children(name).items()],
    }
    lines = [" ".join(filter(None, ["Usage:", prog, name, "[OPTIONS]", *positionals])), "", f"  {text}"]
    for title, rows in sections.items():
        if rows:
            width = max(len(left) for left, _ in rows)
            lines += ["", f"{title}:", *(f"  {left:<{width}}  {right}" for left, right in rows)]
    print("\n".join(lines), file=sys.stdout if asked else sys.stderr)
    sys.exit(0 if asked else EXIT_INPUT)


def main(args=None, prog_name=None):
    """Run the command that `args` (by default `sys.argv[1:]`) names; end,
    always, by raising SystemExit with its exit code."""
    args, name, prog = list(sys.argv[1:] if args is None else args), "", prog_name or "dimalg"
    while COMMANDS[name][0] is None:
        words, values = _parse(args, [], interspersed=False)
        if "--help" in values or not words:
            _help(prog, name, "--help" in values)
        if words[0] not in _children(name):
            _no_such("command", words[0], list(_children(name)))
        name, args = _children(name)[words[0]], words[1:]
    handler, _, positionals, options = COMMANDS[name]
    words, values = _parse(args, options, interspersed=True)
    if "--help" in values:
        _help(prog, name, True)
    kwargs = {flag[2:]: default for flag, _, default, _ in options}
    for flag, value in values.items():
        try:
            kwargs[flag[2:]] = int(value) if type(kwargs[flag[2:]]) is int else value
        except ValueError:
            _fail(EXIT_INPUT, f"Invalid value for '{flag}': {value!r} is not a valid integer.")
    extra = words[len(positionals):]
    if len(words) != len(positionals):
        _fail(EXIT_INPUT, f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})"
              if extra else f"Missing argument '{positionals[len(words)]}'.")
    try:
        handler(**kwargs, **{p.lower(): w for p, w in zip(positionals, words)})
    except BrokenPipeError:  # the reader stopped early: exit 1, no traceback
        sys.stdout = None
        sys.exit(EXIT_FAILURE)
    sys.exit(0)


if __name__ == "__main__":
    main()
