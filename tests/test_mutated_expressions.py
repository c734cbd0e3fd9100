"""Every mutated expression ends in exit 0, 1 or 2, never a traceback.

Each case takes the arguments of one `eval`, `convert` or `poisson
bracket` command on the shipped documents, applies one to three
mutations to its expression arguments (delete a span, insert a token,
replace a character, repeat a span), and runs the CLI on it in process.
An input error (exit 2) is at most one line on stderr.
"""

from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from dimalg.cli import main

REPO = Path(__file__).parent.parent / "data"
REGISTRY = str(REPO / "registries" / "si_demo.json")
QP = str(REPO / "poisson" / "canonical_qp.json")
FOUR = str(REPO / "poisson" / "canonical_4gen.json")

# A command with "{}" marking the arguments that are mutated, each with its seed.
COMMANDS = {
    "eval": [
        (["eval", "{}", "--registry", REGISTRY], ["300 cm^3 / (2.2 L/min + 2.1 L/min)"]),
        (["eval", "{}", "--to", "{}", "--registry", REGISTRY], ["(3 m/s)^2 * 4 min", "cm^2/s"]),
        (["eval", "{}", "--exact", "--registry", REGISTRY], ["1 m + 1 s"]),
    ],
    "convert": [
        (["convert", "{}", "{}", "--registry", REGISTRY], ["300 cm^3", "L"]),
        (["convert", "{}", "{}", "--registry", REGISTRY], ["2^-3 L/min", "cm^3/s"]),
    ],
    "bracket": [
        (["poisson", "bracket", QP, "{}", "{}"], ["q^2*p + 3 q/2", "p^3*q^2 - 2 p"]),
        (["poisson", "bracket", FOUR, "{}", "{}"], ["(q1 + q2)^3", "2.5 p1*q2 - p2*q1"]),
    ],
}
TOKENS = ["(", ")", "^", "-", "+", "*", "/", " ", ".", "0", "1", "2.5", "999", "^-3",
          "^1000", "m", "s", "L", "min", "q", "p", "q1", "x", "--", "é", "\n", "9" * 40]


@st.composite
def mutated_text(draw, text):
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 4)))
        kind = draw(st.sampled_from(["delete", "insert", "replace", "repeat"]))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = text[:i] + draw(st.sampled_from(TOKENS)) + text[i:]
        elif kind == "replace":
            text = text[:i] + draw(st.sampled_from(TOKENS))[:1] + text[i + 1:]
        else:
            text = text[:j] + text[i:j] * draw(st.integers(1, 50)) + text[j:]
    return text


@st.composite
def mutated_command(draw, kind):
    template, seeds = draw(st.sampled_from(COMMANDS[kind]))
    texts = iter([draw(mutated_text(s)) for s in seeds])
    return [next(texts) if a == "{}" else a for a in template]


def _fuzz(kind):
    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_command(kind))
    def test(args):
        r = CliRunner().invoke(main, args)
        assert r.exit_code in (0, 1, 2), (args, r.output)
        assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exc_info)
        if r.exit_code == 2:
            assert len(r.stderr.splitlines()) <= 1, (args, r.stderr)

    return test


test_mutated_eval_exits_cleanly = _fuzz("eval")
test_mutated_convert_exits_cleanly = _fuzz("convert")
test_mutated_bracket_exits_cleanly = _fuzz("bracket")
