import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from click.testing import CliRunner

from dimalg.cli import main
from dimalg.errors import (
    MAX_POLY_TERMS,
    MAX_REDUCE_MONOMIALS,
    MAX_VALUE_BITS,
    InputFormatError,
    require_monomials,
)

DATA = Path(__file__).parent / "data"
REPO = Path(__file__).parent.parent / "data"
REGISTRY = str(REPO / "registries" / "si_demo.json")


@pytest.fixture
def runner():
    return CliRunner()


class TestEval:
    def test_combined_flow(self, runner):
        r = runner.invoke(main, ["eval", "2.2 L/min + 2.1 L/min", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.output.strip() == "4.300 L/min"

    def test_eval_with_conversion(self, runner):
        r = runner.invoke(main, [
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "s",
        ])
        assert r.exit_code == 0
        assert r.output.strip() == "4.186 s"

    def test_exact_flag(self, runner):
        r = runner.invoke(main, [
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "min", "--exact",
        ])
        assert r.output.strip() == "3/43 min"

    def test_digits_flag(self, runner):
        r = runner.invoke(main, [
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "min", "--digits", "2",
        ])
        assert r.output.strip() == "0.070 min"

    def test_dimension_mismatch_exits_1(self, runner):
        r = runner.invoke(main, ["eval", "1 m + 1 s", "--registry", REGISTRY])
        assert r.exit_code == 1
        assert "length" in r.output and "time" in r.output

    def test_syntax_error_exits_2(self, runner):
        r = runner.invoke(main, ["eval", "1 +", "--registry", REGISTRY])
        assert r.exit_code == 2

    def test_huge_exponent_exits_2_at_once(self, runner):
        start = time.perf_counter()
        r = runner.invoke(main, ["eval", "2^99999999 m", "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2
        lines = r.stderr.splitlines()
        assert lines == ["error: exponent is beyond the limit 1000 (at offset 2)"]

    def test_huge_literal_exits_2(self, runner):
        r = runner.invoke(main, ["eval", "9" * 5000 + " m", "--registry", REGISTRY])
        assert r.exit_code == 2
        assert r.stderr.splitlines() == ["error: number has more than 4300 digits (at offset 0)"]

    def test_results_beyond_the_str_digit_limit(self, runner):
        big = str(Decimal(99999**1000))  # 5000 digits; Decimal has no str() limit
        for expr, flag, expect in [
            ("99999^1000 m", "--exact", big + " m"),
            ("1 m / 99999^1000", "--exact", f"1/{big} m"),
            ("99999^1000 m", "--digits=5000", big + " m"),
        ]:
            r = runner.invoke(main, ["eval", expr, flag, "--registry", REGISTRY])
            assert r.exit_code == 0 and "Traceback" not in r.output
            assert r.output.strip() == expect

    def test_unknown_unit_exits_2(self, runner):
        r = runner.invoke(main, ["eval", "1 parsec", "--registry", REGISTRY])
        assert r.exit_code == 2
        assert "parsec" in r.output

    def test_missing_registry_exits_2(self, runner):
        r = runner.invoke(main, ["eval", "1 m"])
        assert r.exit_code == 2

    def test_nonpositive_digits_exit_2(self, runner):
        r = runner.invoke(main, ["eval", "1 m", "--registry", REGISTRY, "--digits", "0"])
        assert r.exit_code == 2


class TestBoundedInputs:
    @pytest.mark.parametrize("args, message", [
        (["eval", "-3 m", "--registry", REGISTRY], "No such option '-3'."),
        (["convert", "1 m", "--registry", REGISTRY], "Missing argument 'TARGET'."),
        (["evl", "1 m"], "No such command 'evl'. Did you mean 'eval'?"),
        (["--bogus", "eval"], "No such option '--bogus'."),
    ], ids=["leading-minus", "missing-argument", "unknown-command", "unknown-root-option"])
    def test_usage_errors_exit_2_with_one_line(self, runner, args, message):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("args", [
        ["eval", "1 m / 0"],
        ["eval", "1 m / (2 s - 2 s)"],
        ["eval", "0^-1 m"],
        ["eval", "1 m", "--to", "m / 0"],
        ["convert", "1 m / 0", "m"],
        ["convert", "1 m", "m / (1 - 1)"],
    ])
    def test_division_by_zero_exits_2_with_one_line(self, runner, args):
        r = runner.invoke(main, args + ["--registry", REGISTRY])
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == ["error: division by zero"]

    @pytest.mark.parametrize("expr", ["(2^1000)^1000 m", "*".join(["2^1000"] * 300) + " m"],
                             ids=["nested-power", "300-factor-product"])
    def test_values_beyond_the_bit_bound_exit_2_at_once(self, runner, expr):
        start = time.perf_counter()
        r = runner.invoke(main, ["eval", expr, "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a value has more than {MAX_VALUE_BITS} bits"]

    def test_a_nested_power_within_the_bound_renders_at_once(self, runner):
        with localcontext() as ctx:
            ctx.prec = 4  # rounding half-even, as the default rendering
            expect = f"{+Decimal(2**100000):f} m"
        start = time.perf_counter()
        r = runner.invoke(main, ["eval", "(2^1000)^100 m", "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 0, r.output
        assert r.output.strip() == expect

    def test_a_sum_of_1000_terms(self, runner):
        r = runner.invoke(main, ["eval", " + ".join(["1 m"] * 1000), "--registry", REGISTRY])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == "1000 m"

    def test_1000_nested_parentheses_exit_2_with_one_line(self, runner):
        deep = "(" * 1000 + "1 m" + ")" * 1000
        for args in (["eval", deep], ["convert", "1 m", deep]):
            r = runner.invoke(main, args + ["--registry", REGISTRY])
            assert r.exit_code == 2, r.output
            assert r.stderr.splitlines() == [
                "error: parentheses nest deeper than 100 levels (at offset 100)"]

    @pytest.mark.parametrize("command", [["eval", "1 m"], ["convert", "1 m", "m"]])
    def test_digits_are_bounded(self, runner, command):
        start = time.perf_counter()
        for digits in ("100001", "10000000"):
            r = runner.invoke(main, command + ["--digits", digits, "--registry", REGISTRY])
            assert r.exit_code == 2, r.output
            assert r.stderr.splitlines() == ["error: digits must be between 1 and 100000"]
        assert time.perf_counter() - start < 1.0
        r = runner.invoke(main, command + ["--digits", "100000", "--registry", REGISTRY])
        assert r.exit_code == 0 and r.output.strip() == "1." + "0" * 99999 + " m"

    def test_a_poisson_coefficient_beyond_the_bit_bound_exits_2_at_once(self, runner, tmp_path):
        qp = REPO / "poisson" / "canonical_qp.json"
        start = time.perf_counter()
        r = runner.invoke(main, ["poisson", "bracket", str(qp), "(2^1000)^1000*q", "p"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a value has more than {MAX_VALUE_BITS} bits"]
        doc = json.loads(qp.read_text())
        doc["bracket"]["q,p"] = "(2^1000)^1000"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["poisson", "check", str(path)])
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [
            f"error: bad polynomial '(2^1000)^1000': a value has more than {MAX_VALUE_BITS} bits"]

    def test_a_poisson_coefficient_beyond_the_str_digit_limit_prints(self, runner):
        with localcontext() as ctx:
            ctx.prec = 7000
            expect = f"{Decimal(2) ** 20000:f}"  # 6021 digits
        qp = str(REPO / "poisson" / "canonical_qp.json")
        r = runner.invoke(main, ["poisson", "bracket", qp, "(2^1000)^20*q", "p"])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == expect

    def test_a_bracket_polynomial_of_1000_terms(self, runner, tmp_path):
        doc = json.loads((REPO / "poisson" / "canonical_qp.json").read_text())
        doc["bracket"]["q,p"] = " + ".join(["1"] * 1000)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        r = runner.invoke(main, ["poisson", "bracket", str(path), "q", "p"])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == "1000"

    @pytest.mark.parametrize("expr", ["(q1+q2)^1000*(p1+p2)^300", "(q1+q2)^40*(p1+p2)^40"],
                             ids=["power", "product"])
    def test_a_polynomial_with_too_many_terms_exits_2_at_once(self, runner, expr):
        start = time.perf_counter()
        r = runner.invoke(main, ["poisson", "bracket", str(REPO / "poisson" / "canonical_4gen.json"),
                                 expr, "q1"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a polynomial may have more than {MAX_POLY_TERMS} terms"]

    def test_a_power_of_a_sum_within_the_term_bound_finishes_at_once(self, runner):
        start = time.perf_counter()
        r = runner.invoke(main, ["poisson", "bracket", str(REPO / "poisson" / "canonical_4gen.json"),
                                 "(q1+q2)^999", "p1"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 0, r.output

        def power(name, e):
            return [] if e == 0 else [name if e == 1 else f"{name}^{e}"]

        # {(q1+q2)^999, p1} = 999 (q1+q2)^998, by the binomial theorem
        expect = " + ".join("*".join([str(999 * math.comb(998, k))] + power("q1", k) + power("q2", 998 - k))
                            for k in range(999))
        assert r.output.strip() == expect


class TestConvert:
    def test_cup_in_litres(self, runner):
        r = runner.invoke(main, ["convert", "300 cm^3", "L", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.output.strip() == "0.3000 L"

    def test_incompatible_units_exit_1(self, runner):
        r = runner.invoke(main, ["convert", "1 m", "s", "--registry", REGISTRY])
        assert r.exit_code == 1

    @pytest.mark.parametrize("args", [
        ["convert", "1 m", "2 cm"],
        ["eval", "1 m", "--to", "0 m"],
    ], ids=["convert-2cm", "eval-to-0m"])
    def test_target_with_a_number_exits_2_with_one_line(self, runner, args):
        r = runner.invoke(main, args + ["--registry", REGISTRY])
        assert r.exit_code == 2
        target = args[-1]
        assert r.stderr.splitlines() == [
            f"error: conversion target '{target}' is not a unit: its number is not 1"
        ]
        assert r.stdout == ""

    def test_reciprocal_unit_target_accepted(self, runner):
        r = runner.invoke(main, ["convert", "3 /s", "1/s", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.stdout.strip() == "3.000 /s"


class TestRegistryValidate:
    def test_valid_registry(self, runner):
        r = runner.invoke(main, ["registry", "validate", REGISTRY])
        assert r.exit_code == 0
        assert "2 base dimensions" in r.output

    def test_broken_registry(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"base": ["length"], "units": []}')
        r = runner.invoke(main, ["registry", "validate", str(bad)])
        assert r.exit_code == 2


class TestCheck:
    def test_golden_structure_exits_0(self, runner):
        r = runner.invoke(main, ["check", str(REPO / "structures" / "product_ring_mod5_z2.json")])
        assert r.exit_code == 0
        assert "PASS" in r.output and "FAIL" not in r.output

    @pytest.mark.parametrize("fixture", [
        "broken_associativity.json",
        "broken_absorbency.json",
        "zero_slice_no_unit.json",
    ])
    def test_mutated_fixtures_exit_1_with_witness(self, runner, fixture):
        r = runner.invoke(main, ["check", str(DATA / fixture)])
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_product_cell_in_another_slice_exits_1_without_traceback(self, runner, tmp_path):
        doc = json.loads((REPO / "structures" / "product_ring_mod5_z2.json").read_text())
        doc["mul"]["2@0"]["3@0"] = "1@1"
        bad = tmp_path / "moved.json"
        bad.write_text(json.dumps(doc))
        r = runner.invoke(main, ["check", str(bad)])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "FAIL  distributivity where defined" in r.output
        assert "Traceback" not in r.output

    def test_shape_error_exits_2(self, runner):
        r = runner.invoke(main, ["check", str(DATA / "undeclared_dimension.json")])
        assert r.exit_code == 2


class TestPoisson:
    def test_check_canonical(self, runner):
        r = runner.invoke(main, ["poisson", "check", str(REPO / "poisson" / "canonical_qp.json")])
        assert r.exit_code == 0
        assert "bracket closes on generator pairs" in r.output

    def test_check_broken_antisymmetry_exits_1(self, runner):
        r = runner.invoke(main, [
            "poisson", "check", str(DATA / "poisson_broken_antisymmetry.json")
        ])
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_bracket_command(self, runner):
        r = runner.invoke(main, [
            "poisson", "bracket", str(REPO / "poisson" / "canonical_qp.json"),
            "q^2", "p",
        ])
        assert r.exit_code == 0
        assert r.output.strip() == "2*q"

    def test_bracket_with_a_leading_minus(self, runner):
        qp = str(REPO / "poisson" / "canonical_qp.json")
        pos = runner.invoke(main, ["poisson", "bracket", qp, "--", "3 q^2 p", "q"])
        neg = runner.invoke(main, ["poisson", "bracket", qp, "--", "-3 q^2 p", "q"])
        assert pos.exit_code == 0 and neg.exit_code == 0, neg.output
        assert pos.output.strip() == "-3*q^2"
        assert neg.output.strip() == "3*q^2"

    def test_reduce_command(self, runner):
        r = runner.invoke(main, [
            "poisson", "reduce", str(REPO / "poisson" / "canonical_qp.json"),
            "--cutoff", "6",
        ])
        assert r.exit_code == 0
        assert "1 classes" in r.output

    def test_reduce_four_generators(self, runner):
        r = runner.invoke(main, [
            "poisson", "reduce", str(REPO / "poisson" / "canonical_4gen.json"),
            "--cutoff", "4",
        ])
        assert r.exit_code == 0
        assert "q2" in r.output and "q1" not in r.output.replace("q1)", "")

    def test_reduce_beyond_the_monomial_bound_exits_2_at_once(self, runner):
        start = time.perf_counter()
        r = runner.invoke(main, [
            "poisson", "reduce", str(REPO / "poisson" / "canonical_4gen.json"),
            "--cutoff", "40",
        ])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: cutoff 40 spans {math.comb(44, 4)} monomials in 4 generators, "
            f"more than {MAX_REDUCE_MONOMIALS}"
        ]

    def test_reduce_monomial_bound_admits_cutoff_19_on_four_generators(self):
        require_monomials(19, 4)  # C(23, 4) = 8855
        with pytest.raises(InputFormatError):
            require_monomials(20, 4)  # C(24, 4) = 10626

    def test_reduce_needs_positive_cutoff(self, runner):
        r = runner.invoke(main, [
            "poisson", "reduce", str(REPO / "poisson" / "canonical_qp.json"),
            "--cutoff", "0",
        ])
        assert r.exit_code == 2

    def test_bad_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        r = runner.invoke(main, ["poisson", "check", str(bad)])
        assert r.exit_code == 2

    QP = {"generators": [{"name": "q", "dim": [1]}, {"name": "p", "dim": [-1]}],
          "bracket": {"q,p": "1"}}

    def _check(self, runner, tmp_path, **fields):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({**self.QP, **fields}))
        return runner.invoke(main, ["poisson", "check", str(doc)])

    def test_misplaced_structure_constant_is_a_failed_law(self, runner, tmp_path):
        r = self._check(runner, tmp_path, bracket_dim=[5])
        assert r.exit_code == 1 and isinstance(r.exception, SystemExit)
        assert r.stdout.splitlines() == [
            "== Poisson algebra on Q[q,p]",
            "FAIL  structure constants sit at b+g_i+g_j: dim({q,p}) = (0,), expected (5,)",
        ]

    @pytest.mark.parametrize("fields, message", [
        ({"bracket_dim": [0, 0]}, "bracket_dim has 2 exponents, expected 1"),
        ({"product_dim": []}, "product_dim has 0 exponents, expected 1"),
        ({"product_dim": [2]}, "a nonzero product_dim needs a scale"),
        ({"product_dim": [2], "scale": "q"}, "scale sits at (1,), not at product_dim (2,)"),
    ], ids=["bracket_dim-length", "product_dim-length", "scale-missing", "scale-misplaced"])
    def test_shape_errors_exit_2_with_one_line(self, runner, tmp_path, fields, message):
        r = self._check(runner, tmp_path, **fields)
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [f"error: {message}"]

    def test_a_zero_entry_sits_in_every_slice(self, runner, tmp_path):
        """"0" parses at dimension (0,), yet it is the zero of {q,r}'s
        slice (3,) as much as a missing entry is."""
        r = self._check(runner, tmp_path, generators=[
            {"name": "q", "dim": [1]}, {"name": "p", "dim": [-1]}, {"name": "r", "dim": [2]}],
            bracket_dim=[0], bracket={"q,p": "1", "q,r": "0"})
        assert r.exit_code == 0
        laws = r.stdout.splitlines()[1:]
        assert len(laws) == 8 and all(line.startswith("PASS  ") for line in laws)

    def test_a_nonzero_diagonal_entry_fails_antisymmetry(self, runner, tmp_path):
        """{q,q} = -{q,q} forces the diagonal to 0; the reduction refuses the
        table too."""
        doc = json.loads((REPO / "poisson" / "canonical_qp.json").read_text())
        doc["bracket"]["q,q"] = "1"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        check = runner.invoke(main, ["poisson", "check", str(path)])
        assert check.exit_code == 1
        assert check.stdout.splitlines()[1:] == [
            "PASS  structure constants sit at b+g_i+g_j",
            "FAIL  table antisymmetry: table not antisymmetric at (q,q)"]
        assert runner.invoke(main, ["poisson", "reduce", str(path)]).exit_code == 1


def _set(path, value):
    """A mutation that replaces the field at `path` (keys and indices)."""
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


MALFORMED = [
    ("poisson", "generator dim", _set(["generators", 0, "dim"], ["x"])),
    ("poisson", "bracket_dim", _set(["bracket_dim"], "x")),
    ("poisson", "product_dim", _set(["product_dim"], 5)),
    ("poisson", "bracket", _set(["bracket"], ["q,p"])),
    ("poisson", "ideal", _set(["ideal"], "q")),
    ("poisson", "bracket polynomial", _set(["bracket", "q,p"], "1 +")),
    ("poisson", "huge exponent", _set(["bracket", "q,p"], "q^1001 p^1001")),
    ("poisson", "huge literal digits", _set(["bracket", "q,p"], "9" * 5000)),
    ("poisson", "long symbol", _set(["bracket", "q,p"], "q" + "a" * 5000)),
    ("poisson", "long bracket polynomial", _set(["bracket", "q,p"], "q + " * 1250 + "+")),
    ("registry", "unit dims", _set(["units", 0, "dims"], ["x", 0])),
    ("registry", "units", _set(["units"], ["m"])),
    ("registry", "base", _set(["base"], "length")),
    ("registry", "symbol ''", _set(["units", 0, "symbol"], "")),
    ("registry", "symbol 'm s'", _set(["units", 0, "symbol"], "m s")),
    ("registry", "symbol '2x'", _set(["units", 0, "symbol"], "2x")),
    ("registry", "symbol 'µm'", _set(["units", 0, "symbol"], "µm")),
    ("registry", "symbol 'm\\n'", _set(["units", 0, "symbol"], "m\n")),
    ("structure", "unit_candidate", _set(["unit_candidate"], ["a"])),
    ("structure", "monoid elements", _set(["monoid", "elements"], "01")),
    ("structure", "commutative", _set(["commutative"], "false")),
]
SOURCES = {
    "poisson": REPO / "poisson" / "canonical_qp.json",
    "registry": REGISTRY,
    "structure": REPO / "structures" / "product_ring_mod5_z2.json",
}


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "kind, field, mutate", MALFORMED, ids=[f"{k}-{f}" for k, f, _ in MALFORMED]
    )
    def test_wrong_field_type_exits_2_with_one_line(self, runner, tmp_path, kind, field, mutate):
        doc = json.loads(Path(SOURCES[kind]).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = {
            "poisson": ["poisson", "check", str(bad)],
            "registry": ["eval", "1 m", "--registry", str(bad)],
            "structure": ["check", str(bad)],
        }[kind]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 200
        assert field.split()[-1] in lines[0]
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    @pytest.mark.parametrize("body, reason", [
        (b"\xff{}", "codec can't decode"),
        (b'{"base": ' + b"9" * 5000 + b"}", "4300 digits"),
    ], ids=["not-utf8", "huge-json-integer"])
    def test_unreadable_json_exits_2_with_one_line(self, runner, tmp_path, kind, body, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        args = {
            "poisson": ["poisson", "check", str(bad)],
            "registry": ["eval", "1 m", "--registry", str(bad)],
            "structure": ["check", str(bad)],
        }[kind]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]

    @pytest.mark.parametrize("candidate, message", [
        ({"0": "1@0", "1": "nowhere"}, "unit candidate names unknown element 'nowhere'"),
        ({"0": "1@0"}, "unit candidate misses dimensions ['1']"),
        ({"0": "1@0", "1": "1@1", "7": "1@0"}, "unit candidate names unknown dimensions ['7']"),
    ], ids=["unknown-element", "missing-dimension", "unknown-dimension"])
    def test_bad_unit_candidate_exits_2_when_a_slice_law_fails(
        self, runner, tmp_path, candidate, message
    ):
        """The candidate is shape, refused at load: a failing slice law
        (here 1@0 + 2@0 = 0@0) must not turn it into two FAIL lines."""
        doc = json.loads(Path(SOURCES["structure"]).read_text())
        doc["add"]["0"]["1@0"]["2@0"] = "0@0"
        doc["unit_candidate"] = candidate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = runner.invoke(main, ["check", str(bad)])
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        assert r.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["monoid"]["op"]["1"].pop("0"), r"monoid row '1' is not total"),
        (_set(["slices", "1"], []), r"slice '1' is empty"),
        (lambda doc: doc["add"].pop("1"), r"addition table for slice '1' is not total"),
        (lambda doc: doc["add"]["0"]["1@0"].pop("2@0"), r"addition .*row '1@0'.* is not total"),
        (_set(["add", "0", "1@0", "2@0"], "nowhere"), r"addition .*undeclared element 'nowhere'"),
        (lambda doc: doc["mul"].pop("1@1"), r"multiplication table is not total"),
        (lambda doc: doc["mul"]["1@1"].pop("2@0"), r"multiplication .*row '1@1' is not total"),
        (_set(["mul", "1@1", "2@0"], "nowhere"), r"multiplication .*undeclared element 'nowhere'"),
        (_set(["one"], "nowhere"), r"declared unit 'nowhere' is not an element"),
    ], ids=["monoid-row", "empty-slice", "add-row", "add-cell", "add-undeclared",
            "mul-row", "mul-cell", "mul-undeclared", "unit"])
    def test_table_that_is_not_total_exits_2_with_one_line(self, runner, tmp_path, mutate, message):
        doc = json.loads(Path(SOURCES["structure"]).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = runner.invoke(main, ["check", str(bad)])
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        (line,) = r.stderr.splitlines()
        assert line.startswith("error: ") and re.search(message, line), line


# ---------------------------------------------------------------------------
# No command draws a random value
# ---------------------------------------------------------------------------

FOUR_GEN = str(REPO / "poisson" / "canonical_4gen.json")


@pytest.mark.parametrize("args", [
    ["check", str(REPO / "structures" / "product_ring_mod5_z2.json")],
    ["poisson", "check", FOUR_GEN],
    ["poisson", "bracket", FOUR_GEN, "q1^2*p2 + q2", "p1*q2^3"],
    ["poisson", "reduce", FOUR_GEN, "--cutoff", "6"],
], ids=["check", "poisson-check", "poisson-bracket", "poisson-reduce"])
def test_no_command_draws_a_random_value(runner, monkeypatch, args):
    """Every draw of a `random.Random` goes through its `random` or its
    `getrandbits`; with both raising, each command still exits 0."""
    def draw(*_):
        raise AssertionError("a random value was drawn")

    for method in ("random", "getrandbits"):
        monkeypatch.setattr(random.Random, method, draw)
    r = runner.invoke(main, args)
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code == 0, r.output


# ---------------------------------------------------------------------------
# Start-up footprint: each command imports only the layers it runs
# ---------------------------------------------------------------------------

SRC = Path(__file__).parent.parent / "src"
CALCULATOR_ONLY = {"dimalg.poisson", "dimalg.structure", "dimalg.poly", "dimalg.algebra",
                   "dimalg.modules", "dimalg.endo"}
NO_POISSON = {"dimalg.poisson", "dimalg.algebra", "dimalg.modules"}
FOOTPRINT = """
import json, sys
import dimalg
bare = sorted(m for m in sys.modules if m.startswith("dimalg"))
from dimalg.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="dimalg")
except SystemExit as exc:
    code = exc.code
print(json.dumps([bare, code, sorted(m for m in sys.modules if m.startswith("dimalg"))]))
"""


@pytest.mark.parametrize("args, code, unloaded", [
    (["eval", "300 cm^3 / (2.2 L/min)", "--to", "s", "--registry", REGISTRY], 0, CALCULATOR_ONLY),
    (["convert", "300 cm^3", "L", "--registry", REGISTRY], 0, CALCULATOR_ONLY),
    (["eval", "1 +", "--registry", REGISTRY], 2, CALCULATOR_ONLY),
    (["check", str(REPO / "structures" / "product_ring_mod5_z2.json")], 0, NO_POISSON),
], ids=["eval", "convert", "syntax-error", "check"])
def test_a_fresh_command_loads_only_its_layers(args, code, unloaded):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    bare, exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert bare == ["dimalg"]
    assert exit_code == code, proc.stderr
    assert "dimalg.registry" in loaded
    assert not unloaded & set(loaded)


def test_every_public_name_resolves_to_its_module():
    import dimalg

    assert sorted(dimalg.__all__) == sorted(dimalg._OWNER)
    assert set(dimalg.__all__) <= set(dir(dimalg))
    for name, module in dimalg._OWNER.items():
        assert getattr(dimalg, name) is getattr(importlib.import_module(f"dimalg.{module}"), name)
    star: dict = {}
    exec("from dimalg import *", star)
    assert all(star[name] is getattr(dimalg, name) for name in dimalg.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dimalg.no_such_name
    with pytest.raises(ImportError):
        exec("from dimalg import no_such_name", {})
