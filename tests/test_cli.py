import importlib
import io
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

from conftest import run_cli
from dimalg.cli import main
from dimalg.errors import (
    MAX_POLY_TERMS,
    MAX_REDUCE_MONOMIALS,
    MAX_VALUE_BITS,
    InputFormatError,
    reduce_monomial_limit,
    require_monomials,
)

DATA = Path(__file__).parent / "data"
REPO = Path(__file__).parent.parent / "data"
REGISTRY = str(REPO / "registries" / "si_demo.json")


class TestEval:
    def test_combined_flow(self):
        r = run_cli(["eval", "2.2 L/min + 2.1 L/min", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.output.strip() == "4.300 L/min"

    def test_eval_with_conversion(self):
        r = run_cli([
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "s",
        ])
        assert r.exit_code == 0
        assert r.output.strip() == "4.186 s"

    def test_exact_flag(self):
        r = run_cli([
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "min", "--exact",
        ])
        assert r.output.strip() == "3/43 min"

    def test_digits_flag(self):
        r = run_cli([
            "eval", "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "--registry", REGISTRY, "--to", "min", "--digits", "2",
        ])
        assert r.output.strip() == "0.070 min"

    @pytest.mark.parametrize("expr, out", [("0^0", "1.000"), ("2^-3 m", "0.1250 m")])
    def test_powers(self, expr, out):
        r = run_cli(["eval", expr, "--registry", REGISTRY])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == out

    def test_dimension_mismatch_exits_1(self):
        r = run_cli(["eval", "1 m + 1 s", "--registry", REGISTRY])
        assert r.exit_code == 1
        assert "length" in r.output and "time" in r.output

    @pytest.mark.parametrize("args, message", [
        (["eval", "1 m + 1 s"], "cannot add: undefined across dimensions 'length' and 'time'"),
        (["eval", "36.7 cm^3/s + 300 cm^3"],
         "cannot add: undefined across dimensions 'length^3·time^-1' and 'length^3'"),
        (["eval", "1 m - 1 s"], "cannot subtract: undefined across dimensions 'length' and 'time'"),
        (["eval", "1 m", "--to", "s"],
         "cannot convert: undefined across dimensions 'length' and 'time'"),
        (["convert", "3 m", "s"], "cannot convert: undefined across dimensions 'length' and 'time'"),
    ], ids=["add", "add-compound", "subtract", "eval-to", "convert"])
    def test_dimension_mismatch_messages(self, args, message):
        r = run_cli(args + ["--registry", REGISTRY])
        assert r.exit_code == 1
        assert r.stderr.splitlines() == [f"error: {message}"]

    def test_a_dimension_mismatch_keeps_its_fields(self):
        import pickle

        from dimalg.errors import DimensionMismatch

        exc = DimensionMismatch("length", "time", "cannot add")
        assert (exc.left, exc.right, exc.args) == ("length", "time", ("length", "time", "cannot add"))
        bare = pickle.loads(pickle.dumps(DimensionMismatch((1, 0), (0, 1))))
        assert str(bare) == "undefined across dimensions (1, 0) and (0, 1)"
        assert str(pickle.loads(pickle.dumps(exc))) == str(exc)

    def test_syntax_error_exits_2(self):
        r = run_cli(["eval", "1 +", "--registry", REGISTRY])
        assert r.exit_code == 2

    def test_huge_exponent_exits_2_at_once(self):
        start = time.perf_counter()
        r = run_cli(["eval", "2^99999999 m", "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2
        lines = r.stderr.splitlines()
        assert lines == ["error: exponent is beyond the limit 1000 (at offset 2)"]

    def test_huge_literal_exits_2(self):
        r = run_cli(["eval", "9" * 5000 + " m", "--registry", REGISTRY])
        assert r.exit_code == 2
        assert r.stderr.splitlines() == ["error: number has more than 4300 digits (at offset 0)"]

    def test_results_beyond_the_str_digit_limit(self):
        big = str(Decimal(99999**1000))  # 5000 digits; Decimal has no str() limit
        for expr, flag, expect in [
            ("99999^1000 m", "--exact", big + " m"),
            ("1 m / 99999^1000", "--exact", f"1/{big} m"),
            ("99999^1000 m", "--digits=5000", big + " m"),
        ]:
            r = run_cli(["eval", expr, flag, "--registry", REGISTRY])
            assert r.exit_code == 0 and "Traceback" not in r.output
            assert r.output.strip() == expect

    def test_unknown_unit_exits_2(self):
        r = run_cli(["eval", "1 parsec", "--registry", REGISTRY])
        assert r.exit_code == 2
        assert "parsec" in r.output

    def test_missing_registry_exits_2(self):
        r = run_cli(["eval", "1 m"])
        assert r.exit_code == 2

    def test_nonpositive_digits_exit_2(self):
        r = run_cli(["eval", "1 m", "--registry", REGISTRY, "--digits", "0"])
        assert r.exit_code == 2


class TestBoundedInputs:
    @pytest.mark.parametrize("args, message", [
        (["eval", "-3 m", "--registry", REGISTRY], "No such option '-3'."),
        (["convert", "1 m", "--registry", REGISTRY], "Missing argument 'TARGET'."),
        (["evl", "1 m"], "No such command 'evl'. Did you mean 'eval'?"),
        (["--bogus", "eval"], "No such option '--bogus'."),
    ], ids=["leading-minus", "missing-argument", "unknown-command", "unknown-root-option"])
    def test_usage_errors_exit_2_with_one_line(self, args, message):
        r = run_cli(args)
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("args", [
        ["eval", "1 m / 0"],
        ["eval", "1 m / (2 s - 2 s)"],
        ["eval", "0^-1 m"],
        ["eval", "(0 m)^-1"],
        ["eval", "1 m", "--to", "m / 0"],
        ["convert", "1 m / 0", "m"],
        ["convert", "1 m", "m / (1 - 1)"],
    ])
    def test_division_by_zero_exits_2_with_one_line(self, args):
        r = run_cli(args + ["--registry", REGISTRY])
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == ["error: division by zero"]

    @pytest.mark.parametrize("expr", ["(2^1000)^1000 m", "*".join(["2^1000"] * 300) + " m"],
                             ids=["nested-power", "300-factor-product"])
    def test_values_beyond_the_bit_bound_exit_2_at_once(self, expr):
        start = time.perf_counter()
        r = run_cli(["eval", expr, "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a value has more than {MAX_VALUE_BITS} bits"]

    def test_a_nested_power_within_the_bound_renders_at_once(self):
        with localcontext() as ctx:
            ctx.prec = 4  # rounding half-even, as the default rendering
            expect = f"{+Decimal(2**100000):f} m"
        start = time.perf_counter()
        r = run_cli(["eval", "(2^1000)^100 m", "--registry", REGISTRY])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 0, r.output
        assert r.output.strip() == expect

    def test_a_sum_of_1000_terms(self):
        r = run_cli(["eval", " + ".join(["1 m"] * 1000), "--registry", REGISTRY])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == "1000 m"

    def test_1000_nested_parentheses_exit_2_with_one_line(self):
        deep = "(" * 1000 + "1 m" + ")" * 1000
        for args in (["eval", deep], ["convert", "1 m", deep]):
            r = run_cli(args + ["--registry", REGISTRY])
            assert r.exit_code == 2, r.output
            assert r.stderr.splitlines() == [
                "error: parentheses nest deeper than 100 levels (at offset 100)"]

    @pytest.mark.parametrize("command", [["eval", "1 m"], ["convert", "1 m", "m"]])
    def test_digits_are_bounded(self, command):
        start = time.perf_counter()
        for digits in ("100001", "10000000"):
            r = run_cli(command + ["--digits", digits, "--registry", REGISTRY])
            assert r.exit_code == 2, r.output
            assert r.stderr.splitlines() == ["error: digits must be between 1 and 100000"]
        assert time.perf_counter() - start < 1.0
        r = run_cli(command + ["--digits", "100000", "--registry", REGISTRY])
        assert r.exit_code == 0 and r.output.strip() == "1." + "0" * 99999 + " m"

    def test_a_poisson_coefficient_beyond_the_bit_bound_exits_2_at_once(self, tmp_path):
        qp = REPO / "poisson" / "canonical_qp.json"
        start = time.perf_counter()
        r = run_cli(["poisson", "bracket", str(qp), "(2^1000)^1000*q", "p"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a value has more than {MAX_VALUE_BITS} bits"]
        doc = json.loads(qp.read_text())
        doc["bracket"]["q,p"] = "(2^1000)^1000"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        r = run_cli(["poisson", "check", str(path)])
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [
            f"error: bad polynomial '(2^1000)^1000': a value has more than {MAX_VALUE_BITS} bits"]

    def test_a_poisson_coefficient_beyond_the_str_digit_limit_prints(self):
        with localcontext() as ctx:
            ctx.prec = 7000
            expect = f"{Decimal(2) ** 20000:f}"  # 6021 digits
        qp = str(REPO / "poisson" / "canonical_qp.json")
        r = run_cli(["poisson", "bracket", qp, "(2^1000)^20*q", "p"])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == expect

    def test_a_bracket_polynomial_of_1000_terms(self, tmp_path):
        doc = json.loads((REPO / "poisson" / "canonical_qp.json").read_text())
        doc["bracket"]["q,p"] = " + ".join(["1"] * 1000)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        r = run_cli(["poisson", "bracket", str(path), "q", "p"])
        assert r.exit_code == 0, r.output
        assert r.output.strip() == "1000"

    @pytest.mark.parametrize("expr", ["(q1+q2)^1000*(p1+p2)^300", "(q1+q2)^40*(p1+p2)^40"],
                             ids=["power", "product"])
    def test_a_polynomial_with_too_many_terms_exits_2_at_once(self, expr):
        start = time.perf_counter()
        r = run_cli(["poisson", "bracket", str(REPO / "poisson" / "canonical_4gen.json"),
                                 expr, "q1"])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stderr.splitlines() == [f"error: a polynomial may have more than {MAX_POLY_TERMS} terms"]

    def test_a_power_of_a_sum_within_the_term_bound_finishes_at_once(self):
        start = time.perf_counter()
        r = run_cli(["poisson", "bracket", str(REPO / "poisson" / "canonical_4gen.json"),
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
    def test_cup_in_litres(self):
        r = run_cli(["convert", "300 cm^3", "L", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.output.strip() == "0.3000 L"

    def test_incompatible_units_exit_1(self):
        r = run_cli(["convert", "1 m", "s", "--registry", REGISTRY])
        assert r.exit_code == 1

    @pytest.mark.parametrize("args", [
        ["convert", "1 m", "2 cm"],
        ["eval", "1 m", "--to", "0 m"],
    ], ids=["convert-2cm", "eval-to-0m"])
    def test_target_with_a_number_exits_2_with_one_line(self, args):
        r = run_cli(args + ["--registry", REGISTRY])
        assert r.exit_code == 2
        target = args[-1]
        assert r.stderr.splitlines() == [
            f"error: conversion target '{target}' is not a unit: its number is not 1"
        ]
        assert r.stdout == ""

    def test_reciprocal_unit_target_accepted(self):
        r = run_cli(["convert", "3 /s", "1/s", "--registry", REGISTRY])
        assert r.exit_code == 0
        assert r.stdout.strip() == "3.000 /s"


class TestRegistryValidate:
    def test_valid_registry(self):
        r = run_cli(["registry", "validate", REGISTRY])
        assert r.exit_code == 0
        assert "2 base dimensions" in r.output

    def test_broken_registry(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"base": ["length"], "units": []}')
        r = run_cli(["registry", "validate", str(bad)])
        assert r.exit_code == 2


class TestCheck:
    def test_golden_structure_exits_0(self):
        r = run_cli(["check", str(REPO / "structures" / "product_ring_mod5_z2.json")])
        assert r.exit_code == 0
        assert "PASS" in r.output and "FAIL" not in r.output

    @pytest.mark.parametrize("fixture", [
        "broken_associativity.json",
        "broken_absorbency.json",
        "zero_slice_no_unit.json",
    ])
    def test_mutated_fixtures_exit_1_with_witness(self, fixture):
        r = run_cli(["check", str(DATA / fixture)])
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_product_cell_in_another_slice_exits_1_without_traceback(self, tmp_path):
        doc = json.loads((REPO / "structures" / "product_ring_mod5_z2.json").read_text())
        doc["mul"]["2@0"]["3@0"] = "1@1"
        bad = tmp_path / "moved.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["check", str(bad)])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "FAIL  distributivity where defined" in r.output
        assert "Traceback" not in r.output

    def test_shape_error_exits_2(self):
        r = run_cli(["check", str(DATA / "undeclared_dimension.json")])
        assert r.exit_code == 2


class TestPoisson:
    def test_check_canonical(self):
        r = run_cli(["poisson", "check", str(REPO / "poisson" / "canonical_qp.json")])
        assert r.exit_code == 0
        assert "bracket closes on generator pairs" in r.output

    def test_check_broken_antisymmetry_exits_1(self):
        r = run_cli([
            "poisson", "check", str(DATA / "poisson_broken_antisymmetry.json")
        ])
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_bracket_command(self):
        r = run_cli([
            "poisson", "bracket", str(REPO / "poisson" / "canonical_qp.json"),
            "q^2", "p",
        ])
        assert r.exit_code == 0
        assert r.output.strip() == "2*q"

    def test_bracket_with_a_leading_minus(self):
        qp = str(REPO / "poisson" / "canonical_qp.json")
        pos = run_cli(["poisson", "bracket", qp, "--", "3 q^2 p", "q"])
        neg = run_cli(["poisson", "bracket", qp, "--", "-3 q^2 p", "q"])
        assert pos.exit_code == 0 and neg.exit_code == 0, neg.output
        assert pos.output.strip() == "-3*q^2"
        assert neg.output.strip() == "3*q^2"

    def test_reduce_command(self):
        r = run_cli([
            "poisson", "reduce", str(REPO / "poisson" / "canonical_qp.json"),
            "--cutoff", "6",
        ])
        assert r.exit_code == 0
        assert "1 classes" in r.output

    def test_reduce_four_generators(self):
        r = run_cli([
            "poisson", "reduce", str(REPO / "poisson" / "canonical_4gen.json"),
            "--cutoff", "4",
        ])
        assert r.exit_code == 0
        assert "q2" in r.output and "q1" not in r.output.replace("q1)", "")

    def test_reduce_by_a_non_coisotrope_exits_1_with_one_error_line(self, tmp_path):
        doc = json.loads((REPO / "poisson" / "canonical_4gen.json").read_text())
        doc["ideal"] = ["q1", "p1"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        r = run_cli(["poisson", "reduce", str(path)])
        assert r.exit_code == 1 and r.stdout == ""
        assert r.stderr.splitlines() == ["error: not a coisotrope: {q1,p1} = 1 is outside the ideal"]

    def test_reduce_beyond_the_monomial_bound_exits_2_at_once(self):
        start = time.perf_counter()
        r = run_cli([
            "poisson", "reduce", str(REPO / "poisson" / "canonical_4gen.json"),
            "--cutoff", "48",
        ])
        assert time.perf_counter() - start < 1.0
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            f"error: cutoff 48 spans {math.comb(52, 4)} monomials in 4 generators, "
            f"more than {MAX_REDUCE_MONOMIALS}"
        ]

    def test_reduce_monomial_bound_by_generator_count(self):
        """MAX_REDUCE_MONOMIALS on four generators, (4/n)^4 of it beyond,
        and never below 10 000."""
        for cutoff, nvars in ((47, 4), (23, 5), (14, 6), (10, 7), (8, 8), (6, 9), (5, 12)):
            require_monomials(cutoff, nvars)
            with pytest.raises(InputFormatError):
                require_monomials(cutoff + 1, nvars)
        assert reduce_monomial_limit(4) == MAX_REDUCE_MONOMIALS == 250_000
        assert reduce_monomial_limit(8) == 15_625 and reduce_monomial_limit(12) == 10_000

    def test_reduce_needs_positive_cutoff(self):
        r = run_cli([
            "poisson", "reduce", str(REPO / "poisson" / "canonical_qp.json"),
            "--cutoff", "0",
        ])
        assert r.exit_code == 2

    def test_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        r = run_cli(["poisson", "check", str(bad)])
        assert r.exit_code == 2

    QP = {"generators": [{"name": "q", "dim": [1]}, {"name": "p", "dim": [-1]}],
          "bracket": {"q,p": "1"}}

    def _check(self, tmp_path, **fields):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({**self.QP, **fields}))
        return run_cli(["poisson", "check", str(doc)])

    def test_misplaced_structure_constant_is_a_failed_law(self, tmp_path):
        r = self._check(tmp_path, bracket_dim=[5])
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
        # "2x" would parse as 2·x and "q p" as q·p, naming another polynomial
        ({"generators": QP["generators"] + [{"name": "2x", "dim": [1]}]},
         "generator name '2x' is not a name expressions can use ([A-Za-z_][A-Za-z_0-9]*)"),
        ({"generators": QP["generators"] + [{"name": "q p", "dim": [0]}]},
         "generator name 'q p' is not a name expressions can use ([A-Za-z_][A-Za-z_0-9]*)"),
    ], ids=["bracket_dim-length", "product_dim-length", "scale-missing", "scale-misplaced",
            "generator-2x", "generator-q-p"])
    def test_shape_errors_exit_2_with_one_line(self, tmp_path, fields, message):
        r = self._check(tmp_path, **fields)
        assert r.exit_code == 2
        assert r.stderr.splitlines() == [f"error: {message}"]

    def test_a_zero_entry_sits_in_every_slice(self, tmp_path):
        """"0" parses at dimension (0,), yet it is the zero of {q,r}'s
        slice (3,) as much as a missing entry is."""
        r = self._check(tmp_path, generators=[
            {"name": "q", "dim": [1]}, {"name": "p", "dim": [-1]}, {"name": "r", "dim": [2]}],
            bracket_dim=[0], bracket={"q,p": "1", "q,r": "0"})
        assert r.exit_code == 0
        laws = r.stdout.splitlines()[1:]
        assert len(laws) == 8 and all(line.startswith("PASS  ") for line in laws)

    def test_a_nonzero_diagonal_entry_fails_antisymmetry(self, tmp_path):
        """{q,q} = -{q,q} forces the diagonal to 0; the reduction refuses the
        table too."""
        doc = json.loads((REPO / "poisson" / "canonical_qp.json").read_text())
        doc["bracket"]["q,q"] = "1"
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        check = run_cli(["poisson", "check", str(path)])
        assert check.exit_code == 1
        assert check.stdout.splitlines()[1:] == [
            "PASS  structure constants sit at b+g_i+g_j",
            "FAIL  table antisymmetry: table not antisymmetric at (q,q)"]
        assert run_cli(["poisson", "reduce", str(path)]).exit_code == 1


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
    def test_wrong_field_type_exits_2_with_one_line(self, tmp_path, kind, field, mutate):
        doc = json.loads(Path(SOURCES[kind]).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = {
            "poisson": ["poisson", "check", str(bad)],
            "registry": ["eval", "1 m", "--registry", str(bad)],
            "structure": ["check", str(bad)],
        }[kind]
        r = run_cli(args)
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
    def test_unreadable_json_exits_2_with_one_line(self, tmp_path, kind, body, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(body)
        args = {
            "poisson": ["poisson", "check", str(bad)],
            "registry": ["eval", "1 m", "--registry", str(bad)],
            "structure": ["check", str(bad)],
        }[kind]
        r = run_cli(args)
        assert r.exit_code == 2, r.output
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and reason in lines[0]

    @pytest.mark.parametrize("candidate, message", [
        ({"0": "1@0", "1": "nowhere"}, "unit candidate names unknown element 'nowhere'"),
        ({"0": "1@0"}, "unit candidate misses dimensions ['1']"),
        ({"0": "1@0", "1": "1@1", "7": "1@0"}, "unit candidate names unknown dimensions ['7']"),
    ], ids=["unknown-element", "missing-dimension", "unknown-dimension"])
    def test_bad_unit_candidate_exits_2_when_a_slice_law_fails(
        self, tmp_path, candidate, message
    ):
        """The candidate is shape, refused at load: a failing slice law
        (here 1@0 + 2@0 = 0@0) must not turn it into two FAIL lines."""
        doc = json.loads(Path(SOURCES["structure"]).read_text())
        doc["add"]["0"]["1@0"]["2@0"] = "0@0"
        doc["unit_candidate"] = candidate
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["check", str(bad)])
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
    def test_table_that_is_not_total_exits_2_with_one_line(self, tmp_path, mutate, message):
        doc = json.loads(Path(SOURCES["structure"]).read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["check", str(bad)])
        assert r.exit_code == 2, r.output
        assert r.stdout == ""
        (line,) = r.stderr.splitlines()
        assert line.startswith("error: ") and re.search(message, line), line


# ---------------------------------------------------------------------------
# The usage contract: help exits 0 on stdout, every usage error exits 2
# ---------------------------------------------------------------------------

ROOT_HELP = """\
Usage: dimalg [OPTIONS] COMMAND [ARGS]...

  Exact dimensioned-quantity calculator and structure checker.

Options:
  --help  Show this message and exit.

Commands:
  check     Run the axiom suite on a declared finite structure.
  convert   Evaluate an expression and re-express it in TARGET units.
  eval      Evaluate a quantity expression.
  poisson   Dimensioned Poisson algebra commands (JSON descriptions).
  registry  Registry utilities.
"""
POISSON_HELP = """\
Usage: dimalg poisson [OPTIONS] COMMAND [ARGS]...

  Dimensioned Poisson algebra commands (JSON descriptions).

Options:
  --help  Show this message and exit.

Commands:
  bracket  Print the bracket of two polynomial expressions.
  check    Run the axiom suite, then the coisotrope check if an ideal is declared.
  reduce   Reduce by the declared coisotrope and list the surviving basis.
"""
REGISTRY_HELP = """\
Usage: dimalg registry [OPTIONS] COMMAND [ARGS]...

  Registry utilities.

Options:
  --help  Show this message and exit.

Commands:
  validate  Validate a registry file and summarize it.
"""
EVAL_HELP = """\
Usage: dimalg eval [OPTIONS] EXPRESSION

  Evaluate a quantity expression.

Options:
  --registry PATH   registry JSON
  --digits INTEGER  significant digits  [default: 4]
  --exact           print the exact rational
  --to TEXT         convert the result to this unit
  --help            Show this message and exit.
"""
CONVERT_HELP = """\
Usage: dimalg convert [OPTIONS] EXPRESSION TARGET

  Evaluate an expression and re-express it in TARGET units.

Options:
  --registry PATH   registry JSON
  --digits INTEGER  significant digits  [default: 4]
  --exact           print the exact rational
  --help            Show this message and exit.
"""
REDUCE_HELP = """\
Usage: dimalg poisson reduce [OPTIONS] PATH

  Reduce by the declared coisotrope and list the surviving basis.

Options:
  --cutoff INTEGER  degree cutoff  [default: 6]
  --help            Show this message and exit.
"""


def _bare_help(usage, text):
    return f"Usage: dimalg {usage}\n\n  {text}\n\nOptions:\n  --help  Show this message and exit.\n"


QP_PATH = str(REPO / "poisson" / "canonical_qp.json")
USAGE = [
    ([], (2, "", ROOT_HELP)),
    (["poisson"], (2, "", POISSON_HELP)),
    (["registry"], (2, "", REGISTRY_HELP)),
    (["--help"], (0, ROOT_HELP, "")),
    (["--help", "eval"], (0, ROOT_HELP, "")),
    (["poisson", "--help"], (0, POISSON_HELP, "")),
    (["registry", "--help"], (0, REGISTRY_HELP, "")),
    (["eval", "--help"], (0, EVAL_HELP, "")),
    (["eval", "1 m", "--digits", "x", "--help"], (0, EVAL_HELP, "")),
    (["convert", "--help"], (0, CONVERT_HELP, "")),
    (["registry", "validate", "--help"], (0, _bare_help(
        "registry validate [OPTIONS] PATH", "Validate a registry file and summarize it."), "")),
    (["check", "--help"], (0, _bare_help(
        "check [OPTIONS] PATH", "Run the axiom suite on a declared finite structure."), "")),
    (["poisson", "check", "--help"], (0, _bare_help(
        "poisson check [OPTIONS] PATH",
        "Run the axiom suite, then the coisotrope check if an ideal is declared."), "")),
    (["poisson", "bracket", "--help"], (0, _bare_help(
        "poisson bracket [OPTIONS] PATH LEFT RIGHT",
        "Print the bracket of two polynomial expressions."), "")),
    (["poisson", "reduce", "--help"], (0, REDUCE_HELP, "")),
    (["eval", "1 m", "--digits", "x", "--registry", REGISTRY],
     (2, "", "error: Invalid value for '--digits': 'x' is not a valid integer.\n")),
    (["poisson", "reduce", QP_PATH, "--cutoff", "abc"],
     (2, "", "error: Invalid value for '--cutoff': 'abc' is not a valid integer.\n")),
    (["eval", "1 m", "--registry"], (2, "", "error: Option '--registry' requires an argument.\n")),
    (["eval", "1", "m", "extra", "--registry", REGISTRY],
     (2, "", "error: Got unexpected extra arguments (m extra)\n")),
    (["eval", "1 m", "extra", "--registry", REGISTRY],
     (2, "", "error: Got unexpected extra argument (extra)\n")),
    (["eval", "1 m", "--exact=1", "--registry", REGISTRY],
     (2, "", "error: Option '--exact' does not take a value.\n")),
    (["eval", "1 m", "--regstry", REGISTRY],
     (2, "", "error: No such option '--regstry'. Did you mean '--registry'?\n")),
    (["poisson", "frobnicate"], (2, "", "error: No such command 'frobnicate'.\n")),
    (["eval", "--registry=" + REGISTRY, "1 m", "--digits=3"], (0, "1.00 m\n", "")),
    (["poisson", "bracket", QP_PATH, "--", "-3 q^2 p", "q"], (0, "3*q^2\n", "")),
]


def test_a_reader_that_stops_early_ends_the_command_with_exit_1(monkeypatch):
    """`dimalg ... | head -1`: the write that meets the closed pipe ends
    the command with exit 1 and no traceback."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        main(args=["eval", "1 m", "--registry", REGISTRY], prog_name="dimalg")
    assert exc.value.code == 1


@pytest.mark.parametrize("args, expected", USAGE,
                         ids=[",".join(w.replace(f"{REPO}/", "") for w in a) or "bare" for a, _ in USAGE])
def test_the_usage_contract(args, expected):
    r = run_cli(args)
    assert (r.exit_code, r.stdout, r.stderr) == expected


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
def test_no_command_draws_a_random_value(monkeypatch, args):
    """Every draw of a `random.Random` goes through its `random` or its
    `getrandbits`; with both raising, each command still exits 0."""
    def draw(*_):
        raise AssertionError("a random value was drawn")

    for method in ("random", "getrandbits"):
        monkeypatch.setattr(random.Random, method, draw)
    r = run_cli(args)
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code == 0, r.output


# ---------------------------------------------------------------------------
# Start-up footprint: each command imports only the layers it runs
# ---------------------------------------------------------------------------

SRC = Path(__file__).parent.parent / "src"
CALCULATOR_ONLY = {"dimalg.poisson", "dimalg.structure", "dimalg.poly", "dimalg.algebra",
                   "dimalg.modules", "dimalg.endo", "dimalg.ring", "dimalg.carriers",
                   "dimalg.group", "dimalg.lines", "dimalg.report", "dimalg.linalg"}
# the law commands take DimElement from core: no carrier presentation loads
NO_CARRIERS = {"dimalg.group", "dimalg.carriers", "dimalg.modules"}
# a declared table needs no polynomial and no calculator: `check` loads neither
# poly nor poisson, registry nor numfmt
NO_POISSON = NO_CARRIERS | {"dimalg.poisson", "dimalg.poly", "dimalg.algebra", "dimalg.linalg",
                            "dimalg.registry", "dimalg.numfmt"}
# the Poisson suite decides its laws on its own table: no bilinear-algebra layer loads
NO_ALGEBRA = NO_CARRIERS | {"dimalg.algebra", "dimalg.registry"}
# a frozen dataclass execs its methods at import, and dataclasses loads inspect
UNWANTED = ("click", "dataclasses", "inspect")
POISSON_DOC = str(REPO / "poisson" / "canonical_4gen.json")
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
print(json.dumps([bare, code, sorted(m for m in sys.modules if m.startswith("dimalg")),
                  sorted(m for m in sys.modules if m.partition(".")[0] in %r)]))
""" % (UNWANTED,)


@pytest.mark.parametrize("args, code, unloaded", [
    (["eval", "300 cm^3 / (2.2 L/min)", "--to", "s", "--registry", REGISTRY], 0, CALCULATOR_ONLY),
    (["convert", "300 cm^3", "L", "--registry", REGISTRY], 0, CALCULATOR_ONLY),
    (["eval", "1 +", "--registry", REGISTRY], 2, CALCULATOR_ONLY),
    (["eval", "1 m + 1 s", "--registry", REGISTRY], 1, CALCULATOR_ONLY),
    (["registry", "validate", REGISTRY], 0, CALCULATOR_ONLY),
    (["check", str(REPO / "structures" / "product_ring_mod5_z2.json")], 0, NO_POISSON),
    (["poisson", "check", POISSON_DOC], 0, NO_ALGEBRA),
    (["poisson", "bracket", POISSON_DOC, "q1", "p1"], 0, NO_ALGEBRA),
    (["poisson", "reduce", POISSON_DOC, "--cutoff", "4"], 0, NO_ALGEBRA),
], ids=["eval", "convert", "syntax-error", "dimension-mismatch", "registry-validate", "check",
        "poisson-check", "poisson-bracket", "poisson-reduce"])
def test_a_fresh_command_loads_only_its_layers(args, code, unloaded):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    bare, exit_code, loaded, unwanted = json.loads(proc.stdout.splitlines()[-1])
    assert bare == ["dimalg"]
    assert exit_code == code, proc.stderr
    if unloaded is CALCULATOR_ONLY:
        assert "dimalg.registry" in loaded
    assert not unloaded & set(loaded)
    assert unwanted == []


@pytest.mark.parametrize("module, name", [
    ("group", "DimElement"), ("carriers", "Carrier"), ("carriers", "Rationals"),
    ("ring", "DimRing"), ("ring", "Slots"), ("ring", "ProductDimRing"),
    ("lines", "Line"), ("lines", "Factor"), ("lines", "PowerRing"),
])
def test_each_calculator_class_has_one_definition(module, name):
    from dimalg import core

    assert getattr(importlib.import_module(f"dimalg.{module}"), name) is getattr(core, name)


def test_quantity_arithmetic_is_the_product_rings_own():
    """The registry adds and multiplies with `ProductDimRing`'s operations:
    no second arithmetic."""
    from dimalg.registry import registry_load
    from dimalg.ring import ProductDimRing

    ring = registry_load(REGISTRY).ring
    assert ring.add.__func__ is ProductDimRing.add
    assert ring.mul.__func__ is ProductDimRing.mul


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
