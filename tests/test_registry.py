import time
from collections import Counter
from fractions import Fraction as F

import pytest
from conftest import REPO_DATA, run_cli
from hypothesis import Phase, given, settings, strategies as st

from dimalg import (
    DimensionMismatch,
    InputFormatError,
    PowerRing,
    convert,
    evaluate,
    format_quantity,
    registry_load,
)
from dimalg.errors import MAX_VALUE_BITS
from dimalg.registry import Quantity, display_value, render_unit, unit_factor_dims


class TestRegistryLoading:
    def test_si_demo_encodes_litres_correctly(self, si_registry):
        # registry arithmetic: L is 10^-3 m^3, exponent vector (3, 0)
        u = si_registry.units["L"]
        assert u.dims == (3, 0)
        assert u.factor == F(1, 1000)
        assert si_registry.rank == 2

    def test_element_of_symbol(self, si_registry):
        cm = si_registry.element_of("cm")
        assert cm.value == F(1, 100) and cm.dim == (1, 0)

    def test_every_symbol_reads_its_own_factor_and_dims(self, si_registry):
        """The elements built at load are the units' factors and dimensions,
        symbol by symbol."""
        assert set(si_registry.units) == set(si_registry._elements)
        for symbol, u in si_registry.units.items():
            assert si_registry.element_of(symbol) == si_registry.ring.element(u.factor, u.dims)

    def test_empty_units_is_an_error(self):
        with pytest.raises(InputFormatError) as exc:
            registry_load({"base": ["length"], "units": []})
        assert "coherent" in str(exc.value)

    def test_duplicate_symbol_names_the_symbol(self):
        with pytest.raises(InputFormatError) as exc:
            registry_load({
                "base": ["length"],
                "units": [
                    {"symbol": "m", "dims": [1], "factor": "1"},
                    {"symbol": "m", "dims": [1], "factor": "2"},
                ],
            })
        assert "'m'" in str(exc.value)

    def test_zero_factor_rejected(self):
        with pytest.raises(InputFormatError):
            registry_load({
                "base": ["length"],
                "units": [
                    {"symbol": "m", "dims": [1], "factor": "1"},
                    {"symbol": "nil", "dims": [1], "factor": "0"},
                ],
            })

    def test_two_coherent_units_rejected(self):
        with pytest.raises(InputFormatError):
            registry_load({
                "base": ["length"],
                "units": [
                    {"symbol": "m", "dims": [1], "factor": "1"},
                    {"symbol": "mm", "dims": [1], "factor": "1"},
                ],
            })

    def test_factor_forms(self):
        def factor(text):
            doc = {"base": ["length"], "units": [{"symbol": "m", "dims": [1], "factor": "1"},
                                                 {"symbol": "x", "dims": [1], "factor": text}]}
            return registry_load(doc).units["x"].factor

        assert factor("3/4") == F(3, 4) and factor("-0.125") == F(-1, 8)
        assert factor(60) == 60 and factor("9" * 4300) == int("9" * 4300)
        for text, reason in (("1e9999999", "exponent notation"), ("2E3", "exponent notation"),
                             ("9" * 4301, "more than 4300 digits"),
                             ("1/" + "9" * 4301, "more than 4300 digits")):
            with pytest.raises(InputFormatError, match=reason) as exc:
                factor(text)
            assert len(str(exc.value)) < 120

    def test_ten_base_dimensions_load_in_under_a_second(self):
        base = [f"b{i}" for i in range(10)]
        units = [
            {"symbol": f"u{i}", "dims": [int(j == i) for j in range(10)], "factor": "1"}
            for i in range(10)
        ]
        start = time.perf_counter()
        reg = registry_load({"base": base, "units": units})
        assert time.perf_counter() - start < 1.0
        assert format_quantity(evaluate("2 u0*u9/u3", reg), reg) == "2.000 u0*u9/u3"

    def test_dim_names(self, si_registry):
        assert si_registry.dim_name((3, -1)) == "length^3·time^-1"
        assert si_registry.dim_name((0, 0)) == "dimensionless"


class TestEvaluation:
    def test_combined_flow(self, si_registry):
        q = evaluate("2.2 L/min + 2.1 L/min", si_registry)
        assert format_quantity(q, si_registry) == "4.300 L/min"
        assert display_value(q, si_registry) == F(43, 10)

    def test_exact_conversion_of_the_first_tap(self, si_registry):
        # oracle: 36.7 cm^3/s = 36.7e-6 m^3/s = 36.7 * 60 / 1000 L/min
        q = convert(evaluate("36.7 cm^3/s", si_registry), "L/min", si_registry)
        assert display_value(q, si_registry) == F(367, 10) * 60 / 1000
        assert display_value(q, si_registry) == F(2202, 1000)

    def test_fill_time(self, si_registry):
        q = evaluate("300 cm^3 / (2.2 L/min + 2.1 L/min)", si_registry)
        in_min = convert(q, "min", si_registry)
        assert display_value(in_min, si_registry) == F(3, 43)
        in_s = convert(q, "s", si_registry)
        assert display_value(in_s, si_registry) == F(180, 43)
        assert format_quantity(in_s, si_registry) == "4.186 s"
        assert format_quantity(in_min, si_registry, exact=True) == "3/43 min"

    def test_a_display_unit_of_other_dimensions_is_refused(self, si_registry):
        q = evaluate("3 m", si_registry)
        with pytest.raises(DimensionMismatch, match="^display unit drifted: ") as exc:
            display_value(Quantity(q.element, (("s", 1),)), si_registry)
        assert (exc.value.left, exc.value.right) == ("length", "time")

    def test_mismatched_addition_pretty_prints_dimensions(self, si_registry):
        with pytest.raises(DimensionMismatch) as exc:
            evaluate("1 m + 1 s", si_registry)
        assert exc.value.left == "length" and exc.value.right == "time"
        with pytest.raises(DimensionMismatch) as exc:
            evaluate("36.7 cm^3/s + 300 cm^3", si_registry)
        assert exc.value.left == "length^3·time^-1"
        assert exc.value.right == "length^3"

    @pytest.mark.parametrize("expr, dims", [
        ("(1 m + 1 s) * (2 s + 2 m)", ("length", "time")),
        ("(2 s + 2 m) * (1 m + 1 s)", ("time", "length")),
    ])
    def test_operands_are_evaluated_left_to_right(self, si_registry, expr, dims):
        """Both factors are mismatched sums: the left one raises first."""
        with pytest.raises(DimensionMismatch) as exc:
            evaluate(expr, si_registry)
        assert (exc.value.left, exc.value.right, exc.value.context) == (*dims, "cannot add")

    def test_ring_methods_wrapped_after_load_see_every_call(self, si_registry, monkeypatch):
        """A counter set on `PowerRing`'s class after the registry was loaded,
        as a per-layer tracer sets one, sees the calls evaluation makes: the
        folds built at load look the ring's methods up at each call."""
        calls = Counter()
        for name in ("mul", "reciprocal", "pow", "add"):
            def counted(*args, _method=getattr(PowerRing, name), _name=name):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(PowerRing, name, counted)
        q = evaluate("(2 m)^2 / (4 s) + 3 m^2/s", si_registry)
        assert format_quantity(q, si_registry) == "4.000 m^2/s"
        assert set(calls) == {"mul", "reciprocal", "pow", "add"}

    def test_multiplication_never_errors_across_dimensions(self, si_registry, rng):

        symbols = list(si_registry.units)
        for _ in range(40):
            a, b = rng.choice(symbols), rng.choice(symbols)
            evaluate(f"2 {a} * 3 {b}", si_registry)

    def test_subtraction_within_a_slice(self, si_registry):
        q = evaluate("3 m - 50 cm", si_registry)
        assert format_quantity(q, si_registry) == "2.500 m"

    def test_squared_parenthesized_quantity(self, si_registry):
        q = evaluate("(3 m)^2", si_registry)
        assert format_quantity(q, si_registry) == "9.000 m^2"


class TestConversion:
    def test_cup_volume(self, si_registry):
        q = convert(evaluate("300 cm^3", si_registry), "L", si_registry)
        assert display_value(q, si_registry) == F(3, 10)
        assert format_quantity(q, si_registry) == "0.3000 L"

    def test_metre_to_centimetre(self, si_registry):
        q = convert(evaluate("1 m", si_registry), "cm", si_registry)
        assert display_value(q, si_registry) == 100

    def test_round_trip_is_bit_exact(self, si_registry, rng):
        for _ in range(20):
            n = rng.randint(1, 500)
            q = evaluate(f"{n} cm", si_registry)
            back = convert(convert(q, "m", si_registry), "cm", si_registry)
            assert back.element == q.element
            assert display_value(back, si_registry) == n

    def test_incompatible_target_rejected(self, si_registry):
        with pytest.raises(DimensionMismatch):
            convert(evaluate("1 m", si_registry), "s", si_registry)

    def test_dimension_check_comes_before_the_unit_check(self, si_registry):
        with pytest.raises(DimensionMismatch):
            convert(evaluate("1 m", si_registry), "2 s", si_registry)

    @pytest.mark.parametrize("target", ["2 cm", "0 m", "m + cm", "m/1000"])
    def test_target_that_is_not_a_unit_rejected(self, si_registry, target):
        with pytest.raises(InputFormatError, match="is not a unit"):
            convert(evaluate("1 m", si_registry), target, si_registry)

    @pytest.mark.parametrize("expr, target, value", [
        ("3 /s", "1/s", 3), ("1 m", "2 cm / 2", 100), ("4 L", "1 L", 4),
    ])
    def test_target_whose_number_is_one_accepted(self, si_registry, expr, target, value):
        q = convert(evaluate(expr, si_registry), target, si_registry)
        assert display_value(q, si_registry) == value


class TestUnitChoiceInvariance:
    def test_two_registries_agree_after_conversion(self, si_registry, rng):
        """A registry with different coherent units (cm, min) evaluates any
        expression to the same displayed numbers after conversion."""
        other = registry_load({
            "base": ["length", "time"],
            "units": [
                {"symbol": "m", "dims": [1, 0], "factor": "100"},
                {"symbol": "cm", "dims": [1, 0], "factor": "1"},
                {"symbol": "L", "dims": [3, 0], "factor": "1000"},
                {"symbol": "s", "dims": [0, 1], "factor": "1/60"},
                {"symbol": "min", "dims": [0, 1], "factor": "1"},
            ],
        })
        expressions = [
            "2.2 L/min + 2.1 L/min",
            "300 cm^3 / (2.2 L/min + 2.1 L/min)",
            "36.7 cm^3/s",
            "(3 m)^2 / 2 s",
        ]
        targets = ["L/min", "s", "L/min", "m^2/s"]
        for text, target in zip(expressions, targets):
            a = convert(evaluate(text, si_registry), target, si_registry)
            b = convert(evaluate(text, other), target, other)
            assert display_value(a, si_registry) == display_value(b, other)
            assert format_quantity(a, si_registry) == format_quantity(b, other)


@st.composite
def oracle_registries(draw):
    """A registry of rank 1-3 as (document, {symbol: (dims, factor)}): one
    coherent unit b<i> per base dimension and 1-4 units u<j> with rational
    factors."""
    rank = draw(st.integers(1, 3))
    units = {f"b{i}": (tuple(int(j == i) for j in range(rank)), F(1)) for i in range(rank)}
    for j in range(draw(st.integers(1, 4))):
        dims = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
        factor = F(draw(st.integers(-999, 999).filter(bool)), draw(st.integers(1, 999)))
        units[f"u{j}"] = (dims, factor if factor != 1 else F(2))
    doc = {
        "base": [f"d{i}" for i in range(rank)],
        "units": [{"symbol": s, "dims": list(d), "factor": f"{f.numerator}/{f.denominator}"}
                  for s, (d, f) in units.items()],
    }
    return doc, units


def _vec(*terms):
    """sum of n * v over (n, v) pairs, on plain exponent tuples"""
    return tuple(sum(n * v[i] for n, v in terms) for i in range(len(terms[0][1])))


class TestAgainstFractionOracle:
    """evaluate, convert and display_value against plain Fraction products
    and exponent-vector sums, with no power ring involved."""

    # no shrinking: a failure already names its expression and target, and
    # shrinking through registry loads takes minutes
    @settings(max_examples=25, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(oracle_registries(), st.data())
    def test_products_and_quotients_of_units(self, registry, data):
        doc, units = registry
        reg = registry_load(doc)
        symbols = sorted(units)
        exponent = st.integers(-3, 3).filter(bool)
        for _ in range(3):
            digits = data.draw(st.integers(1, 10**6))
            places = data.draw(st.integers(0, 3))
            coef = F(digits, 10**places)
            text = str(digits)
            if places:
                text = f"{digits // 10**places}.{digits % 10**places:0{places}d}"
            value, dims = coef, (0,) * len(doc["base"])
            for _ in range(data.draw(st.integers(1, 4))):
                op = data.draw(st.sampled_from("*/"))
                sym, e = data.draw(st.sampled_from(symbols)), data.draw(exponent)
                n = e if op == "*" else -e
                text += f" {op} {sym}^{e}"
                value *= units[sym][1] ** n
                dims = _vec((1, dims), (n, units[sym][0]))
            q = evaluate(text, reg)
            assert (q.element.value, q.element.dim) == (value, dims), text
            assert display_value(q, reg) == coef, text

            # target: one unit to a power, the rest of the dimension in base units
            sym, r = data.draw(st.sampled_from(symbols)), data.draw(exponent)
            rest = _vec((1, dims), (-r, units[sym][0]))
            target = f"{sym}^{r}" + "".join(f" * b{i}^{x}" for i, x in enumerate(rest) if x)
            c = convert(q, target, reg)
            assert c.element == q.element
            assert display_value(c, reg) == value / units[sym][1] ** r, (text, target)
            if any(rest):
                with pytest.raises(DimensionMismatch):
                    convert(q, f"{sym}^{r}", reg)


class TestRendering:
    def test_unit_rendering(self):
        assert render_unit((("L", 1), ("min", -1))) == "L/min"
        assert render_unit((("m", 2),)) == "m^2"
        assert render_unit((("cm", 3), ("s", -1))) == "cm^3/s"
        assert render_unit(()) == ""

    def test_dimensionless_result_renders_bare(self, si_registry):
        q = evaluate("1 m / 2 m", si_registry)
        assert format_quantity(q, si_registry) == "0.5000"
        assert unit_factor_dims(si_registry, q.unit) == (1, (0, 0))


MISMATCH = "cannot add: undefined across dimensions 'length' and 'time'"


@pytest.mark.parametrize("args, code, message", [
    (["1 m + 1 s *"], 2, "expected a value, found 'end of input' (at offset 11)"),
    (["1 m + 1 s + 1 furlong"], 2, "unknown symbol 'furlong' (at offset 14)"),
    (["(2^1000)^1000 m + 1 s"], 2, f"a value has more than {MAX_VALUE_BITS} bits"),
    (["1 m + 1 s + (2^1000)^1000"], 1, MISMATCH),
    (["1 m + 1 s", "--to", "furlong"], 1, MISMATCH),
], ids=["syntax-after-mismatch", "unknown-symbol-after-mismatch", "overflow-then-mismatch",
        "mismatch-then-overflow", "expression-before-target"])
def test_error_precedence(args, code, message):
    """The whole expression is parsed before any of it is evaluated, so a
    syntax error or an unknown symbol anywhere wins over a mismatch; the
    operations run left to right, so the leftmost failing one raises; and
    the expression is evaluated before the conversion target is parsed."""
    r = run_cli(["eval", *args, "--registry", str(REPO_DATA / "registries" / "si_demo.json")])
    assert (r.exit_code, r.stdout, r.stderr) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"base": [], "units": []}, "registry needs at least one base dimension"),
], ids=["no-base-dimension"])
def test_registry_refusals(doc, message):
    with pytest.raises(InputFormatError, match=message):
        registry_load(doc)
