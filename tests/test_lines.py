from fractions import Fraction as F

import pytest

from dimalg import (
    DimensionMismatch,
    DimRing,
    Factor,
    Line,
    PowerRing,
    ProductDimRing,
    RingMorphism,
    functoriality_check,
    line_unit_to_section,
    power_functor,
    ring_axiom_report,
    units_trivialization,
)
from dimalg import lines
from dimalg.carriers import Rationals
from dimalg.errors import CarrierError
from dimalg.group import DimElement
from dimalg.monoid import DimMonoid


@pytest.fixture
def one_line():
    return PowerRing((Line("L"),))


@pytest.fixture
def two_lines():
    return PowerRing((Line("length"), Line("time")))


class TestTensorMultiplication:
    def test_dual_pairing_multiplies_coordinates(self, one_line):
        # the positive/negative pairing case: exponents cancel to the scalars
        x = one_line.element(2, (1,))
        y = one_line.element(3, (-1,))
        assert one_line.mul(x, y) == one_line.element(6, (0,))

    def test_scalar_action(self, one_line):
        r = one_line.scalar(F(5))
        a = one_line.element(7, (3,))
        assert one_line.mul(r, a) == one_line.element(35, (3,))

    def test_two_line_exponent_addition(self, two_lines):
        x = two_lines.element(2, (1, 0))
        y = two_lines.element(3, (0, 2))
        assert two_lines.mul(x, y) == two_lines.element(6, (1, 2))

    def test_commutative(self, two_lines, rng):
        for _ in range(40):
            x, y = two_lines.sample(rng), two_lines.sample(rng)
            assert two_lines.mul(x, y) == two_lines.mul(y, x)

    def test_scalar_slice_is_the_field(self, one_line, rng):
        # products and sums of exponent-zero elements stay exponent-zero
        r, s = one_line.scalar(F(2, 3)), one_line.scalar(F(5))
        assert one_line.mul(r, s) == one_line.scalar(F(10, 3))
        assert one_line.add(r, s) == one_line.scalar(F(17, 3))

    def test_addition_partial(self, two_lines):
        with pytest.raises(DimensionMismatch):
            two_lines.add(two_lines.element(1, (1, 0)), two_lines.element(1, (0, 1)))

    def test_field_axioms(self, two_lines, rng):
        assert ring_axiom_report(two_lines, rng).ok
        for _ in range(30):
            x = two_lines.sample_nonzero(rng)
            assert two_lines.mul(x, two_lines.reciprocal(x)) == two_lines.one

    def test_is_the_product_ring_of_q_and_z_k(self, two_lines, rng):
        q_x_z2 = ProductDimRing(Rationals(), DimMonoid.free_abelian(2))
        assert isinstance(two_lines, ProductDimRing) and two_lines.is_field
        assert two_lines.dims == q_x_z2.dims
        for _ in range(20):
            x, y = two_lines.sample(rng), two_lines.sample(rng)
            assert two_lines.mul(x, y) == q_x_z2.mul(x, y)
            assert two_lines.add(x, two_lines.neg(x)) == q_x_z2.zero(x.dim)

    def test_reciprocal_examples(self, one_line, two_lines):
        assert one_line.reciprocal(one_line.element(4, (2,))) == one_line.element(
            F(1, 4), (-2,)
        )
        assert one_line.reciprocal(one_line.one) == one_line.one
        x = two_lines.element(-3, (1, -1))
        assert two_lines.reciprocal(x) == two_lines.element(F(-1, 3), (-1, 1))
        with pytest.raises(ZeroDivisionError):
            one_line.reciprocal(one_line.zero((1,)))

    @pytest.mark.parametrize("names", [("length", "time"), ("length", "mass", "time")],
                             ids=["rank-2", "rank-3"])
    def test_power_in_one_step_is_square_and_multiply(self, names):
        """`PowerRing.pow` raises the coordinate and scales the exponents at
        once; it equals the square-and-multiply `DimRing.pow` it replaces."""
        ring = PowerRing(Line(n) for n in names)
        vectors = [(0,) * ring.rank, (1, -2, 3)[:ring.rank]]
        for coord in (F(0), F(1), F(-2), F(3, 7), F(-10**6, 7)):
            for exps in vectors:
                a = ring.element(coord, exps)
                for n in [*range(-7, 8), 1000]:
                    if n < 0 and coord == 0:
                        continue
                    got = ring.pow(a, n)
                    assert got == DimRing.pow(ring, a, n), (coord, exps, n)
                    assert type(got.value) is F

    def test_power_refusals(self, two_lines):
        with pytest.raises(ZeroDivisionError):
            two_lines.pow(two_lines.zero((1, -1)), -1)
        for bad in [(1,), (1, 0.5), None]:
            with pytest.raises(CarrierError):
                two_lines.pow(DimElement(F(2), bad), 3)


class TestPowerFunctor:
    def test_positive_exponent(self):
        b = Factor(Line("A"), Line("B"), F(5))
        bp = power_functor(b)
        assert bp(bp.domain.element(3, (2,))) == bp.codomain.element(75, (2,))

    def test_negative_exponent_uses_inverse_transpose(self):
        b = Factor(Line("A"), Line("B"), F(5))
        bp = power_functor(b)
        assert bp(bp.domain.element(10, (-1,))) == bp.codomain.element(2, (-1,))

    def test_scalar_slice_fixed(self, rng):
        b = Factor(Line("A"), Line("B"), F(rng.randint(1, 50)))
        bp = power_functor(b)
        for _ in range(10):
            x = bp.domain.sample(rng, dim=(0,))
            assert bp(x) == bp.codomain.element(x.value, (0,))

    def test_is_a_ring_morphism(self):
        b = Factor(Line("A"), Line("B"), F(7, 3))
        assert power_functor(b).check().ok

    def test_factor_must_be_invertible(self):
        for src, dst in (("A", "B"), ("A", "A")):
            with pytest.raises(CarrierError):
                Factor(Line(src), Line(dst), F(0))


class TestFunctoriality:
    def test_composition_example(self):
        # oracle: scalars multiply, so (C∘B) acts by 6^n; at (1, 2) both
        # sides give 36
        b = Factor(Line("A"), Line("B"), F(2))
        c = Factor(Line("B"), Line("C"), F(3))
        cb = power_functor(c.compose(b))
        x = cb.domain.element(1, (2,))
        assert cb(x).value == 36
        assert power_functor(c)(power_functor(b)(x)).value == 36

    def test_mixed_sign_example(self):
        b = Factor(Line("A"), Line("B"), F(2))
        c = Factor(Line("B"), Line("C"), F(3))
        cb = power_functor(c.compose(b))
        x = cb.domain.element(1, (-2,))
        assert cb(x).value == F(1, 36)
        assert power_functor(c)(power_functor(b)(x)).value == F(1, 36)

    def test_report_passes(self):
        b = Factor(Line("A"), Line("B"), F(2))
        c = Factor(Line("B"), Line("C"), F(3))
        assert functoriality_check(b, c).ok

    def test_report_fails_a_power_that_is_not_multiplicative(self, monkeypatch):
        """A power acting by scalar**|n| keeps the composition and identity
        laws, but not the product across exponents of opposite sign."""
        real = lines.power_functor

        def absolute_power(factor):
            f = real(factor)
            return RingMorphism(f.domain, f.codomain, f.dim_map, lambda a: DimElement(
                a.value * factor.scalar ** abs(a.dim[0]), a.dim), f.label)

        monkeypatch.setattr(lines, "power_functor", absolute_power)
        rep = functoriality_check(Factor(Line("A"), Line("B"), F(2)),
                                  Factor(Line("B"), Line("C"), F(3)))
        assert [r.law for r in rep.failures] == ["preserves the tensor multiplication"]
        assert rep.failures[0].witness.startswith("B^power not multiplicative at ")

    def test_report_fails_a_composite_with_the_wrong_scalar(self):
        """A factor whose `compose` adds 1 to the product of the scalars
        makes (C∘B)^power scale by 7^n, not 6^n. The identity law and the
        tensor multiplication never call `compose`, so they still pass."""

        class OffByOne(Factor):
            def compose(self, other):
                return Factor(other.src, self.dst, self.scalar * other.scalar + 1)

        rep = functoriality_check(Factor(Line("A"), Line("B"), F(2)),
                                  OffByOne(Line("B"), Line("C"), F(3)))
        assert [r.law for r in rep.failures] == ["composition law"]
        # the first probe, coordinate 1 at exponent -3: 7^-3 != 6^-3
        assert rep.failures[0].witness == "(C∘B)^power != C^power∘B^power at 1·[-3]"

    def test_identity_factor(self, rng):
        line = Line("A")
        ident = power_functor(Factor.identity(line))
        ring = PowerRing((line,))
        for n in range(-3, 4):
            x = ring.sample(rng, dim=(n,))
            assert ident(x) == x


class TestLineUnits:
    def test_unit_one_gives_identity_trivialization(self, one_line, rng):
        check = line_unit_to_section(one_line, [F(1)])
        assert check.ok
        triv = units_trivialization(one_line, check.value)
        for _ in range(20):
            x = one_line.sample(rng)
            assert triv.to_field(x) == x

    def test_centi_unit_rescales(self, one_line):
        # a unit with coordinate 100: the element (3, 1) displays as 3/100
        check = line_unit_to_section(one_line, [F(100)])
        triv = units_trivialization(one_line, check.value)
        out = triv.from_field(one_line.element(3, (1,)))
        assert out == triv.product.element(F(3, 100), (1,))

    def test_section_is_multiplicative(self, two_lines, rng):
        check = line_unit_to_section(two_lines, [F(3), F(1, 7)])
        assert check.ok
        u = check.value
        for _ in range(30):
            n = two_lines.sample_dim(rng)
            m = two_lines.sample_dim(rng)
            nm = two_lines.dims.combine(n, m)
            assert two_lines.mul(u(n), u(m)) == u(nm)

    def test_zero_unit_rejected(self, two_lines):
        with pytest.raises(CarrierError):
            line_unit_to_section(two_lines, [F(1), F(0)])

    def test_wrong_arity_rejected(self, two_lines):
        with pytest.raises(CarrierError):
            line_unit_to_section(two_lines, [F(1)])


class TestMultiLineEmbedding:
    def test_single_line_embeds_as_subfield(self, two_lines):
        from dimalg.lines import embed_line

        emb = embed_line(two_lines, 1)
        assert emb.check().ok
        x = emb.domain.element(5, (2,))
        assert emb(x) == two_lines.element(5, (0, 2))


@pytest.mark.parametrize("call, message", [
    (lambda r: Factor(Line("L"), Line("M"), F(2)).compose(Factor(Line("L"), Line("M"), F(3))),
     "factors do not compose"),
    (lambda r: functoriality_check(Factor(Line("L"), Line("M"), F(2)),
                                   Factor(Line("L"), Line("M"), F(3))),
     "factors do not compose"),
    (lambda r: PowerRing(()), "at least one line"),
    (lambda r: r.element(1, (1, 2)), r"bad exponent vector \(1, 2\)"),
], ids=["compose-unmatched-factors", "check-unmatched-factors", "no-lines", "bad-exponent-vector"])
def test_lines_refusals(one_line, call, message):
    with pytest.raises(CarrierError, match=message):
        call(one_line)
