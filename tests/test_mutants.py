"""The mutant catalogue's verdicts: for each mutant of `tests/mutants.py`,
the laws of `ring_axiom_report` it FAILs, and for an endomorphism-ring
mutant those of `endo_distributivity_report` too; for a morphism mutant,
those of `RingMorphism.check`.  Each set is pinned whole, so a suite that
starts to miss a mutant, or to fail it on another law, shows here."""

import pytest

import mutants
from dimalg import ProductDimRing, endo_distributivity_report, ring_axiom_report
from dimalg.carriers import Rationals
from dimalg.monoid import DimMonoid

DIST, SLICES = "distributivity where defined", "slices are abelian groups"
UNIT, ASSOC = "unitality", "multiplicative associativity"
ZERO = "zero family is absorbent"
LEFT, RIGHT = "left distributivity", "right distributivity"

# mutant: (the dimension monoid of Q x M, the ring or, for an endomorphism
# ring, its base; the ring suite's FAILs; the endomorphism distributivity
# report's FAILs)
CATALOGUE = {
    "OffByOne": ("Z", [DIST, SLICES], None),
    "DoubledProduct": ("Z", [UNIT], None),
    "ZeroTimesTwoIsOne": ("Z", [DIST, ZERO, ASSOC, "commutativity"], None),
    "DifferentHalvesAddOne": ("Z", [DIST, SLICES], None),
    "FloorSumProduct": ("Z/2", [DIST, SLICES], None),
    "FloorSliceOneSum": ("Z/2", [DIST, SLICES], None),
    "OddEvenDoubledProduct": ("Z/2", [UNIT, ASSOC, "commutativity"], None),
    # a survivor (ROADMAP item 10): no slot value's product exceeds 100
    "LargeProductPlusOne": ("Z", [], None),
    # the same ring probed: ±10⁶/7 reaches past 100
    "ProbedLargeProductPlusOne": ("Z", [DIST, UNIT, ASSOC], None),
    "OwnMapMul": ("Z/2", [UNIT, ASSOC], []),
    "SwappedOrderMul": ("Z/2", ["projection is a monoid morphism", ZERO, ASSOC], []),
    "SquareAcrossMaps": ("Z/2", [DIST, UNIT, ASSOC], [LEFT]),
    "WrongSlotMul": ("Z/2", [UNIT, ASSOC], []),
    "ProductForSumEndo": ("Z/2", [DIST, SLICES], [LEFT, RIGHT]),
    "FloorEndo": ("Z/2", [DIST, UNIT, ASSOC], [LEFT, RIGHT]),
    "ThresholdMapMul": ("Z/2", [DIST, ZERO, UNIT, ASSOC], [LEFT]),
    "FloorOffConstantMaps": ("Z/2", [DIST, UNIT, ASSOC], [LEFT, RIGHT]),
    "UncheckedAdd": ("Z/2", ["addition is undefined across slices"], []),
    "SquaredRightFactor": ("Z/2", [DIST, UNIT, ASSOC], [RIGHT]),
    "LeftHeavyEndo": ("Z/2", [DIST, SLICES], [LEFT]),
}


def test_the_catalogue_is_every_mutant():
    classes = {name for name, x in vars(mutants).items()
               if isinstance(x, type) and x.__module__ == mutants.__name__}
    assert classes == set(CATALOGUE)


@pytest.mark.parametrize("name", CATALOGUE)
def test_each_mutant_fails_its_pinned_laws(name):
    monoid, ring_fails, endo_fails = CATALOGUE[name]
    cls = getattr(mutants, name)
    monoid = DimMonoid.free_abelian(1) if monoid == "Z" else DimMonoid.cyclic(2)
    if endo_fails is None:
        ring = cls(Rationals(), monoid)
    else:
        ring = cls(ProductDimRing(Rationals(), monoid))
        assert [r.law for r in endo_distributivity_report(ring).failures] == endo_fails
    assert [r.law for r in ring_axiom_report(ring).failures] == ring_fails


def test_the_probe_set_reaches_a_morphism_that_errs_past_100():
    """Drawn probes n/d with |n|, d at most 9 never exceed 100 in magnitude;
    the built set's ±10⁶/7 does, on each additive and multiplicative case
    that holds it."""
    ring = ProductDimRing(Rationals(), DimMonoid.free_abelian(1), label="QxZ")
    rep = mutants.large_value_plus_one(ring).check()
    assert [(r.law, r.witness) for r in rep.failures] == [
        ("additive within slices", "additivity fails at 1000000/7 @ (-2,), -1000000/7 @ (-2,)"),
        ("multiplicative", "multiplicativity fails at 1000000/7 @ (-1,), 2 @ (1,)"),
    ]
