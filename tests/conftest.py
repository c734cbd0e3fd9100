import random
from pathlib import Path

import pytest
from hypothesis import settings

from dimalg import (
    GradedPolyRing,
    ProductDimRing,
    RationalScalars,
    make_poisson,
    registry_load,
)
from dimalg.monoid import DimMonoid

# Every property test draws the same examples on every run.
settings.register_profile("dimalg", derandomize=True)
settings.load_profile("dimalg")

DATA = Path(__file__).parent / "data"
REPO_DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def q_x_z():
    """The product ring of exact rationals with the integers."""
    return ProductDimRing(RationalScalars(), DimMonoid.free_abelian(1), label="QxZ")


@pytest.fixture
def q_x_z2():
    return ProductDimRing(RationalScalars(), DimMonoid.cyclic(2), label="QxZ/2")


@pytest.fixture
def canonical_ring():
    """Q[q, p] with dimensions +1 and -1 in Z."""
    return GradedPolyRing(["q", "p"], [(1,), (-1,)])


@pytest.fixture
def canonical_poisson(canonical_ring):
    """The canonical bracket {q, p} = 1 with both dimensions zero."""
    return make_poisson(canonical_ring, {("q", "p"): canonical_ring.one})


@pytest.fixture
def si_registry():
    return registry_load(REPO_DATA / "registries" / "si_demo.json")
