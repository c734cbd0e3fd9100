"""Dimensional abelian groups and their maps.

A dimensional abelian group is a family of abelian-group slices indexed
by a dimension set: a ring's dimension monoid, or a plain finite set
(`FiniteDims`) for a group given slice by slice.  Addition is defined
exactly within a slice and raises DimensionMismatch across slices --
that partiality is the whole point and the only addition this library
ever performs.
"""

# Unevaluated annotations: an evaluated `Callable[...]` of a dimalg class sits in
# typing's global cache and keeps a re-imported package's old copy alive.
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from . import carriers
from .carriers import (Carrier, FormalSums, Pairs, SliceMap, SliceQuotient, SliceSubgroup,
                       identity_map, quotient_slice, tensor_carrier, zero_map)
from .errors import CarrierError, DimensionMapMismatch, DimensionMismatch
from .monoid import DimMonoid


@dataclass(frozen=True)
class DimElement:
    """A value tagged with its dimension; the atom of every dimensioned structure."""

    value: Any
    dim: Any

    def __str__(self):
        return f"{self.value} @ {self.dim}"


class FiniteDims(tuple):
    """A plain finite dimension set.  It answers the calls a dimension
    monoid answers: `contains`, `elements`, `sample` and `probe_words`."""

    def contains(self, d) -> bool:
        return d in self

    def elements(self) -> tuple:
        return self

    def sample(self, rng: random.Random):
        return rng.choice(self)

    def probe_words(self, length: int = 3) -> tuple:
        """Every element, whatever the length."""
        return self

    @staticmethod
    def pairs(left, right) -> "FiniteDims":
        """The product of two finite dimension sets."""
        le, re = left.elements(), right.elements()
        if le is None or re is None:
            raise CarrierError("product dimension sets need finite factors")
        return FiniteDims(itertools.product(le, re))


class DimAbGroup:
    """A dimension set together with one abelian-group carrier per slice."""

    def __init__(self, dims: DimMonoid | FiniteDims, slice_of: Callable[[Any], Carrier],
                 label: str = ""):
        self.dims = dims
        self._slice_of = slice_of
        self.label = label or "dim-group"

    @staticmethod
    def uniform(dims: DimMonoid | FiniteDims, carrier: Carrier, label: str = "") -> "DimAbGroup":
        return DimAbGroup(dims, lambda d: carrier, label)

    @staticmethod
    def from_dict(slices: dict, label: str = "") -> "DimAbGroup":
        table = dict(slices)
        return DimAbGroup(FiniteDims(table), lambda d: table[d], label)

    def slice(self, d) -> Carrier:
        if not self.dims.contains(d):
            raise CarrierError(f"unknown dimension {d!r} in {self.label}")
        return self._slice_of(d)

    def element(self, value, dim) -> DimElement:
        self.slice(dim).require(value)
        return DimElement(value, dim)

    def contains(self, a: DimElement) -> bool:
        return self.dims.contains(a.dim) and self.slice(a.dim).contains(a.value)

    # -- the dimensional binar ---------------------------------------
    def add(self, a: DimElement, b: DimElement) -> DimElement:
        if a.dim != b.dim:
            raise DimensionMismatch(a.dim, b.dim, self.label)
        return DimElement(self.slice(a.dim).add(a.value, b.value), a.dim)

    def neg(self, a: DimElement) -> DimElement:
        return DimElement(self.slice(a.dim).neg(a.value), a.dim)

    def zero(self, d) -> DimElement:
        return DimElement(self.slice(d).zero(), d)

    def eq(self, a: DimElement, b: DimElement) -> bool:
        return a.dim == b.dim and a.value == b.value

    # -- probing -------------------------------------------------------
    def sample(self, rng: random.Random, dim=None) -> DimElement:
        d = self.dims.sample(rng) if dim is None else dim
        return DimElement(self.slice(d).sample(rng), d)

    def probe_dims(self) -> tuple:
        return self.dims.probe_words(2)


# ---------------------------------------------------------------------------
# Dimensioned maps
# ---------------------------------------------------------------------------


class DimMap:
    """A morphism of dimensional abelian groups: a dimension map plus one
    additive slice map over every dimension, making the square with the
    two projections commute."""

    def __init__(
        self,
        domain: DimAbGroup,
        codomain: DimAbGroup,
        dim_map: Callable,
        slice_map: Callable[[Any], SliceMap],
    ):
        self.domain = domain
        self.codomain = codomain
        self.dim_map = dim_map
        self.slice_map = slice_map

    @staticmethod
    def identity(group: DimAbGroup) -> "DimMap":
        return DimMap(group, group, lambda d: d, lambda d: identity_map(group.slice(d)))

    @staticmethod
    def zero_over(domain: DimAbGroup, codomain: DimAbGroup, dim_map: Callable) -> "DimMap":
        """The pointwise-zero map covering a given dimension map."""
        return DimMap(
            domain,
            codomain,
            dim_map,
            lambda d: zero_map(domain.slice(d), codomain.slice(dim_map(d))),
        )

    def apply(self, a: DimElement) -> DimElement:
        if not self.domain.contains(a):
            raise CarrierError(f"{a} is not in the domain")
        return DimElement(self.slice_map(a.dim).apply(a.value), self.dim_map(a.dim))

    __call__ = apply

    def compose(self, other: "DimMap") -> "DimMap":
        """self after other; the dimension maps compose the same way."""
        if other.codomain is not self.domain:
            raise CarrierError("compose: domain/codomain mismatch")
        return DimMap(
            other.domain,
            self.codomain,
            lambda d: self.dim_map(other.dim_map(d)),
            lambda d: self.slice_map(other.dim_map(d)).compose(other.slice_map(d)),
        )

    # -- equality over the probe dimensions ------------------------------
    def same_dim_map(self, other: "DimMap") -> bool:
        return all(
            self.dim_map(d) == other.dim_map(d) for d in self.domain.probe_dims()
        )

    def extensionally_equal(self, other: "DimMap") -> bool:
        """Equal dimension maps and equal generator images on every probe
        dimension; slice maps are additive, so this decides equality there."""
        return self.same_dim_map(other) and all(
            self.slice_map(d).images == other.slice_map(d).images
            for d in self.domain.probe_dims()
        )

    def pointwise_add(self, other: "DimMap") -> "DimMap":
        """Partial addition on hom-sets: defined exactly when the two maps
        cover the same dimension map."""
        if self.domain is not other.domain or self.codomain is not other.codomain:
            raise CarrierError("pointwise add: mismatched hom-sets")
        if not self.same_dim_map(other):
            raise DimensionMapMismatch(
                "pointwise addition needs equal dimension maps"
            )
        return DimMap(
            self.domain,
            self.codomain,
            self.dim_map,
            lambda d: self.slice_map(d).add(other.slice_map(d)),
        )

    def pointwise_neg(self) -> "DimMap":
        return DimMap(
            self.domain, self.codomain, self.dim_map, lambda d: self.slice_map(d).neg()
        )


# ---------------------------------------------------------------------------
# Subgroups, kernels, quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimSubgroup:
    """A dimensional subgroup: one slice subgroup per dimension."""

    group: DimAbGroup
    at: Callable[[Any], SliceSubgroup]  # dimension -> its slice subgroup

    def contains(self, a: DimElement) -> bool:
        return self.at(a.dim).contains(a.value)

    def elements(self, d):
        return self.at(d).elements()


def zero_subgroup(group: DimAbGroup) -> DimSubgroup:
    return DimSubgroup(group, lambda d: carriers.zero_subgroup(group.slice(d)))


def whole_subgroup(group: DimAbGroup) -> DimSubgroup:
    return DimSubgroup(group, lambda d: carriers.whole_subgroup(group.slice(d)))


def kernel(phi: DimMap) -> DimSubgroup:
    """The kernel of a dimensional-group morphism: over each dimension
    the kernel of its slice map, solved on coefficients."""
    return DimSubgroup(phi.domain, lambda d: phi.slice_map(d).kernel())


@dataclass(frozen=True)
class QuotientGroup:
    group: DimAbGroup
    projection: DimMap


def quotient_group(a: DimAbGroup, s: DimSubgroup) -> QuotientGroup:
    """Slice-wise quotient by a dimensional subgroup, with its projection."""
    if s.group is not a:
        raise CarrierError("subgroup belongs to a different group")

    @functools.cache
    def q(d) -> SliceQuotient:
        return quotient_slice(a.slice(d), s.at(d))

    for d in a.probe_dims():  # a subset that is no subgroup is refused here
        q(d)

    quot = DimAbGroup(a.dims, lambda d: q(d).carrier, f"{a.label}/S")
    proj = DimMap(a, quot, lambda d: d, lambda d: q(d).project)
    return QuotientGroup(quot, proj)


# ---------------------------------------------------------------------------
# Sums, products, free and tensor constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSum:
    group: DimAbGroup
    inject_left: DimMap
    inject_right: DimMap


def direct_sum(a: DimAbGroup, b: DimAbGroup) -> DirectSum:
    """Componentwise sum over one shared dimension set."""
    if a.dims != b.dims:
        raise DimensionMismatch(a.dims, b.dims, "direct_sum")
    group = DimAbGroup(
        a.dims, lambda d: Pairs(a.slice(d), b.slice(d)), f"{a.label}(+){b.label}"
    )

    def inj(side_group, other, left: bool):
        def smap(d):
            src = side_group.slice(d)
            oz = other.slice(d).zero()
            images = ((g, oz) if left else (oz, g) for g in src.generators())
            return SliceMap(src, group.slice(d), images)

        return DimMap(side_group, group, lambda d: d, smap)

    return DirectSum(group, inj(a, b, True), inj(b, a, False))


def product_group(a: DimAbGroup, b: DimAbGroup) -> DimAbGroup:
    """Cartesian product: dimension set is the product of the two sets."""
    dims = FiniteDims.pairs(a.dims, b.dims)
    return DimAbGroup(
        dims,
        lambda de: Pairs(a.slice(de[0]), b.slice(de[1])),
        f"{a.label}x{b.label}",
    )


class FreeAbelian(DimAbGroup):
    """Integer formal sums over a dimensioned set given slice-wise.

    `slices` maps each dimension to its (finite, possibly empty) list of
    generators; generators embed with coefficient 1.
    """

    def __init__(self, slices: dict, label: str = "free"):
        self.gen_slices = {d: tuple(gens) for d, gens in slices.items()}
        table = {d: FormalSums(gens) for d, gens in self.gen_slices.items()}
        super().__init__(FiniteDims(table), lambda d: table[d], label)

    def embed(self, gen, d) -> DimElement:
        return DimElement(self.slice(d).embed(gen), d)

    def extend(self, images: dict, target: DimAbGroup, dim_map: Callable) -> DimMap:
        """The unique group morphism extending a dimensioned map of sets.

        `images[(gen, d)]` is the target element assigned to a generator;
        every image must live over `dim_map(d)`.
        """
        for (gen, d), img in images.items():
            if img.dim != dim_map(d):
                raise DimensionMismatch(img.dim, dim_map(d), "free extension")

        def smap(d):
            return SliceMap(
                self.slice(d),
                target.slice(dim_map(d)),
                tuple(images[(g, d)].value for g in self.gen_slices[d]),
            )

        return DimMap(self, target, dim_map, smap)


@dataclass(frozen=True)
class TensorGroup:
    group: DimAbGroup
    # the pure tensor of two elements, reduced modulo bilinearity
    pure: Callable[[DimElement, DimElement], DimElement]


def tensor_groups(a: DimAbGroup, b: DimAbGroup) -> TensorGroup:
    """Slice-wise tensor product over the product dimension set."""
    dims = FiniteDims.pairs(a.dims, b.dims)

    @functools.cache
    def ts(de):
        return tensor_carrier(a.slice(de[0]), b.slice(de[1]))

    group = DimAbGroup(dims, lambda de: ts(de).carrier, f"{a.label}(x){b.label}")

    def pure(x: DimElement, y: DimElement) -> DimElement:
        de = (x.dim, y.dim)
        return DimElement(ts(de).pure(x.value, y.value), de)

    return TensorGroup(group, pure)
