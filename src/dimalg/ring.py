"""Dimensioned rings and fields.

A dimensioned ring is a dimensional abelian group carrying a *total*
multiplication whose dimension projection is a monoid morphism, with
distributivity holding wherever the partial addition is defined and the
zero family acting absorbently.  Fields additionally have reciprocals
for every nonzero element, which forces the dimension monoid to be a
group.

The slot rule.  In a product ring Q x D a sum's or a product's value
and dimension combine apart; in an endomorphism ring (`endo`) the
coefficient at base point i reads the factors' at i or at images of i.
So in each law a side's dimension depends on no value, and its value at
a slot is one scalar expression in the factors' values, the same at
every dimension tuple.  `slot_cases` decides a law from the ring's
`slots()`: on each tuple of slot dimensions it depends on (`SLOT_LAWS`),
each factor on its own signed non-integer; then on every tuple of each
probe family's values at each dimension the family names for the law,
by whether it lies within one slice.  Over Q a side has degree at most 2
in each value, so that grid of COEFF_PROBES decides it; its -1/2 catches
an operation exact on integers.  The rule takes the ring's own
slot-by-slot add and mul for granted: a subclass whose add or mul reads
the dimension is probed by these cases, not decided.  The rule enters
`CheckReport.law` as a theorem row with no premise, `slot_rows`, ahead
of a law's theorem rows; a law `SLOT_LAWS` does not name gets no row.

The `DimRing` base, `Slots` and `ProductDimRing` are defined in `core`
and re-exported here.
"""

# Unevaluated annotations: an evaluated `Callable[...]` of a dimalg class sits in
# typing's global cache and keeps a re-imported package's old copy alive.
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .core import DimElement, DimRing, ProductDimRing, Rationals, Slots
from .errors import CarrierError, ConstructionError, DimensionMapMismatch, DimensionMismatch
from .report import Checked, CheckReport


# The slot rule's table, per law: its slot-dimension tuples, bare place, one-slice flag
SLOT_LAWS = {
    "projection is a monoid morphism": (lambda ds: itertools.product(ds, repeat=2), None, False),
    "distributivity where defined": (lambda ds: ((d, d, e) for d in ds for e in ds), None, False),
    "zero family is absorbent": (lambda ds: itertools.product(ds, repeat=2), 0, True),
    "unitality": (lambda ds: zip(ds), None, True),
    "multiplicative associativity": (lambda ds: ((d, d, e) for d in ds for e in ds), None, False),
    "commutativity": (lambda ds: itertools.product(ds, repeat=2), None, False),
    "slices are abelian groups": (lambda ds: zip(ds, ds), None, True),
    "addition is undefined across slices":
        (lambda ds: ((d, e) for d in ds for e in ds if d != e), 1, False),
}
COEFF_PROBES = (-1, 0, 1, 2, Fraction(-1, 2))
DISTINCT = (Fraction(-3, 2), Fraction(5, 3), Fraction(-7, 4))
LARGE = (Fraction(10**6, 7), Fraction(-10**6, 7))
# a product ring's probe values: non-integers of both signs, and large ones
PROBE_VALUES = (*COEFF_PROBES, *DISTINCT, *LARGE)


def slot_rows(slots: Slots | None, law: str) -> tuple:
    """The slot rule's row for `law`, if any (module docstring)."""
    return (((), lambda: slot_cases(slots, law)),) if slots and law in SLOT_LAWS else ()


def slot_cases(slots: Slots, law: str):
    """The cases of `law` by the slot rule (module docstring)."""
    tuples, bare, one_slice = SLOT_LAWS[law]

    def case(ds, values):
        values = iter(values)
        return tuple(d if i == bare else DimElement(next(values), d) for i, d in enumerate(ds))

    yield from (case(ds, slots.distinct) for ds in tuples(slots.dims))
    for family, at, one_slice_at in slots.families:
        at = one_slice_at if one_slice else at
        for ds in itertools.chain.from_iterable(tuples((d,)) for d in at):
            arity = len(ds) - (bare is not None)
            yield from (case(ds, vs) for vs in itertools.product(family, repeat=arity))


# the older name of `Rationals`.  It and `ProductDimRing`'s `scalars` parameter
# stay because perfbench/workloads.py:312 passes both; they go with ROADMAP
# item 1's benchmark change.
RationalScalars = Rationals


# ---------------------------------------------------------------------------
# Ring morphisms
# ---------------------------------------------------------------------------


def _same(x):
    return x


def probe_triples(elements) -> list:
    """The probed suites' cases (a, b, c), one per probe a in turn: b is the
    probe after a in a's slice, cyclically, and c the probe in a's place as
    the slices take turns (each one's first probe, then each one's second,
    ...), so every probe fills every place and a meets c across slices."""
    probes, slices = tuple(elements), {}
    for i, a in enumerate(probes):
        slices.setdefault(a.dim, []).append(i)
    after, turn = {}, {}
    for s, at in enumerate(slices.values()):
        after.update(zip(at, at[1:] + at[:1]))
        turn.update((i, (k, s)) for k, i in enumerate(at))
    turns = sorted(turn, key=turn.get)
    return [(a, probes[after[i]], probes[turns[i]]) for i, a in enumerate(probes)]


def probe_cases(*sets) -> list:
    """Case i takes entry i of each set, cycling through the shorter sets,
    up to the longest one's length: every entry fills its place."""
    n = max(map(len, sets)) if all(sets) else 0
    return [tuple(s[i % len(s)] for s in sets) for i in range(n)]


class RingMorphism:
    """A dimensioned map that preserves multiplication and the unit."""

    def __init__(self, domain: DimRing, codomain: DimRing, dim_map: Callable,
                 fn: Callable[[DimElement], DimElement], label: str = "morphism"):
        self.domain = domain
        self.codomain = codomain
        self.dim_map = dim_map
        self.fn = fn
        self.label = label

    def __call__(self, a: DimElement) -> DimElement:
        return self.fn(a)

    @staticmethod
    def identity(ring: DimRing) -> "RingMorphism":
        return RingMorphism(ring, ring, _same, _same, "id")

    def compose(self, other: "RingMorphism") -> "RingMorphism":
        return RingMorphism(other.domain, self.codomain, lambda d: self.dim_map(other.dim_map(d)),
                            lambda a: self(other(a)), f"{self.label}∘{other.label}")

    def check(self) -> CheckReport:
        """Morphism laws on the domain's `probe_triples`: the dimension
        square commutes, addition within slices, multiplication, and the
        unit.  The identity (`identity`) holds them by construction: each
        law passes on no case."""
        rep = CheckReport(f"morphism {self.label}")
        dom, cod = self.domain, self.codomain
        trivial = dom is cod and self.fn is _same and self.dim_map is _same

        def additive(a, b, _):
            if self(dom.add(a, b)) != cod.add(self(a), self(b)):
                return f"additivity fails at {a}, {b}"

        def multiplicative(a, _, c):
            if self(dom.mul(a, c)) != cod.mul(self(a), self(c)):
                return f"multiplicativity fails at {a}, {c}"

        cases = () if trivial else probe_triples(dom.probe_elements())
        rep.law("dimension square commutes", cases,
                lambda a, *_: self(a).dim != self.dim_map(a.dim)
                and f"dim({self.label}({a})) != phi({a.dim})")
        rep.law("additive within slices", cases, additive)
        rep.law("multiplicative", cases, multiplicative)
        rep.check("preserves unit", trivial or self(dom.one) == cod.one, f"{self.label}(1) != 1")
        return rep


# ---------------------------------------------------------------------------
# Unit sections
# ---------------------------------------------------------------------------


def multiplicative_section(ring: DimRing, gen_values: dict) -> Callable:
    """Extend values on the free-abelian generators multiplicatively.

    `gen_values[i]` is the section value on the i-th positive unit vector;
    negative exponents use reciprocals, so the ring must be a field.
    """
    if ring.dims.rank is None:
        raise CarrierError("multiplicative extension needs a free abelian monoid")

    def u(d):
        out = ring.one
        for i, n in enumerate(d):
            out = ring.mul(out, ring.pow(gen_values[i], n))
        return out

    return u


def unit_section_check(ring: DimRing, candidate: Callable) -> Checked:
    """Validate a candidate section: it must split the dimension projection,
    never hit a slice zero, and be multiplicative on all probed pairs; the
    unit section is then the candidate itself."""
    rep = CheckReport(f"unit section on {ring.label}")
    # every dimension when finite, else all words of length <= 3
    dims = ring.dims.probe_words(3)
    values = {d: candidate(d) for d in dims}
    rep.law("splits the projection", values.items(),
            lambda d, v: v.dim != d and f"delta(u({d!r})) = {v.dim!r} != {d!r}")
    rep.law("nowhere zero", values.items(),
            lambda d, v: ring.is_zero(v) and f"section hits zero at slice {d!r}")

    # a section is a function of its dimension: evaluate each product once
    def multiplicative(d, e):
        de = ring.dims.combine(d, e)
        if de not in values:
            values[de] = candidate(de)
        if values[de] != ring.mul(values[d], values[e]):
            return f"u({d!r}∘{e!r}) != u({d!r})·u({e!r})"

    rep.law("multiplicative on probed pairs",
            itertools.product(dims, repeat=2), multiplicative)
    return Checked(candidate if rep.ok else None, rep)


def search_unit_section(ring) -> Checked:
    """Exhaustive search for a unit section of a ring that lists its
    `elements()`, each slice's candidates in list order.  Returns a failure
    report naming a slice with no nonzero element, or with no zero, when
    none can exist.
    """
    dims, elems = ring.dims.elements(), ring.elements()
    if dims is None or elems is None:
        raise CarrierError("exhaustive search needs a ring that lists its elements")
    choices = {}
    for d in dims:
        why = f"slice {d!r} contains only its zero"
        try:
            choices[d] = [a for a in elems if a.dim == d and not ring.is_zero(a)]
        except CarrierError as exc:  # the slice has no additive identity
            choices[d], why = [], str(exc)
        if not choices[d]:
            rep = CheckReport(f"unit section search on {ring.label}")
            rep.check("nowhere zero", False, f"{why}; no section can exist")
            return Checked(None, rep)
    for combo in itertools.product(*choices.values()):
        result = unit_section_check(ring, dict(zip(dims, combo)).__getitem__)
        if result.ok:
            break
    return result


# ---------------------------------------------------------------------------
# Slice-wise multiplication and trivialization by units
# ---------------------------------------------------------------------------


class SliceMul(NamedTuple):
    """Multiplication by a fixed nonzero field element, slice e -> slice de."""

    ring: DimRing
    by: DimElement
    src_dim: Any

    @property
    def dst_dim(self):
        return self.ring.dims.combine(self.by.dim, self.src_dim)

    def apply(self, b: DimElement) -> DimElement:
        if b.dim != self.src_dim:
            raise DimensionMismatch(b.dim, self.src_dim, "slice_mul")
        return self.ring.mul(self.by, b)

    def inverse(self) -> "SliceMul":
        return SliceMul(self.ring, self.ring.reciprocal(self.by), self.dst_dim)


def slice_mul(field: DimRing, a: DimElement, e) -> SliceMul:
    if field.is_zero(a):
        raise CarrierError("slice multiplication by zero is not bijective")
    return SliceMul(field, a, e)


class Trivialization(NamedTuple):
    """The isomorphism a unit section induces with the product dimensioned field."""

    product: ProductDimRing
    to_field: RingMorphism     # (r, d) |-> u(d)·r
    from_field: RingMorphism   # a_d |-> (u(d)^-1 · a_d, d)


def units_trivialization(field: DimRing, u: Callable[[Any], DimElement]) -> Trivialization:
    """F ≅ F_1 × D for a dimensioned field F with unit section u: its
    dimensionless field times its dimension group.  Every field dimalg
    builds is a `ProductDimRing`, whose identity slice is Q on Fractions, so
    F_1 × D is `ProductDimRing(Rationals(), D)`, a ring the slot rule decides."""
    if not field.is_field:
        raise CarrierError("trivialization needs a dimensioned field")
    product = ProductDimRing(Rationals(), field.dims, label=f"{field.label}@1x{field.dims.kind}")
    ident = field.dims.identity

    def fwd(a: DimElement) -> DimElement:
        return field.mul(u(a.dim), DimElement(a.value, ident))

    def bwd(a: DimElement) -> DimElement:
        r = field.mul(field.reciprocal(u(a.dim)), a)
        return DimElement(r.value, a.dim)

    to_field = RingMorphism(product, field, lambda d: d, fwd, "Phi_u")
    from_field = RingMorphism(field, product, lambda d: d, bwd, "Phi_u^-1")
    return Trivialization(product, to_field, from_field)


# ---------------------------------------------------------------------------
# Ideals and quotient rings
# ---------------------------------------------------------------------------


class Ideal(NamedTuple):
    """An ideal presented by generators plus a normal-form chooser.

    Membership is decided by the normal form: a is in the ideal exactly
    when nf(a) is the zero of its slice.  Consistency of nf is validated
    on probes when a quotient is constructed, never proved.
    """

    ring: DimRing
    generators: tuple
    normal_form: Callable[[DimElement], DimElement]

    def contains(self, a: DimElement) -> bool:
        return self.ring.is_zero(self.normal_form(a))


def zero_ideal(ring: DimRing) -> Ideal:
    return Ideal(ring, (), lambda a: a)


def whole_ideal(ring: DimRing) -> Ideal:
    return Ideal(ring, (ring.one,), lambda a: ring.zero(a.dim))


class QuotientDimRing(DimRing):
    """Elements are normal forms of the base ring; ops compute then reduce.

    Construction runs the projection's `RingMorphism.check` and the ideal
    law on each base probe times each generator; a witness rejects it."""

    def __init__(self, base: DimRing, ideal: Ideal):
        self.base = base
        self.ideal = ideal
        self.dims = base.dims
        self.commutative = base.commutative
        self.label = f"{base.label}/I"
        rep = self.projection.check()
        products = itertools.product(base.probe_elements(), ideal.generators)
        rep.law("ideal absorbs products", products, lambda c, i:
                not ideal.contains(base.mul(c, i))
                and f"ideal law fails: {c} * {i} leaves the ideal")
        if not rep.ok:
            raise ConstructionError(rep.failures[0].witness)

    def project(self, a: DimElement) -> DimElement:
        return self.ideal.normal_form(a)

    @property
    def projection(self) -> RingMorphism:
        return RingMorphism(self.base, self, lambda d: d, self.project, "q")

    def add(self, a, b):
        return self.project(self.base.add(a, b))

    def neg(self, a):
        return self.project(self.base.neg(a))

    def zero(self, d):
        return self.project(self.base.zero(d))

    def mul(self, a, b):
        return self.project(self.base.mul(a, b))

    @property
    def one(self):
        return self.project(self.base.one)

    def sample(self, rng, dim=None):
        return self.project(self.base.sample(rng, dim=dim))

    def probe_elements(self):
        """The base's probes, projected, each class once."""
        return tuple(dict.fromkeys(map(self.project, self.base.probe_elements())))

    def show(self, a):
        return f"[{self.base.show(a)}]"


quotient_ring = QuotientDimRing


# ---------------------------------------------------------------------------
# The ring axiom suite
# ---------------------------------------------------------------------------


def generating_set(elements, *ops) -> list:
    """A greedy generating set of `elements` under the binary `ops`, each
    of which returns None where it is undefined (a sum across slices):
    each element in turn joins it unless the step closure of those before
    holds it.  The step closure of the generators is the least set that
    holds them and, with each y, op(y, g) and op(g, y) for every op and
    every generator g, so it costs |closure|·|generators| calls per side
    and op, not |closure|².  It lies within the closure under the ops, so
    a set of elements closed under each op (the elements that pass a
    Light's test) holds every element once it holds the generators.
    The turns follow the listed order, but with the idempotents (x·x = x
    under some op: a slice's zero, a monoid's identity, a ring's 0 and 1)
    last, since such an element adds little to a closure that holds other
    elements.  A greedy pass in any order generates, so a cyclic group
    gives one generator whatever its listed order, and a finite group of
    two or more elements never gives its identity."""
    gens, closure = [], set()
    for x in sorted(elements, key=lambda x: any(op(x, x) == x for op in ops)):
        if x in closure:
            continue
        # (y, the generators y steps by): the closure so far by x alone, and
        # x and each new element by every generator
        todo = [(y, (x,)) for y in closure]
        gens.append(x)
        closure.add(x)
        todo.append((x, gens))
        while todo:
            y, by = todo.pop()
            for g in by:
                for op in ops:
                    for p in (op(y, g), op(g, y)):
                        if p is not None and p not in closure:
                            closure.add(p)
                            todo.append((p, gens))
    return gens


def distributivity(ring: DimRing, side: str | None = None) -> Callable:
    """The check of (a+b)c = ac+bc and then c(a+b) = ca+cb, or of the one
    `side`, "left" or "right", on a case (a, b, c) with a and b in one
    slice; a fourth argument `right`, when given, says whether the case
    checks c(a+b) = ca+cb, and a fifth is a+b, formed once by the caller.
    Its witness names the dimensions of ac and bc first when they differ,
    since ac+bc is then undefined."""
    add, mul = ring.add, ring.mul
    left = side != "right"

    def distributive(a, b, c, right=side != "left", ab=None):
        ab, w = add(a, b) if ab is None else ab, ""
        if left:
            ac, bc = mul(a, c), mul(b, c)
            if ac.dim != bc.dim:
                w = f"ac, bc lie over {ac.dim!r} != {bc.dim!r}"
            elif mul(ab, c) != add(ac, bc):
                w = "(a+b)c != ac+bc"
        if right and not w:
            ca, cb = mul(c, a), mul(c, b)
            if ca.dim != cb.dim:
                w = f"ca, cb lie over {ca.dim!r} != {cb.dim!r}"
            elif mul(c, ab) != add(ca, cb):
                w = "c(a+b) != ca+cb"
        return w and f"{w} at {','.join(map(ring.show, (a, b, c)))}"

    return distributive


def slice_group_report(ring: DimRing, slices: dict, adds: Callable) -> CheckReport:
    """The abelian-group laws of every slice of a ring that lists its
    elements, `slices` (dimension -> its elements), decided on the ring's
    own `add`, `zero` and `neg` (a CarrierError from `zero` or `neg` is a
    FAIL), every case but two, each on `adds(d)`, the slice's
    `generating_set` under +:
    associativity is decided by Light's test in each closed slice that has
    an identity, (a+g)+c = a+(g+c) for every a, c and every g of
    `adds(d)`, k·n² cases instead of n³: the g that pass are closed under
    + (Clifford & Preston, 1961), so they are the whole slice.  A slice
    that leaks holds no magma to run it on; its `slices closed under
    addition` FAIL stands for it.  Once associativity has passed,
    commutativity is decided on a+g = g+a for every a and every g of
    `adds(d)` in each closed slice, k·n cases instead of n²: the g that
    pass are closed under +, as a+(g+g') = (a+g)+g' = (g+a)+g' =
    g+(a+g') = g+(g'+a) = (g+g')+a."""
    rep = CheckReport(f"slice groups of {ring.label}")
    add, show = ring.add, ring.show

    def leak(d):
        return next((f"{show(a)}+{show(b)} leaves slice {d!r}"
                     for a, b in itertools.product(slices[d], repeat=2)
                     if add(a, b).dim != d), "")

    def holds(law, *args):
        try:
            return law(*args)
        except CarrierError:
            return False

    def identity(d):
        z = ring.zero(d)
        return all(add(z, x) == x and add(x, z) == x for x in slices[d])

    # the laws after the identity law run on the slices that have an identity
    leaks = {d: leak(d) for d in slices}
    unital = [d for d in slices if holds(identity, d)]
    rep.law("slices closed under addition", zip(slices), leaks.get)
    rep.law("additive identities exist", zip(slices),
            lambda d: d not in unital and f"slice {d!r} has no additive identity")
    rep.law("additive inverses exist", ((d, a) for d in unital for a in slices[d]),
            lambda d, a: not holds(lambda: add(a, ring.neg(a)) == ring.zero(d))
            and f"{show(a)} in slice {d!r} has no inverse")
    rep.law("addition associative",
            ((a, g, c) for d in unital if not leaks[d] for a in slices[d]
             for g in adds(d) for c in slices[d]),
            lambda a, g, c: add(add(a, g), c) != add(a, add(g, c))
            and f"addition not associative at {show(a)},{show(g)},{show(c)}")

    def pairs(by):  # (a, b): a in a slice that has an identity, b in `by` of its dimension
        return ((a, b) for d in unital for a in slices[d] for b in by(d))

    rep.law("addition commutative", pairs(slices.get),
            lambda a, b: add(a, b) != add(b, a)
            and f"addition not commutative at {show(a)},{show(b)}",
            (("addition associative",), lambda: pairs(lambda d: slices[d] if leaks[d] else adds(d))))
    return rep


def ring_axiom_report(ring: DimRing, rng=None, budget: int = 30) -> CheckReport:
    """Run every dimensioned-ring law and report pass/fail with witnesses:
    the dimension monoid's own axioms, the projection being a monoid
    morphism, distributivity wherever addition is defined, absorbency of
    the zero family, unitality, associativity, slice abelian-group axioms
    (plus commutativity when declared), and addition raising across slices.

    A ring that lists its `elements()` is decided in one chain: its slice
    groups (`slice_group_report`) first, and, only if they all pass, the
    ring laws, then the laws of its `unit_candidate` if it declares one.
    `CheckReport.law` runs a ring law on the first of its rows whose
    premises, the laws its theorem rests on, have passed, else on every
    case.  The sets are `generating_set`s, which take their idempotents
    last, so a cyclic slice or group of dimensions gives one generator
    whatever its listed order; K is the union of every slice's additive
    generators, and every element is a sum of generators of its slice:

    * the dimension monoid's associativity by Light's test: (d·g)·f =
      d·(g·f) for every d, f and every g of a generating set, as the g that
      pass are closed under the product (Clifford & Preston, *The Algebraic
      Theory of Semigroups*, vol. 1, 1961).  It runs on every ring whose
      `probe_dims` D are its whole finite monoid;
    * distributivity, decided before the projection and printed after it,
      on (a, b, c) with b over the generators of a's slice.  Fix c: the b
      with (a+b)c = ac+bc for every a are closed under +, since (a+(b+b'))c
      = ((a+b)+b')c = (ac+bc)+b'c = ac+(b+b')c; c(a+b) likewise.  c(a+b) =
      ca+cb runs for c in K alone: where the left law holds, the c that
      pass are closed under +, as (c+c')(a+b) = c(a+b)+c'(a+b) =
      (ca+cb)+(c'a+c'b) = (ca+c'a)+(cb+c'b) = (c+c')a+(c+c')b.  These steps
      need only the slice groups that the chain decides first: no premise;
    * the projection on each slice's first listed element: distributivity's
      check that ac and bc, and ca and cb, lie in one slice makes dim(xy)
      depend on the slices of x and y alone;
    * absorbency on no case: 0·a = (0+0)·a = 0·a+0·a, so 0·a is the zero of
      its slice, a group, and the projection names that slice; a·0 likewise;
    * associativity on K × G × K, G a `generating_set` of the ring under
      products and same-slice sums drawn from K: distributivity makes the
      associator additive in each argument, so the b with (ab)c = a(bc) for
      every a and c of K hold it for every a and c, and they are closed
      under sums and, by Light's argument, under products.  Without it, the
      sums do not split, and Light's test runs with g over a generating set
      of the product;
    * commutativity on K × G, the commutator being additive too: the b that
      commute with every element are closed under sums and, given
      associativity, under products, as a(bb') = (ab)b' = (ba)b' = b(ab') =
      b(b'a) = (bb')a.

    A ring with `slots()` gives each law `SLOT_LAWS` names its slot row,
    the slot rule as a row with no premise (`slot_rows`).  Any other law
    of a ring that does not list its elements is probed on
    E = `ring.probe_elements()` and D = `probe_dims`, on every case of
    those sets, E_d being the probes over d: |D|³ monoid triples (unless
    D is the whole monoid), |E|² for the projection and commutativity,
    |E|·Σ|E_d|² for distributivity, |D|·|E| for the zero family, |E| for
    unitality, |E|³ for associativity, Σ|E_d|² for the slice groups, and
    each probe with each other dimension of D for addition across slices.
    `rng` and `budget` are unread; they go when the benchmark stops
    passing them.
    """
    rep = CheckReport(f"dimensioned ring {ring.label}")
    listed, slots = ring.elements() is not None, ring.slots()
    elems = ring.probe_elements()  # a listed ring's probes are its elements
    slices = {}
    for a in elems:
        slices.setdefault(a.dim, []).append(a)
    # each slice's additive generators, found once per report, and only for a row
    adds = functools.cache(lambda d: generating_set(slices[d], ring.add))
    if listed:
        rep = rep.merged(slice_group_report(ring, slices, adds))
        if not rep.ok:
            return rep
    dims = list(ring.probe_dims())
    comb, show = ring.dims.combine, ring.show

    def law(name, every, check, *rows):  # only a listed ring's laws rest on theorems
        rep.law(name, every, check, *slot_rows(slots, name), *(rows if listed else ()))

    def at(*xs):
        return ",".join(map(show, xs))

    # Light's test wherever the probed dimensions are the whole finite
    # monoid, which is closed; an infinite monoid is probed
    closed = ring.dims.elements() == tuple(dims)
    law("dimension monoid: associativity",
        itertools.product(dims, generating_set(dims, comb) if closed else dims, dims),
        lambda d, e, f: comb(comb(d, e), f) != comb(d, comb(e, f))
        and f"monoid associativity fails at {d!r},{e!r},{f!r}")

    ident = ring.dims.identity
    rep.law("dimension monoid: identity", zip(dims),
            lambda d: (comb(ident, d) != d or comb(d, ident) != d)
            and f"monoid identity fails at {d!r}")

    # K, each slice's additive generators
    spanning = functools.cache(lambda: [g for d in slices for g in adds(d)])

    def distributivity_cases(bs, right):
        """(a, b, c, right(c), a+b) for b in bs(a.dim), each sum formed once."""
        rights = [(c, right(c)) for c in elems]
        for a in elems:
            for b in bs(a.dim):
                ab = ring.add(a, b)
                for c, right_c in rights:
                    yield a, b, c, right_c, ab

    # the cut: b over the generators of a's slice, and c(a+b) = ca+cb for c in K
    law("distributivity where defined", distributivity_cases(slices.__getitem__, lambda c: True),
        distributivity(ring),
        ((), lambda: distributivity_cases(adds, set(spanning()).__contains__)))
    distributive = ("distributivity where defined",)
    law("projection is a monoid morphism", itertools.product(elems, repeat=2),
        lambda a, b: ring.mul(a, b).dim != comb(a.dim, b.dim)
        and f"dim({show(a)}·{show(b)}) != combined dims",
        (distributive, lambda: itertools.product([xs[0] for xs in slices.values()], repeat=2)))
    rep.results.insert(-1, rep.results.pop())  # the projection prints before distributivity

    def absorbent(d, a):
        z = ring.zero(d)
        if ring.mul(z, a) != ring.zero(comb(d, a.dim)):
            return f"0_{d!r}·{show(a)} != 0"
        if ring.mul(a, z) != ring.zero(comb(a.dim, d)):
            return f"{show(a)}·0_{d!r} != 0"

    law("zero family is absorbent", itertools.product(dims, elems), absorbent,
        (("projection is a monoid morphism", *distributive), lambda: ()))

    one = ring.one
    law("unitality", zip(elems),
        lambda a: not (ring.mul(one, a) == a and ring.mul(a, one) == a)
        and f"unit law fails at {show(a)}")

    # G, the ring's generators under products and same-slice sums, drawn from K
    ring_gens = functools.cache(lambda: generating_set(
        spanning(), ring.mul, lambda a, b: ring.add(a, b) if a.dim == b.dim else None))

    def associative(a, b, c, ab=None):  # ab, when given, is a·b, formed once by the caller
        ab = ring.mul(a, b) if ab is None else ab
        if ring.mul(ab, c) != ring.mul(a, ring.mul(b, c)):
            return f"(ab)c != a(bc) at {at(a, b, c)}"

    def associativity_cases():
        """(a, b, c, ab) over every triple of elements, each ab formed once."""
        for a in elems:
            for b in elems:
                ab = ring.mul(a, b)
                for c in elems:
                    yield a, b, c, ab

    law("multiplicative associativity", associativity_cases(), associative,
        (distributive, lambda: itertools.product(spanning(), ring_gens(), spanning())),
        ((), lambda: itertools.product(elems, generating_set(elems, ring.mul), elems)))

    if ring.commutative:
        law("commutativity", itertools.product(elems, repeat=2),
            lambda a, b: ring.mul(a, b) != ring.mul(b, a)
            and f"ab != ba at {at(a, b)}",
            ((*distributive, "multiplicative associativity"),
             lambda: itertools.product(spanning(), ring_gens())),
            (distributive, lambda: itertools.product(spanning(), repeat=2)))

    def abelian(a, b):
        z = ring.zero(a.dim)
        if ring.add(a, b) != ring.add(b, a):
            return f"a+b != b+a at {at(a, b)}"
        if ring.add(ring.add(a, b), b) != ring.add(a, ring.add(b, b)):
            return f"(a+b)+b != a+(b+b) at {at(a, b)}"
        if ring.add(a, z) != a:
            return f"a+0 != a at {show(a)}"
        if ring.add(a, ring.neg(a)) != z:
            return f"a+(-a) != 0 at {show(a)}"

    if not listed:  # a listed ring's slice groups open its report
        pairs = ((a, b) for a in elems for b in slices[a.dim])
        law("slices are abelian groups", pairs, abelian)

    def undefined_across(a, e):
        try:
            s = ring.add(a, ring.zero(e))
        except (DimensionMismatch, DimensionMapMismatch):
            return None
        return f"{show(a)}+0_{e!r} = {show(s)} across slices"

    law("addition is undefined across slices",
        ((a, e) for a in elems for e in dims if e != a.dim), undefined_across)

    if ring.unit_candidate is not None:
        rep = rep.merged(unit_section_check(ring, ring.unit_candidate.__getitem__).report)
    return rep
