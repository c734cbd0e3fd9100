"""Dimension monoids.

A dimension monoid is the algebra carried by the set of dimensions of a
dimensioned multiplication: a totally-defined associative unital product.
There are two representations:

* free abelian -- ``free_abelian(k)``: integer exponent vectors of length
  k under addition (a group), computed on the vectors;
* finite -- an ordered element tuple with a Cayley table built once, at
  construction.  ``cyclic(n)`` (integers mod n, a group), ``trivial()``,
  ``map_monoid(base)`` (all self-maps of a finite set under composition;
  not a group) and ``finite(...)`` (a declared table, such as a structure
  file's, whose laws are left to the axiom suites) all compile to it.

Map-monoid elements are tuples of images aligned with ``base``:
``f[i]`` is the image of ``base[i]``; combining is function composition
``combine(f, g) = f after g``.  A value is in a finite monoid when it
equals an element of the same type (``True`` is in ``cyclic(2)``, ``1.0``
is not).  ``kind`` is only a display name, as in the label ``Qxcyclic``.
"""

import itertools
import operator

from .errors import CarrierError

FREE_ABELIAN = "free_abelian"
CYCLIC = "cyclic"
TRIVIAL = "trivial"
MAP = "map"
TABLE = "table"

# A Cayley table of n elements has n*n cells; this bounds its memory.
MAX_TABLE_CELLS = 1 << 20

_is_int = int.__instancecheck__  # isinstance(c, int), without a generator


class DimMonoid:
    """Free abelian of `rank` k when `elements` is None; otherwise finite,
    with `rank` None and a table `_table[x][y] = x*y` whose lookup also
    checks membership.  Build one with the named constructors."""

    def __init__(self, kind: str, rank=None, elements=None, op=None,
                 identity=(), is_group: bool = True):
        self.kind, self.rank, self.identity, self.is_group = kind, rank, identity, is_group
        self._table = None
        if elements is None:
            self._elements = ((),) if rank == 0 else None
            self._key = (kind, rank)
            return
        self._elements = elements = tuple(elements)
        if len(elements) ** 2 > MAX_TABLE_CELLS:
            raise ValueError(f"{len(elements)} elements exceed {MAX_TABLE_CELLS} table cells")
        canon = {x: x for x in elements}  # products resolve to the listed objects
        if len(canon) != len(elements) or identity not in canon:
            raise ValueError(f"elements must be distinct and include the identity {identity!r}")
        self._table = table = {x: {} for x in elements}
        for x, y in itertools.product(elements, repeat=2):
            z = op(x, y)
            if z not in canon:
                raise ValueError(f"{x!r}*{y!r} = {z!r} is not an element")
            table[x][y] = canon[z]
        types = {type(x) for x in elements}
        self._type = types.pop() if len(types) == 1 else object
        if is_group:
            self._inverse = {}
            for x in elements:
                inv = [y for y in elements if table[x][y] == identity == table[y][x]]
                if not inv:
                    raise ValueError(f"{x!r} has no inverse, so this is not a group")
                self._inverse[x] = inv[0]
        cells = tuple(tuple(row.values()) for row in table.values())
        self._key = (kind, elements, identity, is_group, cells)

    # -- constructors ------------------------------------------------
    @staticmethod
    def free_abelian(rank: int) -> "DimMonoid":
        if rank < 0:
            raise ValueError("rank must be >= 0")
        return DimMonoid(FREE_ABELIAN, rank=rank, identity=(0,) * rank)

    @staticmethod
    def cyclic(order: int) -> "DimMonoid":
        if order < 1:
            raise ValueError("order must be >= 1")
        return DimMonoid.finite(range(order), 0, lambda x, y: (x + y) % order, CYCLIC, True)

    @staticmethod
    def trivial() -> "DimMonoid":
        return DimMonoid.finite(((),), (), lambda x, y: (), TRIVIAL, True)

    @staticmethod
    def map_monoid(base) -> "DimMonoid":
        base = tuple(base)
        if not base:
            raise ValueError("map monoid needs a non-empty base set")
        index = {v: i for i, v in enumerate(base)}
        return DimMonoid.finite(
            itertools.product(base, repeat=len(base)),
            base,
            lambda f, g: tuple(f[index[v]] for v in g),
            MAP,
        )

    @staticmethod
    def finite(elements, identity, op, kind: str = TABLE, is_group: bool = False) -> "DimMonoid":
        """The monoid on `elements` (in enumeration order) with product
        `op(x, y)`, tabulated once; a group needs two-sided inverses."""
        return DimMonoid(kind, elements=elements, op=op, identity=identity, is_group=is_group)

    # -- value semantics ------------------------------------------------
    def __eq__(self, other):
        return self is other or (isinstance(other, DimMonoid) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self._table is None:
            return f"DimMonoid({self.kind}, rank {self.rank})"
        return f"DimMonoid({self.kind}, {len(self._elements)} elements)"

    # -- structure ----------------------------------------------------
    def contains(self, x) -> bool:
        if self._table is None:
            return (
                isinstance(x, tuple)
                and len(x) == self.rank
                and all(map(_is_int, x))
            )
        try:
            return x in self._table and isinstance(x, self._type)
        except TypeError:  # unhashable, so not an element
            return False

    def _require(self, x):
        if not self.contains(x):
            raise CarrierError(f"{x!r} is not an element of {self}")

    def combine(self, x, y):
        table = self._table
        if table is None:
            # contains(x) and contains(y), inline: this is the hot path
            if not (isinstance(x, tuple) and isinstance(y, tuple)
                    and len(x) == len(y) == self.rank
                    and all(map(_is_int, x)) and all(map(_is_int, y))):
                self._require(x)
                self._require(y)
            return tuple(map(operator.add, x, y))
        try:
            if isinstance(x, self._type) and isinstance(y, self._type):
                return table[x][y]
        except (KeyError, TypeError):
            pass
        # the lookup failed, so x or y is not an element: name it
        self._require(x)
        self._require(y)

    def inverse(self, x):
        self._require(x)
        if self._table is None:
            return tuple(-c for c in x)
        if not self.is_group:
            raise CarrierError(f"{self.kind} monoids do not carry inverses")
        return self._inverse[x]

    # -- enumeration and probing --------------------------------------
    def elements(self):
        """All elements in enumeration order; None for free abelian of rank > 0."""
        return self._elements

    def probe_words(self, length: int = 3) -> tuple:
        """Every element of a finite monoid; otherwise all products of at
        most `length` generators and their inverses (plus the identity).
        This is the documented probe set for laws over the whole monoid."""
        if self._elements is not None:
            return self._elements
        units = [tuple(int(j == i) for j in range(self.rank)) for i in range(self.rank)]
        gens = [v for u in units for v in (u, tuple(-c for c in u))]
        seen, frontier = {self.identity}, {self.identity}
        for _ in range(length):
            frontier = {self.combine(w, g) for w in frontier for g in gens}
            seen |= frontier
        return tuple(sorted(seen))
