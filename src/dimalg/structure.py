"""User-declared finite dimensioned structures and Poisson descriptions.

Structure files declare a finite dimension monoid table, slice element
lists, per-slice addition tables, a global multiplication table, and an
optional unit-section candidate.  Shape problems (missing cells, unknown
names) are input errors; axiom violations are findings reported with
witnesses.  Poisson files declare generators with integer dimension
vectors, the two homogeneous dimensions, a bracket table of polynomial
strings, and an optional monomial ideal.
"""

import math
import random
import reprlib
from fractions import Fraction

from .core import DimElement
from .errors import (
    CarrierError,
    DimensionMismatch,
    ExprSyntaxError,
    InputFormatError,
    load_json,
    require_bits,
    require_terms,
    typed_field,
)
from .exprparse import SYMBOL, eval_tree, parse_poly_expr
from .monoid import DimMonoid
from .report import CheckReport

# perfbench/tracer.py traces `slice_group_report` under this module's name and rebinds
# every dimalg name bound to it, so the calls from `ring_axiom_report` count too.
from .ring import DimRing, ring_axiom_report, slice_group_report


def _resolved(table, order, by_name, what):
    """`table` (row -> column -> cell name) with each cell resolved to its
    element in `by_name`, each row's columns in `order`, in one walk.
    Refuse a table that lacks a row or a cell on `order`, or whose cell is
    not a declared element, naming the first such row, and in it the
    first such cell."""
    keys = set(order)
    if table is None or set(table) != keys:
        raise InputFormatError(f"{what} is not total")
    out = {}
    for a, row in table.items():
        if set(row) != keys:
            raise InputFormatError(f"{what}: row {a!r} is not total")
        try:
            out[a] = {b: by_name[row[b]] for b in order}
        except KeyError:
            c = next(c for c in row.values() if c not in by_name)
            raise InputFormatError(f"{what} references undeclared element {c!r}") from None
    return out


class TableDimRing(DimRing):
    """A finite dimensioned ring given entirely by lookup tables.

    Nothing is assumed about the tables beyond totality: the axiom suite
    decides whether they actually form a dimensioned ring.
    """

    def __init__(self, doc: dict):
        doc = typed_field(doc, dict, "a structure description")
        try:
            mon = typed_field(doc["monoid"], dict, "monoid")
            dim_elems = typed_field(mon["elements"], [str], "monoid elements")
            identity = typed_field(mon["identity"], str, "monoid identity")
            dim_op = typed_field(mon["op"], {str: {str: str}}, "monoid op")
            self.slices = typed_field(doc["slices"], {str: [str]}, "slices")
            self.add_table = typed_field(doc["add"], {str: {str: {str: str}}}, "add")
            self.mul_table = typed_field(doc["mul"], {str: {str: str}}, "mul")
            self.one_name = typed_field(doc["one"], str, "one")
        except KeyError as exc:
            raise InputFormatError(f"structure file missing or malformed field: {exc}") from exc
        self.label = typed_field(doc.get("name", "structure"), str, "name")
        self.commutative = typed_field(doc.get("commutative", True), bool, "commutative")
        cand = doc.get("unit_candidate")
        if cand is not None:
            cand = typed_field(cand, {str: str}, "unit_candidate")

        # shape validation: declared names only, tables total; associativity
        # and the identity law are left to the axiom suite
        for a in dim_elems:
            if set(dim_op.get(a, ())) != set(dim_elems):
                raise InputFormatError(f"monoid row {a!r} is not total")
        try:
            self.dims = DimMonoid.finite(dim_elems, identity, lambda d, e: dim_op[d][e])
        except ValueError as exc:
            raise InputFormatError(f"bad monoid table: {exc}") from exc
        if set(self.slices) != set(dim_elems):
            raise InputFormatError("slices must cover exactly the declared dimensions")
        self.by_name = {}  # element name -> its one DimElement
        for d, xs in self.slices.items():
            if not xs:
                raise InputFormatError(f"slice {d!r} is empty")
            for x in xs:
                if x in self.by_name:
                    where = f"twice in slice {d!r}" if self.by_name[x].dim == d else "in two slices"
                    raise InputFormatError(f"element name {x!r} appears {where}")
                self.by_name[x] = DimElement(x, d)
        # every cell resolved to its element once; a resolved addition row
        # lists its slice in slice order
        add_table = {}
        for d, xs in self.slices.items():
            add_table.update(_resolved(self.add_table.get(d), xs, self.by_name,
                                       f"addition table for slice {d!r}"))
        self.add_table = add_table
        self.mul_table = _resolved(self.mul_table, self.by_name, self.by_name,
                                   "multiplication table")
        if self.one_name not in self.by_name:
            raise InputFormatError(f"declared unit {self.one_name!r} is not an element")
        if cand is not None:
            missing = set(dim_elems) - set(cand)
            if missing:
                raise InputFormatError(f"unit candidate misses dimensions {sorted(missing)}")
            unknown = set(cand) - set(dim_elems)
            if unknown:
                raise InputFormatError(f"unit candidate names unknown dimensions {sorted(unknown)}")
            for x in cand.values():
                if x not in self.by_name:
                    raise InputFormatError(f"unit candidate names unknown element {x!r}")
            self.unit_candidate = {d: self.el(x) for d, x in cand.items()}

        self._zeros = self._find_zeros()

    def _find_zeros(self) -> dict:
        """Each slice's first element, in slice order, that is a two-sided
        identity of its addition."""
        add, zeros = self.add_table, {}
        for d, xs in self.slices.items():
            for z in xs:
                if all(add[z][x].value == x == add[x][z].value for x in xs):
                    zeros[d] = self.by_name[z]
                    break
        return zeros

    # -- DimRing protocol ---------------------------------------------------
    def el(self, name: str) -> DimElement:
        return self.by_name[name]

    def add(self, a, b):
        if a.dim != b.dim:
            raise DimensionMismatch(a.dim, b.dim, self.label)
        return self.add_table[a.value][b.value]

    def neg(self, a):
        """The first x in slice order with a + x = 0."""
        z = self.zero(a.dim)  # raises where the slice has no identity
        x = next((x for x, s in self.add_table[a.value].items() if s == z), None)
        if x is None:
            raise CarrierError(f"{a.value!r} has no additive inverse")
        return self.el(x)

    def zero(self, d):
        z = self._zeros.get(d)
        if z is None:
            raise CarrierError(f"slice {d!r} has no additive identity")
        return z

    def mul(self, a, b):
        return self.mul_table[a.value][b.value]

    @property
    def one(self):
        return self.el(self.one_name)

    def sample(self, rng: random.Random, dim=None):
        d = dim if dim is not None else self.dims.sample(rng)
        return self.el(rng.choice(self.slices[d]))

    def elements(self):
        return tuple(self.by_name.values())

    def show(self, a):
        return str(a.value)


def structure_axiom_report(ring: TableDimRing) -> CheckReport:
    """The full suite for a declared structure: `ring_axiom_report`'s chain of
    slice-group laws, ring laws and unit-section candidate."""
    return ring_axiom_report(ring)


def load_structure(source) -> TableDimRing:
    return TableDimRing(load_json(source))


def check_structure(source):
    """Load and check a structure file.

    Returns (exit_code, lines): 0 all laws pass, 1 an axiom fails.
    Input-shape errors raise InputFormatError (the CLI maps them to 2).
    """
    ring = load_structure(source)
    rep = structure_axiom_report(ring)
    return (0 if rep.ok else 1), rep.lines()


# ---------------------------------------------------------------------------
# Polynomial parsing and Poisson descriptions
# ---------------------------------------------------------------------------


def parse_poly(ring: "GradedPolyRing", src: str) -> DimElement:
    """Evaluate a polynomial expression over a graded ring's generators.

    A coefficient beyond errors.MAX_VALUE_BITS, or a product or power
    that may have more than errors.MAX_POLY_TERMS terms, is an
    InputFormatError, refused before it is computed."""
    tree = parse_poly_expr(src, known_symbol=lambda s: s in ring.index)

    def bounded(op):
        def run(a, b):
            out = op(a, b)
            for _, c in out.value:
                require_bits(c)
            return out

        return run

    def product(a, b):
        require_terms(len(a.value) * len(b.value))
        return ring.mul(a, b)

    def power(base, n):
        # the lex-first and lex-last terms of base^n are those of base to the n
        for _, c in base.value[:1] + base.value[-1:]:
            require_bits(c, n)
        if n >= 0:
            # a sum of t monomials to the n has at most C(t+n-1, n) terms, and
            # ring.pow forms one coefficient product for each of them
            require_terms(math.comb(max(len(base.value), 1) + n - 1, n))
            return ring.pow(base, n)
        if ring.is_unit(base):
            c = base.value[0][1]
            return ring.constant(Fraction(1) / c ** (-n))
        raise CarrierError("negative powers are only defined for constants")

    def div(a, b):
        if not ring.is_unit(b):
            raise CarrierError("division is only defined by nonzero constants")
        return ring.scale(1 / b.value[0][1], a)

    return eval_tree(
        tree,
        leaf_number=ring.constant,
        leaf_symbol=lambda name, pos: ring.generator(name),
        add=bounded(ring.add),
        sub=bounded(ring.sub),
        mul=bounded(product),
        div=bounded(div),
        power=bounded(power),
    )


def load_poisson(source, validate: bool = True):
    """Build a DimPoisson (plus its declared ideal) from a JSON document."""
    # `dimalg check` loads neither the Poisson nor the polynomial layer
    from .poisson import make_poisson
    from .poly import GradedPolyRing

    doc = typed_field(load_json(source), dict, "a Poisson description")
    try:
        gens = []
        for g in typed_field(doc["generators"], [dict], "generators"):
            name = typed_field(g["name"], str, "generator name")
            if not SYMBOL.fullmatch(name):
                raise InputFormatError(f"generator name {reprlib.repr(name)} is not a name "
                                       f"expressions can use ({SYMBOL.pattern})")
            gens.append((name, typed_field(g["dim"], [int], f"dim of generator {name!r}")))
    except KeyError as exc:
        raise InputFormatError(f"bad generators field: missing {exc}") from exc
    if not gens:
        raise InputFormatError("a Poisson description needs generators")
    try:
        ring = GradedPolyRing([n for n, _ in gens], [d for _, d in gens])
    except CarrierError as exc:
        raise InputFormatError(f"bad generators field: {exc}") from exc

    def poly_of(text):
        try:
            return parse_poly(ring, text)
        except (CarrierError, DimensionMismatch, ExprSyntaxError, InputFormatError) as exc:
            raise InputFormatError(f"bad polynomial {reprlib.repr(text)}: {exc}") from exc

    table = {}
    for key, text in typed_field(doc.get("bracket", {}), {str: str}, "bracket").items():
        names = [s.strip() for s in key.split(",")]
        if len(names) != 2 or any(n not in ring.index for n in names):
            raise InputFormatError(f"bad bracket key {reprlib.repr(key)}: expected 'x,y'")
        table[(names[0], names[1])] = poly_of(text)

    product_dim = tuple(typed_field(doc.get("product_dim", [0] * ring.rank), [int], "product_dim"))
    bracket_dim = doc.get("bracket_dim")
    if bracket_dim is not None:
        bracket_dim = typed_field(bracket_dim, [int], "bracket_dim")
    scale = poly_of(typed_field(doc["scale"], str, "scale")) if "scale" in doc else None

    ideal = list(typed_field(doc.get("ideal", []), [str], "ideal"))
    for name in ideal:
        if name not in ring.index:
            raise InputFormatError(f"ideal names unknown generator {reprlib.repr(name)}")

    if len(product_dim) != ring.rank:
        raise InputFormatError(
            f"product_dim has {len(product_dim)} exponents, expected {ring.rank}")
    if scale is None and any(product_dim):
        raise InputFormatError("a nonzero product_dim needs a scale")
    if scale is not None and scale.dim != product_dim:
        raise InputFormatError(f"scale sits at {scale.dim}, not at product_dim {product_dim}")
    poisson = make_poisson(ring, table, bracket_dim=bracket_dim, scale=scale, validate=validate)
    return poisson, ideal
