"""Seeded inputs and independent reference answers for the dimalg benchmark.

Nothing in this module imports dimalg.  Every expected answer is computed
here with plain `fractions.Fraction` arithmetic, the `decimal` module,
closed forms, or from how an input was built, so a wrong answer from the
library cannot also hide in its reference.
"""

import itertools
import json
import math
import re
from decimal import ROUND_HALF_EVEN, Context, Decimal, Inexact
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SI_DEMO = ROOT / "data" / "registries" / "si_demo.json"
GOLDEN_STRUCTURE = ROOT / "data" / "structures" / "product_ring_mod5_z2.json"
CANONICAL_QP = ROOT / "data" / "poisson" / "canonical_qp.json"
CANONICAL_4GEN = ROOT / "data" / "poisson" / "canonical_4gen.json"

# Literal and exponent bounds: evaluation of `2^99999999 m` does not
# terminate in the library (a robustness bug, not traffic to model).
BIG_EXPS = (12, 20, 30, 45, 60, 80, 100, 120, 150, 200)


# ---------------------------------------------------------------------------
# Unit tables
# ---------------------------------------------------------------------------


class UnitTable:
    """The generator's own registry: symbol -> (exponent vector, factor)."""

    def __init__(self, base, units):
        self.base = tuple(base)
        self.units = dict(units)
        self.families = {}
        for sym, (dims, _) in self.units.items():
            self.families.setdefault(dims, []).append(sym)

    def doc(self) -> dict:
        return {
            "base": list(self.base),
            "units": [
                {"symbol": s, "dims": list(d), "factor": f"{f.numerator}/{f.denominator}"}
                for s, (d, f) in self.units.items()
            ],
        }

    def dims_of(self, unit) -> tuple:
        out = [0] * len(self.base)
        for s, e in unit:
            for i, x in enumerate(self.units[s][0]):
                out[i] += e * x
        return tuple(out)

    def factor_of(self, unit) -> Fraction:
        out = Fraction(1)
        for s, e in unit:
            out *= self.units[s][1] ** e
        return out

    def dim_name(self, dims) -> str:
        parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(self.base, dims) if e]
        return "·".join(parts) if parts else "dimensionless"


def si_demo_table() -> UnitTable:
    doc = json.loads(SI_DEMO.read_text())
    return UnitTable(
        doc["base"],
        {u["symbol"]: (tuple(u["dims"]), Fraction(u["factor"])) for u in doc["units"]},
    )


BASE_NAMES = ("length", "mass", "time", "current", "temperature", "amount", "luminosity")
COHERENT = ("m", "kg", "s", "A", "K", "mol", "cd")
FACTOR_DENS = (1, 2, 3, 4, 5, 8, 10, 12, 16, 60, 100, 1000, 3600)
# Loading a registry validates its unit section on every pair of probe
# dimensions, which grows steeply with the rank: rank 4 loads in about
# 0.9 s, rank 7 in about 44 s on the reference machine, so rank 7 would
# not fit one set-up, let alone one command, in a run.
SEEDED_RANK = 4


def _rand_factor(rng, slot: int, allow_one=True) -> Fraction:
    """A three-digit numerator over the slot's denominator: the sizes of
    the factors, which set the cost of big powers, are the same for every
    seed; their digits are not."""
    while True:
        f = Fraction(rng.randint(100, 999), FACTOR_DENS[slot % len(FACTOR_DENS)])
        if allow_one or f != 1:
            return f


def seeded_table(rng) -> UnitTable:
    """SEEDED_RANK base dimensions with their coherent units, two scaled
    units per base dimension, and five derived families of three units
    each."""
    rank = SEEDED_RANK
    names = iter(f"u{i}" for i in rng.sample(range(100, 1000), 60))
    units = {}
    for i, sym in enumerate(COHERENT[:rank]):
        e_i = tuple(int(j == i) for j in range(rank))
        units[sym] = (e_i, Fraction(1))
        for _ in range(2):
            units[next(names)] = (e_i, _rand_factor(rng, len(units), allow_one=False))
    derived = set()
    while len(derived) < 5:
        d = [0] * rank
        for i in rng.sample(range(rank), rng.randint(2, 3)):
            d[i] = rng.choice((-2, -1, 1, 2))
        derived.add(tuple(d))
    for d in sorted(derived):
        for _ in range(3):
            units[next(names)] = (d, _rand_factor(rng, len(units)))
    return UnitTable(BASE_NAMES[:rank], units)


# ---------------------------------------------------------------------------
# Quantity expressions: a tree of our own, its text, and its exact value
# ---------------------------------------------------------------------------
# Nodes: ("num", Fraction, text) | ("sym", name) | ("pow", node, n)
#        | (op, left, right) with op in "+-*/".
# The text renders so that the library's grammar parses it back to the
# same tree, which matters because a sum shows its left operand's unit.


def unit_mul(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """Display-unit product: order of first appearance, zeros dropped."""
    acc = dict(a)
    order = [s for s, _ in a]
    for s, e in b:
        if s not in acc:
            order.append(s)
            acc[s] = 0
        acc[s] += sign * e
    return tuple((s, acc[s]) for s in order if acc[s] != 0)


def unit_pow(a: tuple, n: int) -> tuple:
    return tuple((s, e * n) for s, e in a if e * n != 0)


def render_unit(unit: tuple) -> str:
    out = "*".join(s if e == 1 else f"{s}^{e}" for s, e in unit if e > 0)
    for s, e in unit:
        if e < 0:
            out += f"/{s}" if e == -1 else f"/{s}^{-e}"
    return out


class Mismatch(Exception):
    """The reference's own cross-dimension signal."""


def evaluate(node, table: UnitTable):
    """(coherent value, exponent vector, display unit) of a tree."""
    kind = node[0]
    if kind == "num":
        return node[1], (0,) * len(table.base), ()
    if kind == "sym":
        dims, factor = table.units[node[1]]
        return factor, dims, ((node[1], 1),)
    if kind == "pow":
        v, d, u = evaluate(node[1], table)
        n = node[2]
        return v**n, tuple(x * n for x in d), unit_pow(u, n)
    lv, ld, lu = evaluate(node[1], table)
    rv, rd, ru = evaluate(node[2], table)
    if kind in "+-":
        if ld != rd:
            raise Mismatch(ld, rd)
        return (lv + rv if kind == "+" else lv - rv), ld, lu
    if kind == "*":
        return lv * rv, tuple(x + y for x, y in zip(ld, rd)), unit_mul(lu, ru)
    return lv / rv, tuple(x - y for x, y in zip(ld, rd)), unit_mul(lu, ru, -1)


def _is_atom(node) -> bool:
    return node[0] in ("num", "sym") or (node[0] == "pow" and node[1][0] in ("num", "sym"))


def render(node) -> str:
    kind = node[0]
    if kind == "num":
        return node[2]
    if kind == "sym":
        return node[1]
    if kind == "pow":
        base = render(node[1]) if node[1][0] in ("num", "sym") else f"({render(node[1])})"
        return f"{base}^{node[2]}"
    if node[3:] == ("term",):
        return _render_term(node)
    left = render(node[1])
    right = render(node[2])
    if kind in "*/":
        if node[1][0] in "+-":
            left = f"({left})"
        if not _is_atom(node[2]):
            right = f"({right})"
    elif node[2][0] in "+-":
        right = f"({right})"
    return f"{left} {kind} {right}"


def _factor_text(sym, e) -> str:
    return sym if e == 1 else f"{sym}^{e}"


def _render_term(node) -> str:
    # number, then juxtaposed positive factors, then "/factor" each
    pos, neg = [], []
    while node[0] != "num":
        op, left, right = node[0], node[1], node[2]
        sym, e = (right[1], 1) if right[0] == "sym" else (right[1][1], right[2])
        (pos if op == "*" else neg).insert(0, _factor_text(sym, e))
        node = left
    text = node[2]
    if pos:
        text += " " + " ".join(pos)
    return text + "".join(f"/{f}" for f in neg)


def make_term(value_text: str, unit: tuple):
    """The tree the grammar builds for `2.2 L/min`: juxtaposed factors
    multiply the number, each `/factor` divides."""
    node = ("num", Fraction(value_text), value_text)
    pos = [(s, e) for s, e in unit if e > 0]
    neg = [(s, -e) for s, e in unit if e < 0]
    for s, e in pos:
        node = ("*", node, ("sym", s) if e == 1 else ("pow", ("sym", s), e), "term")
    for s, e in neg:
        node = ("/", node, ("sym", s) if e == 1 else ("pow", ("sym", s), e), "term")
    return node


def _literal(rng, lo_int=0, hi_int=999) -> str:
    whole = rng.randint(lo_int, hi_int)
    decimals = rng.choice((0, 0, 1, 2, 3))
    if decimals == 0:
        return str(max(whole, 1))
    frac = rng.randint(1, 10**decimals - 1)
    return f"{whole}.{frac:0{decimals}d}"


def _rand_unit(rng, table: UnitTable, nfactors=None) -> tuple:
    syms = list(table.units)
    n = nfactors or rng.choice((1, 1, 2, 2, 3))
    unit = ()
    for s in rng.sample(syms, n):
        unit = unit_mul(unit, ((s, rng.choice((1, 1, 1, 2, 3, -1, -1, -2))),))
    return unit or ((syms[0], 1),)


def _same_dims_unit(rng, table: UnitTable, unit: tuple) -> tuple:
    """Swap every symbol for a random one of its family (same dims)."""
    out = ()
    for s, e in unit:
        alt = rng.choice(table.families[table.units[s][0]])
        out = unit_mul(out, ((alt, e),))
    return out


def _other_dims_unit(rng, table: UnitTable, unit: tuple) -> tuple:
    dims = table.dims_of(unit)
    while True:
        other = _rand_unit(rng, table)
        if table.dims_of(other) != dims:
            return other


def _term(rng, table, unit=None):
    return make_term(_literal(rng), unit if unit is not None else _rand_unit(rng, table))


def _sum_of(rng, table, unit, count):
    node = _term(rng, table, unit)
    for _ in range(count - 1):
        op = rng.choice("++-")
        node = (op, node, _term(rng, table, _same_dims_unit(rng, table, unit) or unit))
    return node


def _positive_sum(rng, table, unit):
    node = _term(rng, table, unit)
    return ("+", node, _term(rng, table, _same_dims_unit(rng, table, unit) or unit))


def _expr_of_kind(rng, table: UnitTable, kind: str):
    if kind == "sum":
        return _sum_of(rng, table, _rand_unit(rng, table), rng.choice((2, 2, 3)))
    if kind == "product":
        shape = rng.randrange(3)
        a, b = _term(rng, table), _term(rng, table)
        if shape == 0:
            return ("*", a, b)
        if shape == 1:
            return ("/", a, b)
        return ("/", a, _positive_sum(rng, table, _rand_unit(rng, table)))
    if kind == "power_small":
        n = rng.choice((-3, -2, -1, 2, 3))
        base = make_term(_literal(rng, 1, 99), _rand_unit(rng, table, 1))
        if rng.random() < 0.5:
            return ("pow", base, n)
        return ("*", _term(rng, table), ("pow", base, n))
    if kind == "mismatch":
        unit = _rand_unit(rng, table)
        bad = ("+", _term(rng, table, unit), _term(rng, table, _other_dims_unit(rng, table, unit)))
        return bad if rng.random() < 0.5 else ("*", _term(rng, table), bad)
    raise ValueError(kind)


def _big_power(rng, table: UnitTable, n: int):
    base_text = f"{rng.randint(1, 9)}.{rng.randint(1, 99):02d}"
    return ("pow", make_term(base_text, _rand_unit(rng, table, 1)), n)


def render_decimal(x: Fraction, digits: int = 4) -> str:
    """`digits` significant digits, ties to even, trailing zeros kept,
    computed with the decimal module (never floats)."""
    if x == 0:
        return "0"
    prec = 60 + len(str(x.numerator)) + len(str(x.denominator))
    while True:
        ctx = Context(prec=prec)
        q = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
        tail = q.as_tuple().digits[digits:]
        ambiguous = ctx.flags[Inexact] and tail and tail[0] in (4, 5) and all(
            t == (0 if tail[0] == 5 else 9) for t in tail[1:]
        )
        if not ambiguous:
            break
        prec *= 2
    r = Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(q)
    r = r.quantize(Decimal(1).scaleb(r.adjusted() - digits + 1))
    return format(r, "f")


class QuantityCase:
    """One calculator question with its reference answer."""

    __slots__ = ("registry", "text", "target", "kind", "expected", "error")

    def __init__(self, registry, text, target, kind, expected, error=None):
        self.registry = registry   # "si" or "seeded"
        self.text = text
        self.target = target       # unit text for `--to`, or None
        self.kind = kind
        self.expected = expected   # output line, or None for a mismatch
        self.error = error         # the mismatch message, or None

    def __repr__(self):
        return f"QuantityCase{(self.registry, self.text, self.target, self.expected, self.error)}"


# Kinds per block of 20 questions: 4 sums, 4 products and quotients, 4
# small powers, 1 big power, 5 conversions, 2 cross-dimension sums.
QUANTITY_BLOCK = (
    ("sum", 4), ("product", 4), ("power_small", 4), ("power_big", 1),
    ("convert", 5), ("mismatch", 2),
)


def quantity_cases(rng, tables: dict, blocks: int) -> list:
    """`blocks` x 20 questions alternating between the registries; the big
    powers cycle through BIG_EXPS with seeded signs and bases."""
    cases = []
    big = itertools.cycle(BIG_EXPS)
    for b in range(blocks):
        reg = ("si", "seeded")[b % 2]
        table = tables[reg]
        for kind, count in QUANTITY_BLOCK:
            for _ in range(count):
                cases.append(_quantity_case(rng, reg, table, kind, big))
    rng.shuffle(cases)
    return cases


def _quantity_case(rng, reg, table, kind, big):
    while True:
        target = None
        if kind == "power_big":
            tree = _big_power(rng, table, next(big) * rng.choice((1, -1)))
        elif kind == "convert":
            tree = _expr_of_kind(rng, table, rng.choice(("sum", "product", "power_small")))
        else:
            tree = _expr_of_kind(rng, table, kind)
        try:
            value, dims, unit = evaluate(tree, table)
        except Mismatch as exc:
            left, right = (table.dim_name(d) for d in exc.args)
            error = f"cannot add: undefined across dimensions {left!r} and {right!r}"
            return QuantityCase(reg, render(tree), None, kind, None, error)
        if kind == "mismatch":
            continue
        if kind == "convert":
            if not unit:
                continue
            target_unit = _same_dims_unit(rng, table, unit)
            if not target_unit:
                continue
            target = " ".join(_factor_text(s, e) for s, e in target_unit)
            unit = target_unit
        shown = value / table.factor_of(unit)
        expected = f"{render_decimal(shown)} {render_unit(unit)}".strip()
        return QuantityCase(reg, render(tree), target, kind, expected)


# ---------------------------------------------------------------------------
# Finite structures: product rings Z/n x Z/m as declared tables
# ---------------------------------------------------------------------------

# every Z/n x Z/m with n, m >= 2 and 10 to 28 elements, so that the
# verdict costs, which grow with the size, form a fine ladder
TABLE_SIZES = tuple(sorted(((n, m) for n in range(2, 15) for m in range(2, 15)
                            if 10 <= n * m <= 28), key=lambda s: (s[0] * s[1], s)))
TINY_TABLE_SIZES = ((5, 2), (5, 4))
# `mutate` also makes "mul_cell_other_slice", a cell moved to another
# slice; the workload leaves it out because check_structure raises
# DimensionMismatch on many such tables instead of reporting FAIL, and a
# benchmark operation must not fail (test_perfbench.py keeps the defect
# as a strict expected failure)
MUTATIONS = ("mul_cell_same_slice", "mul_pair", "add_cell", "monoid_cell")


def product_ring_doc(n: int, m: int, rng, name: str) -> dict:
    """The product ring of Z/n with the cyclic dimension monoid Z/m, with
    seeded labels and seeded slice and element order."""
    labels = [f"d{k}" for k in rng.sample(range(10 * m), m)]
    # label of dimension d is labels[d]; dimension 0 is the identity
    def el(r, d):
        return f"{r}@{labels[d]}"

    dim_order = rng.sample(range(m), m)
    slices = {labels[d]: [el(r, d) for r in rng.sample(range(n), n)] for d in dim_order}
    add = {
        labels[d]: {el(r, d): {el(s, d): el((r + s) % n, d) for s in range(n)} for r in range(n)}
        for d in dim_order
    }
    elems = [(r, d) for d in dim_order for r in range(n)]
    mul = {
        el(r, d): {el(s, e): el((r * s) % n, (d + e) % m) for s, e in elems}
        for r, d in elems
    }
    return {
        "name": name,
        "kind": "ring",
        "monoid": {
            "elements": [labels[d] for d in dim_order],
            "identity": labels[0],
            "op": {labels[d]: {labels[e]: labels[(d + e) % m] for e in range(m)} for d in range(m)},
        },
        "slices": slices,
        "add": add,
        "mul": mul,
        "one": el(1 % n, 0),
        "unit_candidate": {labels[d]: el(1 % n, d) for d in range(m)},
        "commutative": True,
    }


def mutate(doc: dict, kind: str, rng) -> dict:
    """A copy with one seeded defect that no dimensioned ring can have:
    one multiplication cell moved to another element of its slice or of
    another slice, a symmetric pair of multiplication cells changed
    together (so commutativity still holds), one addition cell, or one
    dimension-monoid cell."""
    out = json.loads(json.dumps(doc))
    dim_of = {x: d for d, xs in out["slices"].items() for x in xs}
    names = list(dim_of)
    if kind.startswith("mul_"):
        x, y = rng.choice(names), rng.choice(names)
        true = out["mul"][x][y]
        same = [z for z in out["slices"][dim_of[true]] if z != true]
        if kind == "mul_cell_other_slice":
            out["mul"][x][y] = rng.choice([z for z in names if dim_of[z] != dim_of[true]])
        elif kind == "mul_cell_same_slice":
            out["mul"][x][y] = rng.choice(same)
        elif kind == "mul_pair":
            out["mul"][x][y] = out["mul"][y][x] = rng.choice(same)
        else:
            raise ValueError(kind)
    elif kind == "add_cell":
        d = rng.choice(list(out["slices"]))
        xs = out["slices"][d]
        x, y = rng.choice(xs), rng.choice(xs)
        true = out["add"][d][x][y]
        out["add"][d][x][y] = rng.choice([z for z in xs if z != true])
    elif kind == "monoid_cell":
        dims = out["monoid"]["elements"]
        d, e = rng.choice(dims), rng.choice(dims)
        true = out["monoid"]["op"][d][e]
        out["monoid"]["op"][d][e] = rng.choice([f for f in dims if f != true])
    else:
        raise ValueError(kind)
    out["name"] += f"-{kind}"
    return out


def structure_cases(rng, sizes) -> list:
    """(doc, expected exit code) per table: each size valid, plus one
    mutant whose kind depends on the size's position, not on the seed, so
    every seed gets the same mix of defects."""
    cases = []
    for i, (n, m) in enumerate(sizes):
        doc = product_ring_doc(n, m, rng, f"Z{n}xZ{m}")
        cases.append((doc, 0))
        cases.append((mutate(doc, MUTATIONS[i % len(MUTATIONS)], rng), 1))
    return cases


# ---------------------------------------------------------------------------
# Canonical Poisson algebras
# ---------------------------------------------------------------------------

SCALED_PAIR = (
    {
        "generators": [{"name": "a1", "dim": [1]}, {"name": "a2", "dim": [-1]},
                       {"name": "z", "dim": [1]}],
        "product_dim": [1],
        "scale": "z",
        "bracket": {"a1,a2": "z^2"},
    },
    {
        "generators": [{"name": "b1", "dim": [2]}, {"name": "b2", "dim": [-2]},
                       {"name": "w", "dim": [1]}],
        "product_dim": [3],
        "scale": "w^3",
        "bracket": {"b1,b2": "w^4"},
    },
)


def canonical_doc(n: int, rank: int, rng) -> dict:
    """{q_i, p_i} = 1 on 2n generators with seeded dimension vectors."""
    gens = []
    for i in range(1, n + 1):
        v = [0] * rank
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(rank)]
        gens.append({"name": f"q{i}", "dim": v})
        gens.append({"name": f"p{i}", "dim": [-x for x in v]})
    return {
        "generators": gens,
        "product_dim": [0] * rank,
        "bracket_dim": [0] * rank,
        "bracket": {f"q{i},p{i}": "1" for i in range(1, n + 1)},
        "ideal": ["q1"],
    }


def gen_names(doc) -> list:
    return [g["name"] for g in doc["generators"]]


def gen_dims(doc) -> list:
    return [tuple(g["dim"]) for g in doc["generators"]]


def reduced_basis(doc, cutoff: int) -> set:
    """Exponent tuples of the reduced basis for the ideal of the first
    generator q1: every monomial free of q1 and p1 of degree <= cutoff.  Its size is the
    closed form C(cutoff + 2n - 2, 2n - 2)."""
    nvars = len(doc["generators"])
    return {
        alpha
        for alpha in itertools.product(range(cutoff + 1), repeat=nvars)
        if alpha[0] == 0 and alpha[1] == 0 and sum(alpha) <= cutoff
    }


def reduced_basis_size(nvars: int, cutoff: int) -> int:
    return math.comb(cutoff + nvars - 2, nvars - 2)


def canonical_bracket(f: dict, g: dict, nvars: int) -> dict:
    """{x^a, x^b} = sum_i (a_qi b_pi - a_pi b_qi) x^(a+b-e_qi-e_pi), the
    closed form of the canonical bracket on generators (q1,p1,q2,p2,...)."""
    out = {}
    for (a, ca), (b, cb) in itertools.product(f.items(), g.items()):
        for i in range(0, nvars, 2):
            k = a[i] * b[i + 1] - a[i + 1] * b[i]
            if k:
                e = list(map(sum, zip(a, b)))
                e[i] -= 1
                e[i + 1] -= 1
                key = tuple(e)
                out[key] = out.get(key, 0) + k * ca * cb
    return {k: v for k, v in out.items() if v != 0}


POLY_DEGREE = 3


def homogeneous_poly(rng, dims, integer: bool = False) -> dict:
    """One to three terms sharing the dimension of a random monomial;
    integer coefficients when the polynomial is passed as command text."""
    monos = [a for a in itertools.product(range(POLY_DEGREE + 1), repeat=len(dims))
             if 1 <= sum(a) <= POLY_DEGREE]
    seed_mono = rng.choice(monos)

    def dim(a):
        return tuple(sum(e * d[k] for e, d in zip(a, dims)) for k in range(len(dims[0])))

    same = [a for a in monos if dim(a) == dim(seed_mono)]
    picked = rng.sample(same, min(len(same), rng.randint(1, 3)))
    return {
        a: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 1 if integer else rng.randint(1, 4))
        for a in picked
    }


def poly_dim(terms: dict, dims) -> tuple:
    a = next(iter(terms))
    return tuple(sum(e * d[k] for e, d in zip(a, dims)) for k in range(len(dims[0])))


def poly_text(terms: dict, names) -> str:
    """Integer-coefficient polynomial text in the library's input grammar."""
    parts = []
    for alpha, c in sorted(terms.items()):
        factors = " ".join(_factor_text(n, e) for n, e in zip(names, alpha) if e)
        mag = abs(c)
        parts.append(("-" if c < 0 else "+", factors if mag == 1 else f"{mag} {factors}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def with_leading_sign(terms: dict, sign: int) -> dict:
    """The polynomial or its negative, whichever leads with `sign`."""
    lead = terms[min(terms)]
    return terms if lead * sign > 0 else {a: -c for a, c in terms.items()}


_COEFF = re.compile(r"\d+(/\d+)?")


def parse_shown_poly(text: str, names) -> dict:
    """Read the library's printed polynomial (`-2*p + 6*q*p^2`) back to
    {exponent tuple: coefficient} so outputs compare as values; raises
    ValueError on text that is not one."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        parts = term.split("*")
        coeff = Fraction(1)
        if _COEFF.fullmatch(parts[0]):
            coeff = Fraction(parts[0])
            parts = parts[1:]
        alpha = [0] * len(names)
        for f in parts:
            name, _, e = f.partition("^")
            alpha[names.index(name)] += int(e) if e else 1
        key = tuple(alpha)
        out[key] = out.get(key, 0) + sign * coeff
    return {k: v for k, v in out.items() if v != 0}
