import json
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from conftest import product_table
from dimalg import (
    CarrierError,
    InputFormatError,
    check_structure,
    load_structure,
    ring_axiom_report,
)
from dimalg.ring import distributivity, generating_set
from dimalg.errors import load_json, typed_field
from dimalg.structure import TableDimRing, load_poisson, parse_poly, structure_axiom_report

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent.parent / "data" / "structures" / "product_ring_mod5_z2.json"


class TestGoldenFile:
    def test_all_laws_pass(self):
        code, lines = check_structure(GOLDEN)
        assert code == 0
        assert all(line.startswith(("PASS", "==")) for line in lines)

    def test_sample_draws_a_declared_element_of_the_slice(self, rng):
        ring = load_structure(GOLDEN)
        for d in ring.dims.elements():
            a = ring.sample(rng, dim=d)
            assert a.dim == d and a in ring.elements()
        assert ring.sample(rng) in ring.elements()

    def test_declared_unit_candidate_validates(self):
        ring = load_structure(GOLDEN)
        rep = structure_axiom_report(ring)
        assert any("nowhere zero" in r.law for r in rep.results)
        assert rep.ok


class TestNegativeControls:
    def test_broken_associativity(self):
        code, lines = check_structure(DATA / "broken_associativity.json")
        assert code == 1
        fail = [l for l in lines if l.startswith("FAIL") and "associativity" in l]
        assert fail and "at" in fail[0]  # a witness triple is printed

    def test_broken_absorbency(self):
        code, lines = check_structure(DATA / "broken_absorbency.json")
        assert code == 1
        assert any("absorbent" in l for l in lines if l.startswith("FAIL"))

    def test_zero_slice_blocks_every_unit_section(self):
        code, lines = check_structure(DATA / "zero_slice_no_unit.json")
        assert code == 1
        assert any("hits zero at slice '1'" in l for l in lines)

    def test_declared_identity_is_checked(self):
        # "1" generates Z/2 but is not its identity
        doc = json.loads(GOLDEN.read_text())
        doc["monoid"]["identity"] = "1"
        code, lines = check_structure(doc)
        assert code == 1
        assert "FAIL  dimension monoid: identity: monoid identity fails at '0'" in lines

    def test_product_cell_in_another_slice_is_a_failed_law(self):
        # 2·3 = 1 lies over dimension 0; declare it over dimension 1
        doc = json.loads(GOLDEN.read_text())
        doc["mul"]["2@0"]["3@0"] = "1@1"
        code, lines = check_structure(doc)
        assert code == 1
        assert "FAIL  projection is a monoid morphism: dim(2@0·3@0) != combined dims" in lines
        # b runs over 1@0, the additive generator of slice '0': (1+1)·3 lies over '1'
        assert "FAIL  distributivity where defined: (a+b)c != ac+bc at 1@0,1@0,3@0" in lines

    def test_defect_beyond_the_first_cases_of_a_law_is_found(self, defect_beyond_caps):
        # every law runs on every case: (3@d0·1@d1)·5@d1 != 3@d0·(1@d1·5@d1)
        code, lines = check_structure(defect_beyond_caps)
        assert code == 1
        assert [l.split(":")[0] for l in lines if l.startswith("FAIL")] == [
            "FAIL  distributivity where defined",
            "FAIL  multiplicative associativity",
        ]
        assert "FAIL  multiplicative associativity: (ab)c != a(bc) at 3@d0,1@d1,5@d1" in lines

    def test_sum_leaving_its_slice_is_a_failed_law(self):
        # 1@0 + 1@0 declared as an element over dimension 1
        doc = json.loads(GOLDEN.read_text())
        doc["add"]["0"]["1@0"]["1@0"] = "2@1"
        code, lines = check_structure(doc)
        assert code == 1
        assert "FAIL  slices closed under addition: 1@0+1@0 leaves slice '0'" in lines


class TestOneChain:
    """`ring_axiom_report` decides a listed ring's slice groups first and
    returns after them when one of them FAILs: its generator proofs need
    closed, associative slice addition, so a library caller gets a FAIL
    there, not an exception."""

    SLICE_GROUP_LAWS = (
        "slices closed under addition",
        "additive identities exist",
        "additive inverses exist",
        "addition associative",
        "addition commutative",
    )

    @pytest.mark.parametrize("slice_, a, b, fail", [
        ("0", "1@0", "1@0", "slices closed under addition: 1@0+1@0 leaves slice '0'"),
        # 0@1 + 1@1 = 2@1: slice '1' loses its identity
        ("1", "0@1", "1@1", "additive identities exist: slice '1' has no additive identity"),
    ])
    def test_a_failed_slice_group_law_ends_the_report(self, slice_, a, b, fail):
        doc = json.loads(GOLDEN.read_text())
        doc["add"][slice_][a][b] = "2@1"
        rep = ring_axiom_report(load_structure(doc))
        assert rep.lines() == ["== dimensioned ring mod5-product-ring-over-Z2"] + [
            f"FAIL  {fail}" if fail.startswith(law) else f"PASS  {law}"
            for law in self.SLICE_GROUP_LAWS
        ]

    def test_a_zero_neutral_on_one_side_only_is_no_identity(self):
        """In the slice {a, b} with x + y = y every element is a left
        identity and none a right one; a ring whose `zero` returns a
        anyway FAILs the identity law, which needs a + x = x = x + a."""

        class LeftZero(TableDimRing):
            def zero(self, d):
                return self.el("a")

        doc = {"name": "left-zero", "kind": "ring",
               "monoid": {"elements": ["0"], "identity": "0", "op": {"0": {"0": "0"}}},
               "slices": {"0": ["a", "b"]},
               "add": {"0": {x: {y: y for y in "ab"} for x in "ab"}},
               "mul": {x: {y: "a" for y in "ab"} for x in "ab"},
               "one": "a"}
        fail = "additive identities exist: slice '0' has no additive identity"
        assert ring_axiom_report(LeftZero(doc)).lines()[1:] == [
            f"FAIL  {fail}" if fail.startswith(law) else f"PASS  {law}"
            for law in self.SLICE_GROUP_LAWS
        ]

    def test_a_listed_ring_names_each_law_once(self):
        laws = [r.law for r in ring_axiom_report(load_structure(GOLDEN)).results]
        assert laws[:5] == list(self.SLICE_GROUP_LAWS)
        assert len(laws) == len(set(laws))
        assert "slices are abelian groups" not in laws


class TestLightsTest:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_generating_set_is_greedy(self, n):
        """Each generator lies outside the step closure of those before it
        (the least set holding them and, with each y, y·g and g·y for each
        of them), and together they generate every element, the
        idempotents taking their turns after the rest. The magmas
        x·y = ax + by mod n are mostly neither commutative nor associative,
        so a step closure may be smaller than the closure."""

        def closure(gens, mul):
            out = set(gens)
            while (more := out | {mul(x, y) for x in out for y in out}) != out:
                out = more
            return out

        def step_closure(gens, mul):
            out, todo = set(gens), list(gens)
            while todo:
                y = todo.pop()
                for p in (p for g in gens for p in (mul(y, g), mul(g, y))):
                    if p not in out:
                        out.add(p)
                        todo.append(p)
            return out

        for a, b in product(range(n), repeat=2):
            def mul(x, y):
                return (a * x + b * y) % n

            gens = generating_set(range(n), mul)
            assert all(x not in step_closure(gens[:i], mul) for i, x in enumerate(gens)), (a, b)
            assert closure(gens, mul) == set(range(n)), (a, b)

    def test_associativity_defect_late_in_lights_order(self):
        # 5 generators, 0@d0 and 1@d0 not among them, so with a outermost
        # the witness is the 7 036th case
        doc = product_table(32, 2)
        doc["mul"]["21@d1"]["27@d1"] = doc["mul"]["27@d1"]["21@d1"] = "0@d0"
        code, lines = check_structure(doc)
        assert code == 1
        assert "FAIL  multiplicative associativity: (ab)c != a(bc) at 21@d0,1@d1,27@d1" in lines


    @pytest.mark.parametrize("orders", [(2,), (5,), (8,), (2, 2), (2, 3), (3, 4), (2, 2, 2)])
    def test_a_group_never_gets_its_identity_as_a_generator(self, orders):
        """Listed with its identity first, then in order and reversed, a
        product of cyclic groups of two or more elements is generated
        without its identity, the one idempotent of a group."""
        elems = list(product(*map(range, orders)))

        def add(x, y):
            return tuple((a + b) % n for a, b, n in zip(x, y, orders))

        for listed in (elems, elems[:1] + elems[:0:-1]):
            assert elems[0] not in generating_set(listed, add), listed
        if len(orders) == 1:  # a cyclic group has one generator
            assert len(generating_set(elems, add)) == 1

    def test_the_symmetric_group_never_gets_its_identity_as_a_generator(self):
        perms = list(permutations(range(3)))  # the identity first

        def compose(p, q):
            return tuple(p[i] for i in q)

        gens = generating_set(perms, compose)
        assert perms[0] not in gens and len(gens) == 2


def case_counts(source) -> dict:
    """Each law's case count in the passing report of a declared table."""
    rep = structure_axiom_report(load_structure(source))
    assert rep.ok
    return {r.law: r.cases for r in rep.results}


class TestGeneratorDecidedLaws:
    def test_golden_structure_counts(self):
        """Z/5 x Z/2 lists each slice's zero first; its slices and its
        dimension monoid are cyclic, so each has one generator: k = 1 per
        slice, K = 2 and 1 of the 2 dimensions. 1@1 generates the ring
        under products and same-slice sums, so G = 1."""
        counts = case_counts(GOLDEN)
        assert {law: counts[law] for law in (
            "distributivity where defined", "multiplicative associativity", "commutativity",
            "addition associative", "addition commutative", "dimension monoid: associativity",
            "projection is a monoid morphism", "zero family is absorbent")} == {
            "distributivity where defined": 100,   # k·n², n = 10
            "multiplicative associativity": 4,     # K·G·K
            "commutativity": 2,                    # K·G
            "addition associative": 50,            # k·Σ|slice|²
            "addition commutative": 10,            # k·Σ|slice|
            "dimension monoid: associativity": 4,  # |D|²·1
            "projection is a monoid morphism": 4,  # |D|²
            "zero family is absorbent": 0,         # no case
        }

    @pytest.mark.parametrize("n,m", [(2, 14), (14, 2)])
    def test_zero_first_slices_count_one_generator_each(self, n, m):
        """product_table lists every slice's zero first: Z/n x Z/m has m
        cyclic slices, so K holds m elements, one per slice, and 1@d1
        alone generates the ring under products and same-slice sums."""
        counts = case_counts(product_table(n, m))
        assert counts["multiplicative associativity"] == m ** 2
        assert counts["commutativity"] == m
        assert counts["projection is a monoid morphism"] == m ** 2
        assert counts["distributivity where defined"] == (n * m) ** 2

    def test_case_counts_grow_as_n_squared(self):
        """Distributivity and slice-addition associativity are decided in
        k·n² cases, so doubling a slice multiplies their counts by 4, not
        by the 8 of every triple. Associativity and commutativity are
        decided on K and G, the projection on one element per slice, and
        the dimension monoid's associativity on its own generators: the
        slices of Z/n x Z/2 are cyclic, so their counts do not grow with
        n."""
        squared = ("distributivity where defined", "addition associative")
        fixed = ("multiplicative associativity", "commutativity",
                 "projection is a monoid morphism", "dimension monoid: associativity")
        small, large = case_counts(product_table(32, 2)), case_counts(product_table(64, 2))
        for name in squared:
            assert 0 < large[name] <= 4.5 * small[name], (name, small, large)
        for name in fixed:
            assert 0 < large[name] <= small[name], (name, small, large)

    def test_dimension_monoid_defect_beyond_the_first_generator(self):
        """The magma on a, e, b with identity e, a·a = a, a·b = b·a = b
        and b·b = e, listed with a first, fails associativity only at
        triples whose middle element is b, as (a·b)·b = e but a·(b·b) = a;
        a, the first generator, passes Light's test. Each slice is the
        zero group, so the products of zeros inherit the defect."""
        dims = ("a", "e", "b")
        op = {"a": {"a": "a", "e": "a", "b": "b"}, "e": {d: d for d in dims},
              "b": {"a": "b", "e": "b", "b": "e"}}
        doc = {
            "monoid": {"elements": list(dims), "identity": "e", "op": op},
            "slices": {d: [f"0@{d}"] for d in dims},
            "add": {d: {f"0@{d}": {f"0@{d}": f"0@{d}"}} for d in dims},
            "mul": {f"0@{d}": {f"0@{f}": f"0@{op[d][f]}" for f in dims} for d in dims},
            "one": "0@e",
        }
        code, lines = check_structure(doc)
        assert code == 1
        assert [l for l in lines if l.startswith("FAIL")] == [
            "FAIL  dimension monoid: associativity: monoid associativity fails at 'a','b','b'",
            "FAIL  multiplicative associativity: (ab)c != a(bc) at 0@a,0@b,0@b",
        ]

    def test_right_distributivity_is_decided_on_the_additive_generators(self):
        """F2² on 0, u, v, u+v with x·y = x for y != 0 and x·0 = 0: the
        product is additive in x, so (a+b)c = ac+bc everywhere, but not in
        y, as u(u+v) = u while uu+uv = 0. c(a+b) = ca+cb is checked for c
        in K = {u, v} alone, and fails there."""
        xs = ("0", "u", "v", "u+v")

        def vec(x):
            return ("u" in x, "v" in x)

        def name(p):
            return "+".join(n for n, c in zip("uv", p) if c) or "0"

        doc = {
            "commutative": False,
            "monoid": {"elements": ["d"], "identity": "d", "op": {"d": {"d": "d"}}},
            "slices": {"d": list(xs)},
            "add": {"d": {x: {y: name(map(bool.__xor__, vec(x), vec(y))) for y in xs}
                          for x in xs}},
            "mul": {x: {y: "0" if y == "0" else x for y in xs} for x in xs},
            "one": "u",
        }
        code, lines = check_structure(doc)
        assert code == 1
        assert [l for l in lines if l.startswith("FAIL")] == [
            "FAIL  distributivity where defined: c(a+b) != ca+cb at u,v,u",
            "FAIL  unitality: unit law fails at v",
        ]

    def test_right_distributivity_names_the_slices_of_ca_and_cb(self):
        """Z/2 slices over cyclic {d0, d1}, x·y = xy mod 2 placed over d0
        when y is 0@d0 and over d1 otherwise: a product's slice reads its
        right factor alone, so (a+b)c = ac+bc everywhere, but c·0@d0 and
        c·1@d0 lie in different slices, and c(a+b) = ca+cb is undefined."""
        slices = {d: [f"0@{d}", f"1@{d}"] for d in ("d0", "d1")}
        elems = slices["d0"] + slices["d1"]
        doc = {
            "monoid": {"elements": ["d0", "d1"], "identity": "d0",
                       "op": {"d0": {"d0": "d0", "d1": "d1"}, "d1": {"d0": "d1", "d1": "d0"}}},
            "slices": slices,
            "add": {d: {x: {y: f"{(int(x[0]) + int(y[0])) % 2}@{d}" for y in xs} for x in xs}
                    for d, xs in slices.items()},
            "mul": {x: {y: f"{int(x[0]) * int(y[0])}@{'d0' if y == '0@d0' else 'd1'}"
                        for y in elems} for x in elems},
            "one": "1@d0",
        }
        ring = load_structure(doc)
        left = distributivity(ring, "left")
        assert not any(left(a, b, c) for a in ring.elements() for c in ring.elements()
                       for b in ring.elements() if b.dim == a.dim)
        code, lines = check_structure(doc)
        assert code == 1
        assert ("FAIL  distributivity where defined: ca, cb lie over 'd0' != 'd1' "
                "at 0@d0,1@d0,1@d0") in lines

    def test_neg_is_the_first_inverse_in_slice_order(self):
        doc = json.loads(GOLDEN.read_text())
        doc["add"]["0"]["1@0"]["2@0"] = "0@0"  # 1@0 gains the inverse 2@0 before 4@0
        doc["add"]["0"]["3@0"]["2@0"] = "3@0"  # and 3@0 loses its only one
        doc["add"]["1"]["0@1"]["1@1"] = "2@1"  # slice '1' loses its identity
        ring = load_structure(doc)
        assert ring.neg(ring.el("1@0")) == ring.el("2@0")
        assert ring.neg(ring.el("4@0")) == ring.el("1@0")
        with pytest.raises(CarrierError, match="^'3@0' has no additive inverse$"):
            ring.neg(ring.el("3@0"))
        with pytest.raises(CarrierError, match="^slice '1' has no additive identity$"):
            ring.neg(ring.el("1@1"))


class TestShapeErrors:
    def test_undeclared_dimension_reference(self):
        with pytest.raises(InputFormatError):
            check_structure(DATA / "undeclared_dimension.json")

    def test_missing_field(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"monoid": {}}))
        with pytest.raises(InputFormatError):
            check_structure(p)

    def test_a_missing_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(InputFormatError, match=r"^cannot read file: .*missing\.json"):
            load_json(path)

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(InputFormatError):
            check_structure(p)

    def test_partial_addition_table(self):
        doc = json.loads(GOLDEN.read_text())
        del doc["add"]["0"]["1@0"]
        with pytest.raises(InputFormatError) as exc:
            check_structure(doc)
        assert "total" in str(exc.value)

    def test_duplicate_element_across_slices(self):
        doc = json.loads(GOLDEN.read_text())
        doc["slices"]["1"] = list(doc["slices"]["1"]) + ["0@0"]
        with pytest.raises(InputFormatError, match="'0@0' appears in two slices"):
            check_structure(doc)

    def test_duplicate_element_within_one_slice(self):
        doc = json.loads(GOLDEN.read_text())
        doc["slices"]["1"] = list(doc["slices"]["1"]) + ["0@1"]
        with pytest.raises(InputFormatError, match="'0@1' appears twice in slice '1'"):
            check_structure(doc)


@pytest.mark.parametrize("value, shape, message", [
    ([1, True], [int], "x must be an array of integers, got [1, True]"),
    ({"a": 1, "b": False}, {str: int}, "x must be an object of integers, got {'a': 1, 'b': False}"),
    ({"a": ["u", 2]}, {str: [str]}, "x must be an object of arrays of strings, got {'a': ['u', 2]}"),
    ({1: "a"}, {str: str}, "x must be an object of strings, got {1: 'a'}"),
], ids=["boolean-in-integers", "boolean-in-object", "nested-integer", "integer-key"])
def test_a_field_with_one_entry_of_another_type_is_refused(value, shape, message):
    with pytest.raises(InputFormatError) as exc:
        typed_field(value, shape, "x")
    assert str(exc.value) == message


def test_a_field_of_leaves_is_copied_with_its_arrays_as_tuples():
    value = {"a": ["u", "v"], "b": []}
    out = typed_field(value, {str: [str]}, "x")
    assert out == {"a": ("u", "v"), "b": ()} and out is not value
    row = {"a": "b"}
    assert typed_field(row, {str: str}, "x") == row and typed_field(row, {str: str}, "x") is not row


class TestPoissonDocuments:
    def test_canonical_document_loads(self):
        from dimalg import load_poisson

        p, ideal = load_poisson(
            Path(__file__).parent.parent / "data" / "poisson" / "canonical_qp.json"
        )
        assert ideal == ["q"]
        ring = p.ring
        assert ring.gen_names == ("q", "p")
        assert p.bracket(ring.monomial((2, 0)), ring.generator("p")) == ring.poly(
            {(1, 0): 2}
        )

    def test_broken_antisymmetry_reported_not_raised(self):
        from dimalg import load_poisson, poisson_axiom_report

        p, _ = load_poisson(DATA / "poisson_broken_antisymmetry.json", validate=False)
        rep = poisson_axiom_report(p)
        assert not rep.ok
        assert any("antisymmet" in r.law for r in rep.failures)

    def test_a_negative_power_of_a_constant_is_its_reciprocal_power(self):
        p, _ = load_poisson({
            "generators": [{"name": "q", "dim": [1]}, {"name": "p", "dim": [-1]}],
            "bracket": {"q,p": "2^-3"},
        })
        ring = p.ring
        assert p.bracket(ring.generator("q"), ring.generator("p")) == ring.constant(Fraction(1, 8))

    def test_unknown_generator_in_ideal(self):
        with pytest.raises(InputFormatError):
            from dimalg import load_poisson

            load_poisson({
                "generators": [{"name": "q", "dim": [1]}],
                "bracket": {},
                "ideal": ["nope"],
            })

    def test_poly_parsing(self):
        from dimalg import GradedPolyRing, parse_poly

        ring = GradedPolyRing(["q", "p"], [(1,), (-1,)])
        f = parse_poly(ring, "2 q^2 p - q/2")
        assert f == ring.poly({(2, 1): 2, (1, 0): "-1/2"})
        g = parse_poly(ring, "-3")
        assert g == ring.constant(-3)


@pytest.mark.parametrize("call, error, message", [
    (lambda ring: parse_poly(ring, "q^-1"),
     CarrierError, "negative powers are only defined for constants"),
    (lambda ring: parse_poly(ring, "q/p"),
     CarrierError, "division is only defined by nonzero constants"),
    (lambda ring: load_poisson({"generators": [], "bracket": {}}),
     InputFormatError, "a Poisson description needs generators"),
], ids=["negative-power-of-a-generator", "division-by-a-generator", "no-generators"])
def test_structure_refusals(canonical_ring, call, error, message):
    with pytest.raises(error, match=message):
        call(canonical_ring)
