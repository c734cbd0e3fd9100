import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dimalg import CarrierError, DimMonoid

small_int = st.integers(min_value=-20, max_value=20)


class TestFreeAbelian:
    def test_combine_is_componentwise_addition(self):
        m = DimMonoid.free_abelian(2)
        assert m.combine((1, 0), (0, 3)) == (1, 3)

    @given(st.tuples(small_int, small_int), st.tuples(small_int, small_int),
           st.tuples(small_int, small_int))
    def test_associative_commutative(self, x, y, z):
        m = DimMonoid.free_abelian(2)
        assert m.combine(m.combine(x, y), z) == m.combine(x, m.combine(y, z))
        assert m.combine(x, y) == m.combine(y, x)

    @given(st.tuples(small_int, small_int))
    def test_identity_and_inverse(self, x):
        m = DimMonoid.free_abelian(2)
        assert m.combine(x, m.identity) == x
        assert m.combine(x, m.inverse(x)) == m.identity

    def test_rank_mismatch_rejected(self):
        m = DimMonoid.free_abelian(2)
        with pytest.raises(CarrierError):
            m.combine((1, 0), (1, 0, 0))

    def test_probe_words_cover_length_three(self):
        m = DimMonoid.free_abelian(1)
        assert set(m.probe_words(3)) == {(n,) for n in range(-3, 4)}


class TestCyclic:
    def test_order_two(self):
        m = DimMonoid.cyclic(2)
        assert m.combine(1, 1) == 0

    def test_exhaustive_group_laws(self):
        m = DimMonoid.cyclic(4)
        elems = m.elements()
        for x in elems:
            assert m.combine(x, m.identity) == x
            assert m.combine(x, m.inverse(x)) == m.identity
            for y in elems:
                assert m.combine(x, y) == m.combine(y, x)
                for z in elems:
                    assert m.combine(m.combine(x, y), z) == m.combine(x, m.combine(y, z))


class TestTrivialAndMap:
    def test_trivial(self):
        m = DimMonoid.trivial()
        assert m.combine((), ()) == ()
        assert m.elements() == ((),)

    def test_swap_composes_to_identity(self):
        m = DimMonoid.map_monoid((0, 1))
        swap = (1, 0)
        assert m.combine(swap, swap) == m.identity

    def test_composition_order(self):
        # f after g: combine(f, g)[i] = f[g[i]]
        m = DimMonoid.map_monoid(("a", "b", "c"))
        f = ("b", "c", "a")
        g = ("a", "a", "b")
        assert m.combine(f, g) == ("b", "b", "c")

    def test_exhaustive_monoid_laws(self):
        m = DimMonoid.map_monoid((0, 1))
        elems = m.elements()
        assert len(elems) == 4
        for f in elems:
            assert m.combine(f, m.identity) == f
            assert m.combine(m.identity, f) == f
            for g in elems:
                for h in elems:
                    assert m.combine(m.combine(f, g), h) == m.combine(f, m.combine(g, h))

    def test_no_inverses(self):
        m = DimMonoid.map_monoid((0, 1))
        with pytest.raises(CarrierError):
            m.inverse((0, 0))


# -- the table-backed monoids against their closed forms -------------------


def _cyclic_ref(n):
    return {
        "monoid": DimMonoid.cyclic(n),
        "elements": tuple(range(n)),
        "identity": 0,
        "is_group": True,
        "combine": lambda x, y: (x + y) % n,
        "inverse": lambda x: (-x) % n,
        "contains": lambda x: isinstance(x, int) and 0 <= x < n,
    }


def _trivial_ref():
    return {
        "monoid": DimMonoid.trivial(),
        "elements": ((),),
        "identity": (),
        "is_group": True,
        "combine": lambda x, y: (),
        "inverse": lambda x: (),
        "contains": lambda x: x == (),
    }


def _map_ref(base):
    index = {v: i for i, v in enumerate(base)}
    return {
        "monoid": DimMonoid.map_monoid(base),
        "elements": tuple(itertools.product(base, repeat=len(base))),
        "identity": tuple(base),
        "is_group": False,
        "combine": lambda f, g: tuple(f[index[v]] for v in g),
        "inverse": None,
        "contains": lambda x: (
            isinstance(x, tuple) and len(x) == len(base) and all(v in base for v in x)
        ),
    }


REFERENCES = (
    [_cyclic_ref(n) for n in range(1, 7)]
    + [_trivial_ref()]
    + [_map_ref(tuple(range(k))) for k in (1, 2, 3)]
    + [_map_ref(("a", "b", "c"))]
)

# members and non-members alike: out of range, wrong length, wrong type,
# unhashable
candidates = st.one_of(
    st.integers(-3, 8),
    st.booleans(),
    st.sampled_from([1.0, 0.5, "0", None]),
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.lists(st.sampled_from("abcd"), max_size=4).map(tuple),
    st.lists(st.integers(0, 3), max_size=3),
    st.just(([0],)),
)


class TestFiniteTablesAgainstClosedForms:
    @settings(max_examples=200)
    @given(st.sampled_from(REFERENCES), st.data())
    def test_combine_identity_and_inverse(self, ref, data):
        m = ref["monoid"]
        x = data.draw(st.sampled_from(ref["elements"]))
        y = data.draw(st.sampled_from(ref["elements"]))
        assert m.combine(x, y) == ref["combine"](x, y)
        assert m.identity == ref["identity"]
        assert m.is_group == ref["is_group"]
        if ref["is_group"]:
            assert m.inverse(x) == ref["inverse"](x)
        else:
            with pytest.raises(CarrierError):
                m.inverse(x)

    @settings(max_examples=50)
    @given(st.sampled_from(REFERENCES))
    def test_enumeration_order(self, ref):
        assert ref["monoid"].elements() == ref["elements"]

    @settings(max_examples=300)
    @given(st.sampled_from(REFERENCES), candidates)
    def test_membership_and_rejection(self, ref, x):
        m = ref["monoid"]
        assert m.contains(x) == ref["contains"](x)
        if not ref["contains"](x):
            with pytest.raises(CarrierError):
                m.combine(x, m.identity)
            with pytest.raises(CarrierError):
                m.combine(m.identity, x)


class TestFiniteRepresentation:
    def test_value_equality_and_hash(self):
        assert DimMonoid.cyclic(3) == DimMonoid.cyclic(3)
        assert hash(DimMonoid.cyclic(3)) == hash(DimMonoid.cyclic(3))
        assert DimMonoid.cyclic(3) != DimMonoid.cyclic(4)
        assert DimMonoid.cyclic(1) != DimMonoid.trivial()
        assert DimMonoid.map_monoid((0, 1)) == DimMonoid.map_monoid((0, 1))
        assert DimMonoid.free_abelian(2) == DimMonoid.free_abelian(2)
        assert DimMonoid.free_abelian(0) != DimMonoid.trivial()

    def test_declared_table_keeps_order_and_identity(self):
        op = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "a"}}
        m = DimMonoid.finite(("a", "e"), "e", lambda x, y: op[x][y])
        assert m.elements() == ("a", "e")
        assert m.identity == "e" and not m.is_group
        assert m.combine("a", "e") == "a"
        assert m.kind == "table"
        other = dict(op, a={"e": "a", "a": "e"})
        assert m != DimMonoid.finite(("a", "e"), "e", lambda x, y: other[x][y])

    def test_table_must_close(self):
        with pytest.raises(ValueError):
            DimMonoid.finite((0, 1), 0, lambda x, y: x + y)

    def test_declared_group_needs_inverses(self):
        with pytest.raises(ValueError):
            DimMonoid.finite((0, 1), 1, lambda x, y: x * y, is_group=True)

    def test_table_size_is_bounded(self):
        # 3125 self-maps of five points would need 3125**2 cells
        with pytest.raises(ValueError):
            DimMonoid.map_monoid(range(5))


def _closed_form_combine(m, x, y):
    """Free-abelian combine as written out in full: both arguments checked
    for membership, then added componentwise."""
    for v in (x, y):
        if not (isinstance(v, tuple) and len(v) == m.rank
                and all(isinstance(c, int) for c in v)):
            raise CarrierError(f"{v!r} is not an element of {m}")
    return tuple(a + b for a, b in zip(x, y))


# vectors of the right and wrong lengths, with booleans, floats and
# unhashable entries, plus lists and values that are no vectors at all
free_candidates = st.one_of(
    st.lists(st.one_of(small_int, st.booleans()), min_size=0, max_size=4).map(tuple),
    st.lists(st.sampled_from([0, 1.0, 2]), min_size=2, max_size=2).map(tuple),
    st.lists(small_int, min_size=2, max_size=2),
    st.sampled_from([([0], 1), ({}, 0), None, 3, True, 1.0, "ab", {"a": 1}]),
)


class TestFreeAbelianAgainstClosedForm:
    @settings(max_examples=400)
    @given(st.integers(0, 3), free_candidates, free_candidates)
    def test_combine_accepts_and_refuses_as_before(self, rank, x, y):
        m = DimMonoid.free_abelian(rank)
        try:
            expected = _closed_form_combine(m, x, y)
        except CarrierError as exc:
            with pytest.raises(CarrierError) as got:
                m.combine(x, y)
            assert str(got.value) == str(exc)
        else:
            assert m.combine(x, y) == expected
            assert type(m.combine(x, y)) is tuple

    def test_booleans_are_integers_and_floats_are_not(self):
        m = DimMonoid.free_abelian(2)
        assert m.combine((True, 0), (1, True)) == (2, 1)
        with pytest.raises(CarrierError, match=r"\(1\.0, 0\) is not an element"):
            m.combine((1, 0), (1.0, 0))
        with pytest.raises(CarrierError, match=r"\[1, 0\] is not an element"):
            m.combine([1, 0], (1, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: DimMonoid.free_abelian(-1), "rank must be >= 0"),
    (lambda: DimMonoid.cyclic(0), "order must be >= 1"),
    (lambda: DimMonoid.map_monoid(()), "non-empty base set"),
], ids=["negative-rank", "order-zero", "empty-map-base"])
def test_constructor_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
