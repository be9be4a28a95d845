import pytest
from hypothesis import given, settings, strategies as st

from galois_factor import (
    BooleanContext,
    CrossContextError,
    atoms,
    cn_enumerate,
    concepts,
    down,
    down_n,
    down_pi,
    is_join_irreducible,
    is_normalized,
    join_irreducibles,
    normalize,
    property_oriented_concepts,
    up,
    up_n,
    up_pi,
)
from tables import DIAG2, TABLE1, TABLE1_COVER_EXTENTS, TABLE1_CONCEPTS, TABLE2, concept_set


@st.composite
def contexts(draw, max_attrs=6, max_objs=6):
    n_attrs = draw(st.integers(1, max_attrs))
    n_objs = draw(st.integers(1, max_objs))
    rows = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_objs, max_size=n_objs),
            min_size=n_attrs,
            max_size=n_attrs,
        )
    )
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
    )


@st.composite
def context_and_object_sets(draw, n_sets=1, **kw):
    ctx = draw(contexts(**kw))
    full = (1 << len(ctx.objects)) - 1
    sets = [
        ctx.object_set(i for i in range(len(ctx.objects)) if draw(st.integers(0, full)) >> i & 1)
        for _ in range(n_sets)
    ]
    return (ctx, *sets)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BooleanContext.from_rows(["a", "a"], ["b"], [[1], [0]])
        with pytest.raises(ValueError):
            BooleanContext.from_rows(["a"], ["b", "b"], [[1, 0]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BooleanContext.from_rows(["a"], ["b1", "b2"], [[1]])
        with pytest.raises(ValueError):
            BooleanContext.from_rows(["a1", "a2"], ["b"], [[1]])

    def test_incidence_count(self):
        assert TABLE1.incidence_count() == 9
        assert TABLE2.incidence_count() == 15

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            TABLE1.object_set(["nope"])


class TestDerivationOperators:
    def test_up_single_object(self):
        assert up(TABLE1, TABLE1.object_set(["b5"])).names == ("a4", "a6")

    def test_up_empty_is_all_attributes(self):
        assert up(TABLE1, TABLE1.object_set()) == TABLE1.all_attributes

    def test_up_diagonal(self):
        assert up(DIAG2, DIAG2.object_set(["b1"])).names == ("a1",)

    def test_down_three_attributes(self):
        assert down(TABLE2, TABLE2.attribute_set(["a4", "a6", "a8"])).names == ("b6",)

    def test_down_empty_is_all_objects(self):
        assert down(TABLE2, TABLE2.attribute_set()) == TABLE2.all_objects

    def test_down_can_be_empty(self):
        assert not down(TABLE2, TABLE2.attribute_set(["a1", "a2", "a5", "a7"]))


class TestModalOperators:
    def test_up_n(self):
        assert up_n(TABLE1, TABLE1.object_set(["b5", "b6"])).names == ("a4", "a6")
        assert up_n(TABLE1, TABLE1.all_objects) == TABLE1.all_attributes
        assert not up_n(TABLE1, TABLE1.object_set())

    def test_down_n(self):
        assert down_n(TABLE1, TABLE1.attribute_set(["a4", "a6"])).names == ("b5", "b6")
        assert down_n(TABLE1, TABLE1.all_attributes) == TABLE1.all_objects
        assert down_n(TABLE2, TABLE2.attribute_set(["a3"])).names == ("b1",)

    def test_up_pi(self):
        assert up_pi(TABLE1, TABLE1.object_set(["b1"])).names == ("a3",)
        assert not up_pi(TABLE1, TABLE1.object_set())
        assert up_pi(TABLE1, TABLE1.object_set(["b3", "b4"])).names == ("a1", "a2", "a5")

    def test_down_pi(self):
        assert down_pi(TABLE1, TABLE1.attribute_set(["a4"])).names == ("b5", "b6")
        assert not down_pi(TABLE1, TABLE1.attribute_set())
        assert down_pi(TABLE2, TABLE2.attribute_set(["a6", "a8"])).names == ("b5", "b6", "b7")

    def test_cross_context_subsets_rejected(self):
        other = BooleanContext.from_rows(
            TABLE1.attributes, TABLE1.objects, TABLE1.incidence
        )
        with pytest.raises(CrossContextError):
            up(TABLE1, other.object_set(["b1"]))
        with pytest.raises(CrossContextError):
            TABLE1.object_set(["b1"]) | other.object_set(["b2"])


class TestNormalize:
    def test_already_normalized(self):
        report = normalize(TABLE1)
        assert report.unchanged
        assert report.core == TABLE1
        assert is_normalized(TABLE1)

    def test_one_by_one_full(self):
        ctx = BooleanContext.from_rows(["a1"], ["b1"], [[1]])
        report = normalize(ctx)
        assert report.removed_full_rows == ("a1",)
        assert report.removed_full_cols == ("b1",)
        assert not report.core.objects and not report.core.attributes

    def test_full_row_added_to_table1(self):
        ctx = BooleanContext.from_rows(
            ("a0",) + TABLE1.attributes,
            TABLE1.objects,
            ((1,) * 6,) + TABLE1.incidence,
        )
        report = normalize(ctx)
        assert report.removed_full_rows == ("a0",)
        assert not report.removed_empty_rows
        assert report.core == TABLE1

    def test_removal_iterates_to_fixpoint(self):
        # dropping the full column empties the second row
        ctx = BooleanContext.from_rows(
            ["a1", "a2"], ["b1", "b2", "b3"], [[1, 1, 0], [1, 0, 0], ]
        )
        report = normalize(ctx)
        assert report.removed_full_cols == ("b1",)
        assert "a2" in report.removed_empty_rows


class TestConcepts:
    def test_table1_concepts(self):
        lattice = concepts(TABLE1)
        assert len(lattice) == 8
        assert concept_set(lattice) == set(TABLE1_CONCEPTS)

    def test_table1_covers(self):
        lattice = concepts(TABLE1)
        got = {
            (lattice[l].extent.names, lattice[u].extent.names)
            for l, u in lattice.covers
        }
        assert got == set(TABLE1_COVER_EXTENTS)

    def test_diagonal_concepts(self):
        lattice = concepts(DIAG2)
        assert concept_set(lattice) == {
            ((), ("a1", "a2")),
            (("b1",), ("a1",)),
            (("b2",), ("a2",)),
            (("b1", "b2"), ()),
        }

    def test_normalized_top_and_bottom(self):
        lattice = concepts(TABLE1)
        assert lattice[lattice.top_index].extent == TABLE1.all_objects
        assert lattice[lattice.top_index].intent == TABLE1.attribute_set()
        assert lattice[lattice.bottom_index].extent == TABLE1.object_set()
        assert lattice[lattice.bottom_index].intent == TABLE1.all_attributes

    def test_canonical_order_is_extent_bits(self):
        lattice = concepts(TABLE2)
        bits = [c.extent.bits for c in lattice]
        assert bits == sorted(bits)

    def test_works_on_non_normalized_contexts(self):
        ctx = BooleanContext.from_rows(
            ("a0",) + TABLE1.attributes,
            TABLE1.objects,
            ((1,) * 6,) + TABLE1.incidence,
        )
        lattice = concepts(ctx)
        for c in lattice:
            assert up(ctx, c.extent) == c.intent
            assert down(ctx, c.intent) == c.extent
        # the full row joins every intent, so the count matches the core
        assert len(lattice) == 8


class TestPropertyOriented:
    def test_fixpoint_pair_from_table1(self):
        pairs = {(x.names, y.names) for x, y in property_oriented_concepts(TABLE1)}
        assert (("b5", "b6"), ("a4", "a6")) in pairs

    def test_full_pair_always_present(self):
        pairs = property_oriented_concepts(TABLE1)
        assert (TABLE1.all_objects, TABLE1.all_attributes) in [
            (x, y) for x, y in pairs
        ]

    def test_table2_component_pair(self):
        pairs = {(x.names, y.names) for x, y in property_oriented_concepts(TABLE2)}
        assert (("b5", "b6", "b7"), ("a4", "a6", "a8")) in pairs

    def test_images_are_up_pi(self):
        for x, y in property_oriented_concepts(TABLE2):
            assert up_pi(TABLE2, x) == y
            assert down_n(TABLE2, y) == x


class TestIrreduciblesAndAtoms:
    def test_cn_lattice_irreducibles(self):
        lattice = cn_enumerate(TABLE1)
        irr = {
            (lattice[i].objects.names, lattice[i].attrs.names)
            for i in join_irreducibles(lattice)
        }
        assert irr == {
            (("b5", "b6"), ("a4", "a6")),
            (("b2", "b3", "b4"), ("a1", "a2", "a5")),
            (("b1",), ("a3",)),
        }

    def test_bottom_never_irreducible(self):
        lattice = concepts(TABLE1)
        assert not is_join_irreducible(lattice, lattice.bottom_index)
        cn = cn_enumerate(TABLE1)
        assert not is_join_irreducible(cn, cn.bottom_index)

    def test_accepts_element_in_place_of_index(self):
        lattice = concepts(TABLE1)
        concept = lattice[lattice.top_index]
        assert is_join_irreducible(lattice, concept) == is_join_irreducible(
            lattice, lattice.top_index
        )

    def test_concept_atom(self):
        lattice = concepts(TABLE1)
        atom_values = {
            (lattice[i].extent.names, lattice[i].intent.names) for i in atoms(lattice)
        }
        assert (("b4",), ("a1", "a2")) in atom_values


@given(context_and_object_sets(n_sets=2))
def test_antitone_galois_connection(drawn):
    ctx, x1, x2 = drawn
    assert x1 <= down(ctx, up(ctx, x1))
    y = up(ctx, x1)
    assert y <= up(ctx, down(ctx, y))
    if x1 <= x2:
        assert up(ctx, x2) <= up(ctx, x1)
    assert up(ctx, down(ctx, up(ctx, x1))) == up(ctx, x1)


@given(context_and_object_sets(n_sets=2))
def test_isotone_connections_preserve_union_and_intersection(drawn):
    ctx, x1, x2 = drawn
    assert up_pi(ctx, x1 | x2) == up_pi(ctx, x1) | up_pi(ctx, x2)
    assert up_n(ctx, x1 & x2) == up_n(ctx, x1) & up_n(ctx, x2)
    # attribute-side duals
    y1, y2 = up(ctx, x1), up_n(ctx, x2)
    assert down_pi(ctx, y1 | y2) == down_pi(ctx, y1) | down_pi(ctx, y2)
    assert down_n(ctx, y1 & y2) == down_n(ctx, y1) & down_n(ctx, y2)


@settings(max_examples=40, deadline=None)
@given(contexts(max_attrs=5, max_objs=12))
def test_concepts_match_brute_force_up_to_twelve_objects(ctx):
    from galois_factor.oracles import brute_concepts

    assert set(concepts(ctx).elements) == set(brute_concepts(ctx).elements)
