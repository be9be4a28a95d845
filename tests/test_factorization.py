import random

import pytest

from galois_factor import (
    BooleanContext,
    BudgetExceededError,
    NecessityPair,
    NotNormalizedError,
    block_bounds,
    cn_atoms,
    cn_enumerate,
    complement,
    concepts,
    factorize,
    in_cn,
    join_irreducibles,
    reassemble,
    rstar,
)
from galois_factor.factorization import MAX_MATERIALIZED_ATOMS
from galois_factor.oracles import brute_rstar
from tables import (
    DIAG2,
    TABLE1,
    TABLE1_CN_IRREDUCIBLES,
    TABLE1_CN_PAIRS,
    TABLE2,
    TABLE2_CN_NONTRIVIAL,
    pair_set,
    random_normalized_context,
)

# normalized single-component context: only the trivial factorization
CONNECTED = BooleanContext.from_rows(
    ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
)


def make_pair(ctx, objs, attrs):
    return NecessityPair(ctx.object_set(objs), ctx.attribute_set(attrs))


class TestCnEnumerate:
    def test_table1_pairs(self):
        lattice = cn_enumerate(TABLE1)
        assert pair_set(lattice) == set(TABLE1_CN_PAIRS)
        assert lattice.pair_count == 8

    def test_table2_pairs(self):
        lattice = cn_enumerate(TABLE2)
        trivial = {((), ()), (TABLE2.objects, TABLE2.attributes)}
        assert pair_set(lattice) == set(TABLE2_CN_NONTRIVIAL) | trivial

    def test_diagonal_pairs(self):
        lattice = cn_enumerate(DIAG2)
        assert pair_set(lattice) == {
            ((), ()),
            (("b1",), ("a1",)),
            (("b2",), ("a2",)),
            (("b1", "b2"), ("a1", "a2")),
        }

    def test_rejects_non_normalized(self):
        ctx = BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 1], [1, 0]])
        with pytest.raises(NotNormalizedError) as err:
            cn_enumerate(ctx)
        assert "a1" in str(err.value)

    def test_top_and_bottom(self):
        lattice = cn_enumerate(TABLE1)
        assert lattice[lattice.bottom_index].objects == TABLE1.object_set()
        assert lattice[lattice.top_index].objects == TABLE1.all_objects

    def test_powerset_structure(self):
        # complete complemented lattice isomorphic to the powerset of atoms
        lattice = cn_enumerate(TABLE1)
        k = len(lattice.atom_pairs)
        assert len(lattice) == 2**k
        assert len(lattice.covers) == k * 2 ** (k - 1)
        members = pair_set(lattice)
        for pair in lattice:
            comp = complement(TABLE1, pair)
            assert (comp.objects.names, comp.attrs.names) in members
        for p in lattice:
            for q in lattice:
                join = (p.objects | q.objects, p.attrs | q.attrs)
                meet = (p.objects & q.objects, p.attrs & q.attrs)
                assert (join[0].names, join[1].names) in members
                assert (meet[0].names, meet[1].names) in members

    def test_slices_and_lattice_surface(self):
        # elements are built on demand, so slices and the Lattice methods
        # must agree with iterating over them
        lattice = cn_enumerate(TABLE2)
        pairs = tuple(lattice)
        assert lattice.elements is None
        assert lattice[1:3] == pairs[1:3]
        assert lattice[::-1] == pairs[::-1]
        assert lattice[-1] == pairs[-1]
        for i in range(len(lattice)):
            assert lattice.upper_covers(i) == tuple(u for l, u in lattice.covers if l == i)
            assert lattice.lower_covers(i) == tuple(l for l, u in lattice.covers if u == i)
            assert lattice.index_of(pairs[i]) == i

    def test_lattice_by_description_beyond_max_atoms(self):
        n = MAX_MATERIALIZED_ATOMS + 1
        diagonal = BooleanContext.from_rows(
            [f"a{i}" for i in range(n)],
            [f"b{j}" for j in range(n)],
            [[int(i == j) for j in range(n)] for i in range(n)],
        )
        lattice = cn_enumerate(diagonal)
        assert not lattice.materialized
        assert lattice.pair_count == 2**21
        assert lattice.elements is None
        join = lattice.pair_for_atoms([0, 1])
        assert in_cn(diagonal, join)
        with pytest.raises(BudgetExceededError):
            len(lattice)


class TestCnAtoms:
    def test_table1_atoms(self):
        assert pair_set(cn_atoms(TABLE1)) == set(TABLE1_CN_IRREDUCIBLES)

    def test_connected_context_single_atom(self):
        pairs = cn_atoms(CONNECTED)
        assert len(pairs) == 1
        assert pairs[0].objects == CONNECTED.all_objects
        assert pairs[0].attrs == CONNECTED.all_attributes

    def test_table2_atoms(self):
        assert pair_set(cn_atoms(TABLE2)) == {
            (("b5", "b6", "b7"), ("a4", "a6", "a8")),
            (("b1",), ("a3",)),
            (("b2", "b3", "b4"), ("a1", "a2", "a5", "a7")),
        }

    def test_atoms_agree_with_lattice_atoms(self):
        lattice = cn_enumerate(TABLE2)
        from_lattice = {(lattice[i].objects.names, lattice[i].attrs.names) for i in lattice.atoms}
        assert from_lattice == pair_set(cn_atoms(TABLE2))

    def test_irreducibles_are_exactly_atoms(self):
        for ctx in (TABLE1, TABLE2, DIAG2, CONNECTED):
            lattice = cn_enumerate(ctx)
            assert join_irreducibles(lattice) == list(lattice.atoms)


class TestComplement:
    def test_complement_of_first_atom(self):
        pair = make_pair(TABLE1, ["b5", "b6"], ["a4", "a6"])
        comp = complement(TABLE1, pair)
        assert comp.objects.names == ("b1", "b2", "b3", "b4")
        assert comp.attrs.names == ("a1", "a2", "a3", "a5")

    def test_trivial_pair(self):
        pair = NecessityPair(TABLE1.all_objects, TABLE1.all_attributes)
        comp = complement(TABLE1, pair)
        assert not comp.objects and not comp.attrs

    def test_table2_pair(self):
        pair = make_pair(TABLE2, ["b5", "b6", "b7"], ["a4", "a6", "a8"])
        comp = complement(TABLE2, pair)
        assert comp.objects.names == ("b1", "b2", "b3", "b4")
        assert comp.attrs.names == ("a1", "a2", "a3", "a5", "a7")

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            complement(TABLE1, make_pair(TABLE1, ["b1", "b2"], ["a3"]))


class TestFactorize:
    def test_table1_blocks(self):
        result = factorize(TABLE1)
        assert {b.objects.names for b in result.blocks} == {
            ("b5", "b6"),
            ("b2", "b3", "b4"),
            ("b1",),
        }
        assert result.reattached.unchanged

    def test_single_component_is_whole_context(self):
        result = factorize(CONNECTED)
        assert len(result.blocks) == 1
        assert result.blocks[0].context == CONNECTED

    def test_table2_block_relation(self):
        result = factorize(TABLE2)
        block = next(b for b in result.blocks if b.objects.names == ("b5", "b6", "b7"))
        assert block.attrs.names == ("a4", "a6", "a8")
        assert block.context == BooleanContext.from_rows(
            ["a4", "a6", "a8"],
            ["b5", "b6", "b7"],
            [[0, 1, 1], [1, 1, 0], [1, 1, 1]],
        )

    def test_blocks_partition_core(self):
        result = factorize(TABLE2)
        all_objs = [n for b in result.blocks for n in b.objects.names]
        all_attrs = [n for b in result.blocks for n in b.attrs.names]
        assert sorted(all_objs) == sorted(result.core.objects)
        assert sorted(all_attrs) == sorted(result.core.attributes)

    def test_reassembles_exactly(self):
        for ctx in (TABLE1, TABLE2, DIAG2, CONNECTED):
            result = factorize(ctx)
            assert reassemble(result) == result.core

    def test_unnormalized_input_reported_not_rejected(self):
        ctx = BooleanContext.from_rows(
            ("a0",) + TABLE1.attributes,
            TABLE1.objects,
            ((1,) * 6,) + TABLE1.incidence,
        )
        result = factorize(ctx)
        assert result.reattached.removed_full_rows == ("a0",)
        assert len(result.blocks) == 3

    def test_collapsing_context(self):
        result = factorize(BooleanContext.from_rows(["a1"], ["b1"], [[1]]))
        assert result.blocks == ()


class TestRstar:
    def test_table1_mask_is_union_of_atom_rectangles(self):
        mask = rstar(TABLE1)
        expected_rects = {
            ("a4", "a6"): ("b5", "b6"),
            ("a1", "a2", "a5"): ("b2", "b3", "b4"),
            ("a3",): ("b1",),
        }
        for i, a in enumerate(TABLE1.attributes):
            for j, b in enumerate(TABLE1.objects):
                in_rect = any(
                    a in attrs and b in objs for attrs, objs in expected_rects.items()
                )
                assert mask.incidence[i][j] == in_rect
        assert all(r & ~m == 0 for r, m in zip(TABLE1.rows, mask.rows))  # R ⊆ R*

    def test_single_component_mask_is_full(self):
        mask = rstar(CONNECTED)
        assert all(all(row) for row in mask.incidence)

    def test_diagonal_mask(self):
        mask = rstar(DIAG2)
        assert mask.incidence == ((True, False), (False, True))

    def test_matches_the_literal_intersection_form(self):
        rng = random.Random(31337)
        for _ in range(150):
            ctx = random_normalized_context(rng, max_side=10)
            assert rstar(ctx) == brute_rstar(ctx)
        assert rstar(TABLE2) == brute_rstar(TABLE2)


class TestBlockBounds:
    def test_table2_first_pair_interval(self):
        pair = make_pair(TABLE2, ["b5", "b6", "b7"], ["a4", "a6", "a8"])
        bounds = block_bounds(TABLE2, pair)
        assert bounds.upper.extent.names == ("b5", "b6", "b7")
        assert bounds.upper.intent.names == ("a8",)
        assert bounds.upper_is_coatom is True
        assert bounds.lower.extent.names == ("b6",)
        assert bounds.lower.intent.names == ("a4", "a6", "a8")
        assert bounds.lower_within_upper

    def test_table2_pair_with_empty_attribute_extent(self):
        pair = make_pair(TABLE2, ["b2", "b3", "b4"], ["a1", "a2", "a5", "a7"])
        bounds = block_bounds(TABLE2, pair)
        assert bounds.lower is None
        assert bounds.lower_identified_with_bottom
        assert bounds.upper.extent.names == ("b2", "b3", "b4")
        assert bounds.upper.intent.names == ("a1",)
        assert bounds.upper_is_coatom is True
        # the identifying bottom of the host lattice is <empty, A>
        lattice = concepts(TABLE2)
        assert lattice[lattice.bottom_index].intent == TABLE2.all_attributes

    def test_degenerate_interval(self):
        pair = make_pair(TABLE1, ["b1"], ["a3"])
        bounds = block_bounds(TABLE1, pair)
        assert bounds.upper == bounds.lower
        assert bounds.upper.extent.names == ("b1",)
        assert bounds.upper.intent.names == ("a3",)

    def test_rejects_trivial_and_foreign_pairs(self):
        with pytest.raises(ValueError):
            block_bounds(TABLE1, NecessityPair(TABLE1.all_objects, TABLE1.all_attributes))
        with pytest.raises(ValueError):
            block_bounds(TABLE1, make_pair(TABLE1, ["b1", "b2"], ["a3"]))

    def test_both_bounds_identified_on_diagonal_pair(self):
        # two diagonal cells share no attribute and no object
        diag3 = BooleanContext.from_rows(
            ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        bounds = block_bounds(diag3, make_pair(diag3, ["b1", "b2"], ["a1", "a2"]))
        assert bounds.upper is None and bounds.upper_identified_with_top
        assert bounds.lower is None and bounds.lower_identified_with_bottom
        assert bounds.upper_is_coatom is None
        assert bounds.lower_within_upper  # empty extent is inside X


class TestBlockBoundPropositions:
    def test_bound_properties_hold_for_every_nontrivial_pair(self):
        from galois_factor import down, down_n, up, up_pi

        rng = random.Random(4242)
        cases = [TABLE1, TABLE2, DIAG2, CONNECTED]
        cases += [random_normalized_context(rng, 7) for _ in range(25)]
        for ctx in cases:
            lattice = concepts(ctx)
            for pair in cn_enumerate(ctx):
                x = pair.objects
                if not x or x == ctx.all_objects:
                    continue
                # <X, X-up-pi> is property-oriented closed
                assert down_n(ctx, up_pi(ctx, x)) == x
                bounds = block_bounds(ctx, pair, lattice)
                x_up = up(ctx, x)
                if x_up:
                    assert down(ctx, x_up) == x
                    assert bounds.upper_is_coatom
                y_down = down(ctx, pair.attrs)
                if x_up and y_down:
                    assert y_down <= x
                    assert bounds.lower_within_upper


class TestRandomizedSoundness:
    def test_factorization_properties_hold_on_random_contexts(self):
        rng = random.Random(20240817)
        for _ in range(40):
            ctx = random_normalized_context(rng, max_side=8)
            lattice = cn_enumerate(ctx)
            members = pair_set(lattice)

            objs, attrs = [], []
            for i in lattice.atoms:
                objs += lattice[i].objects.names
                attrs += lattice[i].attrs.names
            assert sorted(objs) == sorted(ctx.objects)
            assert sorted(attrs) == sorted(ctx.attributes)

            for pair in lattice:
                comp = complement(ctx, pair)
                assert (comp.objects.names, comp.attrs.names) in members

            result = factorize(ctx)
            assert reassemble(result) == result.core
            assert all(r & ~m == 0 for r, m in zip(ctx.rows, rstar(ctx).rows))  # R ⊆ R*
