import random

import pytest
from hypothesis import given, settings, strategies as st

from galois_factor import (
    BooleanContext,
    CrossContextError,
    FuzzyContext,
    GradeChain,
    ObjectSubset,
    atoms,
    cn_enumerate,
    concepts,
    down,
    down_n,
    down_pi,
    godel_triple,
    is_normalized,
    join_irreducibles,
    normalize,
    up,
    up_n,
    up_pi,
)
from galois_factor.order import Budget, closed_sets
from galois_factor.oracles import BRUTE_SUBSET_LIMIT, brute_concepts
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

    @pytest.mark.parametrize("name", ["", " a", "a ", "a\tb\n", "a\nb", "a\rb", "a\x1cb", 7])
    def test_names_a_cxt_file_cannot_carry_are_rejected(self, name):
        with pytest.raises(ValueError):
            BooleanContext.from_rows([name], ["b"], [[1]])
        with pytest.raises(ValueError):
            BooleanContext.from_rows(["a"], [name], [[1]])
        # a fuzzy context follows the same rule
        frame = (godel_triple(GradeChain(1)),)
        with pytest.raises(ValueError):
            FuzzyContext([name], ["b"], frame, [[1]])
        with pytest.raises(ValueError):
            FuzzyContext(["a"], [name], frame, [[1]])

    def test_inner_spaces_and_unicode_names_accepted(self):
        ctx = BooleanContext.from_rows(["a b"], ["\u00e9t\u00e9"], [[1]])
        assert ctx.has("a b", "\u00e9t\u00e9")

    def test_rows_are_bitmasks_over_the_objects(self):
        assert BooleanContext(("a",), ("b1", "b2"), (3,)).rows == (3,)
        for bad in (4, -1, "1", 1.0):
            with pytest.raises(ValueError):
                BooleanContext(("a",), ("b1", "b2"), (bad,))
            # as are a subset's bits
            if isinstance(bad, int):
                with pytest.raises(ValueError, match="out of range"):
                    ObjectSubset(DIAG2, bad)

    @pytest.mark.parametrize(
        "n_attrs, n_objs",
        [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3), (70, 9), (9, 70), (130, 100)],
    )
    def test_cols_transpose_the_rows(self, n_attrs, n_objs):
        rng = random.Random(f"cols-{n_attrs}-{n_objs}")
        for density in (0.0, 0.3, 0.7, 1.0):
            rows = [
                sum(1 << j for j in range(n_objs) if rng.random() < density)
                for _ in range(n_attrs)
            ]
            ctx = BooleanContext(
                [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
            )
            naive = tuple(
                sum(1 << i for i in range(n_attrs) if rows[i] >> j & 1) for j in range(n_objs)
            )
            assert ctx.cols == naive

    def test_incidence_count(self):
        assert TABLE1.incidence_count() == 9
        assert TABLE2.incidence_count() == 15

    def test_unknown_member_rejected(self):
        with pytest.raises(ValueError):
            TABLE1.object_set(["nope"])

    def test_membership_outside_the_positions_is_false(self):
        for subset in (DIAG2.object_set(["b1"]), DIAG2.all_attributes):
            assert 0 in subset
            for outside in (-1, -2, 2, 5, "nope"):
                assert outside not in subset
        # a subset iterates over its member names and prints them
        assert list(DIAG2.all_attributes) == ["a1", "a2"]
        assert repr(DIAG2.object_set(["b1"])) == "ObjectSubset({b1})"

    # a bool is an int to isinstance, but it is neither a bitmask nor a position
    def test_a_bool_row_is_refused(self):
        with pytest.raises(ValueError, match="is not a bitmask over 1 objects"):
            BooleanContext(["a"], ["x"], [True])

    def test_a_bool_member_is_refused(self):
        ctx = BooleanContext(["a", "b"], ["x"], [1, 0])
        with pytest.raises(ValueError, match="unknown attribute True"):
            ctx.attribute_set([True, "a"])

    def test_bool_subset_bits_are_refused(self):
        ctx = BooleanContext(["a"], ["x"], [1])
        with pytest.raises(ValueError, match="subset bits True are not an int"):
            ObjectSubset(ctx, True)

    def test_a_bool_is_not_a_member(self):
        subset = DIAG2.object_set(["b2"])  # bit 1
        assert 1 in subset
        assert True not in subset


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


def property_oriented(ctx, xs):
    """(X, X-up-pi) when X is a fixpoint of down-N o up-pi, else None."""
    ys = up_pi(ctx, xs)
    return (xs, ys) if down_n(ctx, ys) == xs else None


class TestPropertyOriented:
    def test_fixpoint_pair_from_table1(self):
        xs = TABLE1.object_set(["b5", "b6"])
        assert property_oriented(TABLE1, xs) == (xs, TABLE1.attribute_set(["a4", "a6"]))

    def test_full_pair_always_present(self):
        for ctx in (TABLE1, TABLE2):
            assert property_oriented(ctx, ctx.all_objects) == (
                ctx.all_objects, ctx.all_attributes
            )

    def test_table2_component_pair(self):
        xs = TABLE2.object_set(["b5", "b6", "b7"])
        assert property_oriented(TABLE2, xs) == (xs, TABLE2.attribute_set(["a4", "a6", "a8"]))

    def test_images_are_up_pi(self):
        # down-N o up-pi is a closure: the image of any X is a fixpoint
        for bits in range(1 << len(TABLE2.objects)):
            closed = down_n(TABLE2, up_pi(TABLE2, ObjectSubset(TABLE2, bits)))
            assert closed.bits & bits == bits
            assert property_oriented(TABLE2, closed) == (closed, up_pi(TABLE2, closed))


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
        assert lattice.bottom_index not in join_irreducibles(lattice)
        cn = cn_enumerate(TABLE1)
        assert cn.bottom_index not in join_irreducibles(cn)

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
    assert x1 - x2 == x1 & x2.complement()
    # attribute-side duals
    y1, y2 = up(ctx, x1), up_n(ctx, x2)
    assert down_pi(ctx, y1 | y2) == down_pi(ctx, y1) | down_pi(ctx, y2)
    assert down_n(ctx, y1 & y2) == down_n(ctx, y1) & down_n(ctx, y2)


def brute_keys(ctx: BooleanContext):
    """``brute_concepts``' two key lists; past its subset limit on objects,
    those of the transposed context, swapped and sorted by extent."""
    if len(ctx.objects) <= BRUTE_SUBSET_LIMIT:
        return brute_concepts(ctx).keys
    intents, extents = brute_concepts(BooleanContext(ctx.objects, ctx.attributes, ctx.cols)).keys
    extents, intents = zip(*sorted(zip(extents, intents)))
    return list(extents), list(intents)


def check_against_brute_force(ctx: BooleanContext):
    """The FCbO kernel yields each concept once, within CbO's bound of one
    closure per attribute per concept after the top's, and ``concepts``
    lists what the brute-force scan finds."""
    shared = Budget(10**9)
    extents = [x for x, _ in closed_sets(ctx.rows, ctx.cols, shared)]
    assert len(set(extents)) == len(extents) == shared.found, ctx
    assert shared.spent <= 1 + len(ctx.attributes) * len(extents), ctx
    assert concepts(ctx).keys == brute_keys(ctx), ctx


@settings(max_examples=40, deadline=None)
@given(contexts(max_attrs=5, max_objs=12))
def test_concepts_match_brute_force_up_to_twelve_objects(ctx):
    assert set(concepts(ctx)) == set(brute_concepts(ctx))
    check_against_brute_force(ctx)


def named(rows: list[int], n_objs: int) -> BooleanContext:
    attributes = [f"a{i}" for i in range(len(rows))]
    return BooleanContext(attributes, [f"b{j}" for j in range(n_objs)], rows)


def with_lines(rng: random.Random, rows: list[int], width: int) -> list[int]:
    """``rows`` plus an empty, a full and a duplicate row, shuffled."""
    rows = rows + [0, (1 << width) - 1, rng.choice(rows)]
    rng.shuffle(rows)
    return rows


def lined_context(rng: random.Random) -> BooleanContext:
    """Empty, full and duplicate object columns, then attribute rows."""
    n_attrs, n_objs = rng.randint(1, 5), rng.randint(1, 9)
    cols = with_lines(rng, [rng.getrandbits(n_attrs) for _ in range(n_objs)], n_attrs)
    rows = with_lines(rng, list(named(cols, n_attrs).cols), len(cols))
    return named(rows, len(cols))


def wide_context(rng: random.Random) -> BooleanContext:
    """More than 64 objects, at most 8 attributes."""
    n_objs, density = rng.randint(65, 100), rng.uniform(0.2, 0.8)
    rows = [sum(1 << j for j in range(n_objs) if rng.random() < density)
            for _ in range(rng.randint(1, 8))]
    return named(rows, n_objs)


@pytest.mark.parametrize("draw", [lined_context, wide_context])
def test_concepts_match_brute_force_on_edge_contexts(draw):
    rng = random.Random(draw.__name__)
    for _ in range(40):
        check_against_brute_force(draw(rng))


@pytest.mark.parametrize("n_attrs, n_objs", [(0, 3), (3, 0), (0, 0)])
def test_concepts_match_brute_force_on_an_empty_side(n_attrs, n_objs):
    # the constructor accepts these; the parsers refuse them
    ctx = named([0] * n_attrs, n_objs)
    check_against_brute_force(ctx)
    assert len(concepts(ctx)) == 1
