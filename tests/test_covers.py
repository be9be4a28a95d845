"""Hasse covers from the bitmask kernel against the naive transitive reduction.

``order.pointwise_covers`` peels upper covers off up-set bitmasks in one
reverse pass, graded rows encoded as threshold bitmasks, and trusts the
lattices to list their elements in a linear extension; the
oracle ``brute_covers`` assumes nothing and tests every triple with ``le``.
"""

import random
from functools import reduce
from itertools import product
from operator import or_

import pytest

from galois_factor import (
    BooleanContext,
    BudgetExceededError,
    FuzzyContext,
    GradeChain,
    cn_enumerate,
    concepts,
    discretized_product_triple,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    join_irreducibles,
    lukasiewicz_triple,
)
from galois_factor.order import MAX_ELEMENTS, key_le, pointwise_covers
from galois_factor.oracles import _naive_down, _naive_up, brute_covers
from tables import random_context, random_normalized_context

TRIPLES = {
    "godel": godel_triple,
    "lukasiewicz": lukasiewicz_triple,
    "dprod": lambda chain: discretized_product_triple(chain.m, chain.m, chain.m),
}


def edges(cover_lists):
    """Per-element upper-cover lists as sorted (lower, upper) pairs."""
    return tuple((i, j) for i, above in enumerate(cover_lists) for j in above)


def index_le(lattice):
    """The order on element indices: ``key_le`` on their first keys."""
    keys = lattice.keys[0]
    return lambda i, j: key_le(keys[i], keys[j])


def assert_covers_match(lattice):
    assert lattice.covers == brute_covers(len(lattice), index_le(lattice))


def assert_bottom_and_top(lattice):
    # the listing is a linear extension: the bottom first, the top last
    n, le = len(lattice), index_le(lattice)
    bottoms = [i for i in range(n) if all(le(i, j) for j in range(n))]
    tops = [i for i in range(n) if all(le(j, i) for j in range(n))]
    assert bottoms == [lattice.bottom_index] == [0]
    assert tops == [lattice.top_index] == [n - 1]


def boolean_context(n_attrs, n_objs, rows):
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
    )


class TestConceptLattice:
    def test_random_contexts(self):
        rng = random.Random(4101)
        for _ in range(150):
            assert_covers_match(concepts(random_context(rng, max_side=9)))

    def test_dense_context_with_many_concepts(self):
        rng = random.Random(4102)
        rows = [[rng.random() < 0.4 for _ in range(16)] for _ in range(16)]
        lattice = concepts(boolean_context(16, 16, rows))
        assert len(lattice) > 100
        assert_covers_match(lattice)

    @pytest.mark.parametrize(
        "n_attrs, n_objs, rows",
        [
            (3, 0, [[], [], []]),  # no objects: one concept
            (0, 4, []),  # no attributes: one concept
            (2, 3, [[1, 1, 1], [1, 1, 1]]),  # full relation: one concept
            (2, 2, [[0, 0], [0, 0]]),  # empty relation: a two-element chain
            (1, 1, [[1]]),
        ],
    )
    def test_degenerate_contexts(self, n_attrs, n_objs, rows):
        lattice = concepts(boolean_context(n_attrs, n_objs, rows))
        assert_covers_match(lattice)
        if len(lattice) == 1:
            assert lattice.covers == ()


class TestGradedLattices:
    @pytest.mark.parametrize("frame", sorted(TRIPLES))
    def test_random_contexts(self, frame):
        rng = random.Random(f"covers-{frame}")
        for _ in range(25):
            chain = GradeChain(rng.randint(1, 4))
            n_attrs, n_objs = rng.randint(1, 4), rng.randint(1, 5)
            ctx = FuzzyContext(
                [f"a{i}" for i in range(n_attrs)],
                [f"b{j}" for j in range(n_objs)],
                (TRIPLES[frame](chain),),
                [[rng.randint(0, chain.m) for _ in range(n_objs)] for _ in range(n_attrs)],
            )
            assert_covers_match(fn_enumerate(ctx))
            assert_covers_match(fuzzy_concepts(ctx))


class TestCnLattice:
    def test_random_normalized_contexts(self):
        rng = random.Random(4103)
        for _ in range(60):
            assert_covers_match(cn_enumerate(random_normalized_context(rng, max_side=8)))


class TestCoverLists:
    def test_cover_lists_flatten_to_covers(self):
        rng = random.Random(4109)
        for _ in range(40):
            lattice = concepts(random_context(rng, max_side=8))
            assert edges(lattice.cover_lists) == lattice.covers


class TestBottomAndTop:
    def test_concept_lattices(self):
        rng = random.Random(4107)
        for _ in range(100):
            assert_bottom_and_top(concepts(random_context(rng, max_side=8)))

    def test_cn_lattices(self):
        rng = random.Random(4108)
        for _ in range(60):
            assert_bottom_and_top(cn_enumerate(random_normalized_context(rng, max_side=8)))

    @pytest.mark.parametrize("frame", sorted(TRIPLES))
    def test_fn_and_fuzzy_concept_lattices(self, frame):
        rng = random.Random(f"bottom-top-{frame}")
        for _ in range(25):
            chain = GradeChain(rng.randint(1, 4))
            n_attrs, n_objs = rng.randint(1, 4), rng.randint(1, 4)
            ctx = FuzzyContext(
                [f"a{i}" for i in range(n_attrs)],
                [f"b{j}" for j in range(n_objs)],
                (TRIPLES[frame](chain),),
                [[rng.randint(0, chain.m) for _ in range(n_objs)] for _ in range(n_attrs)],
            )
            assert_bottom_and_top(fn_enumerate(ctx))
            assert_bottom_and_top(fuzzy_concepts(ctx))


class TestJoinIrreducibles:
    def test_concept_lattices_match_the_definition(self):
        # not the bottom, and not the join of all the elements strictly below
        rng = random.Random(4106)
        for _ in range(100):
            ctx = random_context(rng, max_side=8)
            lattice = concepts(ctx)
            extents = lattice.keys[0]
            expected = []
            for i, concept in enumerate(lattice):
                below = [
                    d for j, d in enumerate(lattice) if j != i and key_le(extents[j], extents[i])
                ]
                union = {x for d in below for x in d.extent.indices}
                join = _naive_down(ctx, _naive_up(ctx, union))
                if below and join != set(concept.extent.indices):
                    expected.append(i)
            assert join_irreducibles(lattice) == expected


class TestKernel:
    def test_arbitrary_families_of_grade_vectors(self):
        # not lattices: any finite poset of distinct vectors, listed in tuple order
        rng = random.Random(4104)
        for _ in range(200):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            grid = list(product(range(m + 1), repeat=n))
            rows = sorted(rng.sample(grid, rng.randint(0, min(len(grid), 30))))

            def le(i, j):
                return all(a <= b for a, b in zip(rows[i], rows[j]))

            assert edges(pointwise_covers(rows)) == brute_covers(len(rows), le)

    def test_arbitrary_families_of_bitmasks(self):
        rng = random.Random(4105)
        for _ in range(200):
            masks = sorted(rng.sample(range(256), rng.randint(0, 40)))

            def le(i, j):
                return masks[i] & ~masks[j] == 0

            assert edges(pointwise_covers(masks)) == brute_covers(len(masks), le)

    def test_bitmasks_wider_than_64_bits(self):
        # unions of sparse 80-bit chunks over shared high bits: many inclusions
        rng = random.Random(4110)
        for _ in range(100):
            chunks = [rng.getrandbits(80) & rng.getrandbits(80) for _ in range(rng.randint(1, 6))]
            shared = rng.getrandbits(16) << 64
            masks = sorted(
                {
                    reduce(or_, (c for c in chunks if rng.random() < 0.5), shared)
                    for _ in range(rng.randint(1, 30))
                }
            )

            def le(i, j):
                return masks[i] & ~masks[j] == 0

            assert edges(pointwise_covers(masks)) == brute_covers(len(masks), le)

    def test_positions_with_different_top_grades(self):
        # the all-zero vector first; position x ranges over 0..tops[x]
        rng = random.Random(4111)
        for _ in range(200):
            tops = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
            grid = list(product(*(range(t + 1) for t in tops)))
            rows = sorted({grid[0], *rng.sample(grid, rng.randint(0, min(len(grid), 30)))})
            assert rows[0] == (0,) * len(tops)

            def le(i, j):
                return all(a <= b for a, b in zip(rows[i], rows[j]))

            assert edges(pointwise_covers(rows)) == brute_covers(len(rows), le)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0, 1), (0, 0)],  # decreasing
            [(1, 0), (0, 1)],  # incomparable but out of tuple order
            [(0, 2), (0, 2)],  # duplicate
            [0b01, 0b11, 0b10],  # bitmasks out of int order
            [0b11, 0b11],  # duplicate bitmask
        ],
    )
    def test_unsorted_rows_raise(self, rows):
        with pytest.raises(ValueError, match="strictly increasing"):
            pointwise_covers(rows)

    def test_empty_and_single_row(self):
        assert pointwise_covers([]) == []
        assert pointwise_covers([(2, 0, 1)]) == [[]]
        assert pointwise_covers([0b101]) == [[]]
        assert pointwise_covers([()]) == [[]]  # zero-length vectors

    def test_too_many_rows_are_refused_before_any_mask(self):
        # a range holds no rows in memory, so only the count check can answer
        # at once; the masks would take N**2 / 8 bytes
        with pytest.raises(BudgetExceededError) as err:
            pointwise_covers(range(MAX_ELEMENTS + 1))
        assert (err.value.count, err.value.budget) == (MAX_ELEMENTS + 1, MAX_ELEMENTS)
        assert err.value.unit == "lattice elements"
