"""Closure-based enumeration: the graded lectic scan and the fuzzy enumerators.

The fuzzy contexts here are the ones ``random_fuzzy_context`` never draws:
several triples mixed cell by cell through ``sigma``, concept-forming frames
over three unequal chains, and up to six objects.
"""

import random
from itertools import islice, product

import pytest

from galois_factor import (
    FuzzyContext,
    GradeChain,
    discretized_product_triple,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    lukasiewicz_triple,
)
from galois_factor.order import closed_sets, graded_closed_sets
from galois_factor.oracles import brute_fn, brute_fuzzy_concepts


def meet_closure(family, n, m):
    """Closure onto a meet-closed family: the meet of all members above x."""
    members = set(family) | {(m,) * n}

    def close(x):
        above = [v for v in members if all(a <= b for a, b in zip(x, v))]
        return tuple(map(min, *above)) if len(above) > 1 else above[0]

    return close


def counted(close):
    calls = []

    def wrapped(x):
        calls.append(x)
        return close(x)

    return wrapped, calls


class TestGradedClosedSets:
    def test_matches_brute_filtering(self):
        rng = random.Random(90210)
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            family = [
                tuple(rng.randint(0, m) for _ in range(n))
                for _ in range(rng.randint(0, 6))
            ]
            close = meet_closure(family, n, m)
            brute = [x for x in product(range(m + 1), repeat=n) if close(x) == x]
            assert list(graded_closed_sets(n, m, close)) == brute

    def test_at_most_one_closure_per_position_and_output(self):
        rng = random.Random(4711)
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            family = [tuple(rng.randint(0, m) for _ in range(n)) for _ in range(5)]
            close, calls = counted(meet_closure(family, n, m))
            found = list(graded_closed_sets(n, m, close))
            assert len(calls) <= 1 + n * len(found)

    def test_two_grade_chain_agrees_with_closed_sets(self):
        rng = random.Random(1337)
        for _ in range(40):
            n = rng.randint(1, 6)
            family = [
                tuple(rng.randint(0, 1) for _ in range(n))
                for _ in range(rng.randint(0, 5))
            ]
            close = meet_closure(family, n, 1)

            def close_bits(bits):
                x = tuple(bits >> i & 1 for i in range(n))
                return sum(v << i for i, v in enumerate(close(x)))

            lectic = [
                tuple(bits >> i & 1 for i in range(n))
                for bits in closed_sets(n, close_bits)
            ]
            assert list(graded_closed_sets(n, 1, close)) == lectic

    def test_operator_that_is_not_extensive_cannot_loop(self):
        scan = graded_closed_sets(3, 2, lambda x: (0, 0, 0))
        assert next(scan) == (0, 0, 0)
        with pytest.raises(RuntimeError):
            next(scan)

    def test_identity_closure_visits_the_whole_grid_in_order(self):
        grid = list(product(range(3), repeat=3))
        assert list(graded_closed_sets(3, 2, lambda x: x)) == grid


class TestClosedSets:
    def test_operator_that_is_not_extensive_raises(self):
        with pytest.raises(RuntimeError):
            list(islice(closed_sets(3, lambda b: 0), 100))

    def test_any_operator_gives_a_finite_scan_without_repeats(self):
        # each accepted set keeps the bits below the raised position and adds
        # it, so the scan is strictly increasing in lectic order
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(1, 4)
            table = [rng.randrange(1 << n) for _ in range(1 << n)]
            found = []
            try:
                for bits in islice(closed_sets(n, table.__getitem__), (1 << n) + 1):
                    found.append(bits)
            except RuntimeError:
                pass
            assert len(found) == len(set(found)) <= 1 << n


def mixed_triple_context(rng):
    """Two or three triples on one chain, chosen per cell by sigma."""
    m = rng.randint(1, 4)
    chain = GradeChain(m)
    triples = [
        godel_triple(chain),
        lukasiewicz_triple(chain),
        discretized_product_triple(m, m, m),
    ]
    rng.shuffle(triples)
    triples = triples[: rng.randint(2, 3)]
    n_attrs = rng.randint(1, 4)
    n_objs = rng.randint(1, 6 if m <= 2 else 4)
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        chain,
        chain,
        chain,
        triples,
        [[rng.randint(0, m) for _ in range(n_objs)] for _ in range(n_attrs)],
        [[rng.randrange(len(triples)) for _ in range(n_objs)] for _ in range(n_attrs)],
    )


def unequal_chain_context(rng):
    """Discretized product on three independent chains, concept-forming."""
    m1, m2, m3 = (rng.randint(1, 4) for _ in range(3))
    n_attrs = rng.randint(1, 4)
    n_objs = rng.randint(1, 6 if m2 <= 2 else 4)
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        GradeChain(m1),
        GradeChain(m2),
        GradeChain(m3),
        (discretized_product_triple(m1, m2, m3),),
        [[rng.randint(0, m3) for _ in range(n_objs)] for _ in range(n_attrs)],
    )


def is_sorted(vectors):
    return all(a < b for a, b in zip(vectors, vectors[1:]))


class TestEnumeratorsAgainstGridOracles:
    def test_fn_enumerate_on_mixed_triples(self):
        rng = random.Random(8128)
        for _ in range(40):
            ctx = mixed_triple_context(rng)
            fast = fn_enumerate(ctx)
            assert list(fast) == brute_fn(ctx), ctx
            assert is_sorted([p.g.values for p in fast])

    def test_fuzzy_concepts_on_mixed_triples(self):
        rng = random.Random(496)
        for _ in range(40):
            ctx = mixed_triple_context(rng)
            fast = fuzzy_concepts(ctx)
            assert list(fast) == brute_fuzzy_concepts(ctx), ctx
            assert is_sorted([c.extent.values for c in fast])

    def test_fuzzy_concepts_on_unequal_chains(self):
        rng = random.Random(33550336)
        for _ in range(40):
            ctx = unequal_chain_context(rng)
            fast = fuzzy_concepts(ctx)
            assert list(fast) == brute_fuzzy_concepts(ctx), ctx
            assert is_sorted([c.extent.values for c in fast])


class TestFnMeetClosure:
    """The necessity-closed pairs are closed under componentwise meets."""

    TRIPLES = {
        "godel": godel_triple,
        "lukasiewicz": lukasiewicz_triple,
        "dprod": lambda chain: discretized_product_triple(chain.m, chain.m, chain.m),
    }

    @pytest.mark.parametrize("frame", sorted(TRIPLES))
    def test_meet_of_two_pairs_is_a_pair(self, frame):
        rng = random.Random(f"fn-meet-{frame}")
        for _ in range(40):
            chain = GradeChain(rng.randint(1, 4))
            n_attrs, n_objs = rng.randint(1, 4), rng.randint(1, 5 if chain.m <= 2 else 4)
            ctx = FuzzyContext(
                [f"a{i}" for i in range(n_attrs)],
                [f"b{j}" for j in range(n_objs)],
                chain,
                chain,
                chain,
                (self.TRIPLES[frame](chain),),
                [[rng.randint(0, chain.m) for _ in range(n_objs)] for _ in range(n_attrs)],
            )
            members = {p.g.values: p.f.values for p in fn_enumerate(ctx)}
            for g1, f1 in members.items():
                for g2, f2 in members.items():
                    met = tuple(map(min, g1, g2))
                    assert members.get(met) == tuple(map(min, f1, f2))
