"""Closure-based enumeration: the lectic scans, their budget and the enumerators.

The fuzzy contexts here are the ones ``random_fuzzy_context`` never draws:
several triples mixed cell by cell through ``sigma``, concept-forming frames
over three unequal chains, and up to six objects.  The budget caps the
closure evaluations of a scan; the counts below were measured and must
repeat exactly.
"""

import random
from itertools import islice, product

import pytest

from galois_factor import (
    BudgetExceededError,
    FuzzyContext,
    GradeChain,
    concepts,
    discretized_product_triple,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    lukasiewicz_triple,
)
from galois_factor.io import parse_fuzzy_csv
from galois_factor.order import DEFAULT_ENUM_BUDGET, Budget, closed_sets, graded_closed_sets
from galois_factor.oracles import brute_fn, brute_fuzzy_concepts
from tables import TABLE1, TABLE2, WIDE_GODEL_CSV, godel_r2


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


def exhausted(scan):
    with pytest.raises(BudgetExceededError) as err:
        list(scan)
    return err.value


# (enumerator, context, closures it evaluates, closed sets its scan yields,
# elements it lists); fn keeps 55 of the 70 fixpoints of down-N o up-pi
WORKED = [
    pytest.param(fn_enumerate, godel_r2(), 71, 70, 55, id="fn-godel-r2"),
    pytest.param(fuzzy_concepts, godel_r2(), 11, 7, 7, id="fuzzy-concepts-godel-r2"),
    pytest.param(concepts, TABLE1, 22, 8, 8, id="concepts-table1"),
    pytest.param(concepts, TABLE2, 36, 11, 11, id="concepts-table2"),
]
WORKED_ARGS = "enumerate_, ctx, closures, closed, elements"


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
                (self.TRIPLES[frame](chain),),
                [[rng.randint(0, chain.m) for _ in range(n_objs)] for _ in range(n_attrs)],
            )
            members = {p.g.values: p.f.values for p in fn_enumerate(ctx)}
            for g1, f1 in members.items():
                for g2, f2 in members.items():
                    met = tuple(map(min, g1, g2))
                    assert members.get(met) == tuple(map(min, f1, f2))


class TestScanBudget:
    # the budget caps the calls of close, the first one included.  The
    # identity is a closure whose every set is closed; both scans accept the
    # first candidate of each step, so they spend one closure per set

    def test_closed_sets_stops_before_call_budget_plus_one(self):
        close, calls = counted(lambda bits: bits)
        assert sorted(closed_sets(3, close, budget=8)) == list(range(8))
        assert len(calls) == 8
        close, calls = counted(lambda bits: bits)
        err = exhausted(closed_sets(3, close, budget=7))
        assert len(calls) == 7
        assert (err.count, err.budget, err.found) == (7, 7, 7)
        assert err.unit == "closure evaluations"

    def test_graded_closed_sets_stops_before_call_budget_plus_one(self):
        close, calls = counted(lambda x: x)
        assert len(list(graded_closed_sets(2, 2, close, budget=9))) == 9
        assert len(calls) == 9
        close, calls = counted(lambda x: x)
        err = exhausted(graded_closed_sets(2, 2, close, budget=8))
        assert len(calls) == 8
        assert (err.count, err.budget, err.found) == (8, 8, 8)

    def test_rejected_candidates_are_counted(self):
        # {0, 1} closes to itself only as a whole: 1 and 2 close to 3
        close, calls = counted(lambda bits: 3 if bits else 0)
        assert list(closed_sets(2, close, budget=3)) == [0, 3]
        assert calls == [0, 2, 1]
        err = exhausted(closed_sets(2, lambda bits: 3 if bits else 0, budget=2))
        assert (err.count, err.found) == (2, 1)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_evaluates_nothing(self, budget):
        close, calls = counted(lambda bits: bits)
        err = exhausted(closed_sets(3, close, budget=budget))
        assert (err.count, err.found, calls) == (0, 0, [])
        close, calls = counted(lambda x: x)
        err = exhausted(graded_closed_sets(2, 2, close, budget=budget))
        assert (err.count, err.found, calls) == (0, 0, [])

    def test_scans_sharing_a_budget_stop_together(self):
        # each identity scan over 2 bits spends 4 closures and finds 4 sets
        shared = Budget(10)
        for _ in range(2):
            assert len(list(closed_sets(2, lambda bits: bits, shared))) == 4
        assert (shared.spent, shared.found) == (8, 8)
        close, calls = counted(lambda bits: bits)
        err = exhausted(closed_sets(2, close, shared))
        assert len(calls) == 2
        assert (err.count, err.budget, err.found) == (10, 10, 10)

    def test_an_abandoned_scan_charges_what_it_spent(self):
        shared = Budget(10)
        scan = closed_sets(3, lambda bits: bits, shared)
        assert [next(scan), next(scan)] == [0, 4]
        scan.close()
        assert (shared.spent, shared.found) == (2, 2)

    def test_message_names_what_was_counted(self):
        err = exhausted(closed_sets(3, lambda bits: bits, budget=5))
        assert str(err) == "the budget of 5 closure evaluations ran out, 5 closed sets found"

    def test_default_budget(self):
        assert DEFAULT_ENUM_BUDGET == 10_000_000


class TestEnumeratorBudget:
    # each count is the smallest budget under which the enumeration finishes

    @pytest.mark.parametrize(WORKED_ARGS, WORKED)
    def test_exact_closure_count(self, enumerate_, ctx, closures, closed, elements):
        assert len(enumerate_(ctx, budget=closures)) == elements
        with pytest.raises(BudgetExceededError) as err:
            enumerate_(ctx, budget=closures - 1)
        # the last closure the scan needs yields the top
        assert (err.value.count, err.value.found) == (closures - 1, closed - 1)

    @pytest.mark.parametrize(WORKED_ARGS, WORKED)
    def test_counts_repeat_exactly(self, enumerate_, ctx, closures, closed, elements):
        stops = []
        for _ in range(3):
            with pytest.raises(BudgetExceededError) as err:
                enumerate_(ctx, budget=closures - 1)
            stops.append((err.value.count, err.value.found, str(err.value)))
            assert enumerate_(ctx, budget=closures) == enumerate_(ctx)
        assert stops[0] == stops[1] == stops[2]

    def test_wide_godel_context_runs_under_the_default_budget(self):
        ctx = parse_fuzzy_csv(WIDE_GODEL_CSV, "godel:4")
        assert len(fn_enumerate(ctx)) == 5
        assert len(fn_enumerate(ctx, budget=2602)) == 5
        with pytest.raises(BudgetExceededError):
            fn_enumerate(ctx, budget=2601)
        assert len(fuzzy_concepts(ctx)) == 727
        assert len(fuzzy_concepts(ctx, budget=2535)) == 727
        with pytest.raises(BudgetExceededError):
            fuzzy_concepts(ctx, budget=2534)
