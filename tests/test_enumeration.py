"""Closure-based enumeration: the FCbO scan, its budget and the enumerators.

The fuzzy contexts here are the ones ``random_fuzzy_context`` never draws:
several triples mixed cell by cell through ``sigma``, concept-forming frames
over three unequal chains, chains up to m = 8, and up to six objects.  The
budget caps the closure evaluations of a scan; the counts below were
measured and must repeat exactly.
"""

import random
import sys
from itertools import product

import pytest

from galois_factor import (
    BooleanContext,
    BudgetExceededError,
    FuzzyContext,
    GradeChain,
    GradedObjectSet,
    concepts,
    discretized_product_triple,
    f_down,
    f_down_n,
    f_up,
    f_up_n,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    lukasiewicz_triple,
)
from galois_factor import fuzzy
from galois_factor.cli import main
from galois_factor.io import format_cxt, parse_fuzzy_csv
from galois_factor.order import DEFAULT_ENUM_BUDGET, Budget, closed_sets, thresholds, transpose
from galois_factor.oracles import brute_fn, brute_fuzzy_concepts
from tables import LUKASIEWICZ_32_CSV, TABLE1, TABLE2, WIDE_GODEL_CSV, godel_r2


def exhausted(scan):
    with pytest.raises(BudgetExceededError) as err:
        list(scan)
    return err.value


# (enumerator, context, closures it evaluates, closed sets it yields,
# elements it lists); fn's walk yields its 55 members alone
WORKED = [
    pytest.param(fn_enumerate, godel_r2(), 57, 55, 55, id="fn-godel-r2"),
    pytest.param(fuzzy_concepts, godel_r2(), 9, 7, 7, id="fuzzy-concepts-godel-r2"),
    pytest.param(concepts, TABLE1, 15, 8, 8, id="concepts-table1"),
    pytest.param(concepts, TABLE2, 22, 11, 11, id="concepts-table2"),
]
WORKED_ARGS = "enumerate_, ctx, closures, closed, elements"


def mixed_triple_context(rng, fine=False):
    """Triples on one chain chosen per cell by sigma: two or three of them on
    m = 1..4, or any one to three of them on a fine chain of m = 5..8."""
    m = rng.randint(5, 8) if fine else rng.randint(1, 4)
    return triples_by_sigma(
        rng, m, 1 if fine else 2, 3 if fine else 4, 3 if fine else 6 if m <= 2 else 4
    )


def triples_by_sigma(rng, m, fewest, most_attrs, most_objs):
    """At least ``fewest`` of the Goedel, Lukasiewicz and dprod triples on
    {0..m}, chosen per cell by sigma, on at most ``most_attrs`` x ``most_objs``."""
    chain = GradeChain(m)
    triples = [
        godel_triple(chain),
        lukasiewicz_triple(chain),
        discretized_product_triple(m, m, m),
    ]
    rng.shuffle(triples)
    triples = triples[: rng.randint(fewest, 3)]
    n_attrs = rng.randint(1, most_attrs)
    n_objs = rng.randint(1, most_objs)
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        triples,
        [[rng.randint(0, m) for _ in range(n_objs)] for _ in range(n_attrs)],
        [[rng.randrange(len(triples)) for _ in range(n_objs)] for _ in range(n_attrs)],
    )


def unequal_chain_context(rng, fine=False):
    """Discretized product on three independent chains, concept-forming:
    m = 1..4 each, or 5..8 each on a fine context of at most 3 x 3."""
    low, high = (5, 8) if fine else (1, 4)
    m1, m2, m3 = (rng.randint(low, high) for _ in range(3))
    n_attrs = rng.randint(1, 3 if fine else 4)
    n_objs = rng.randint(1, 3 if fine else 6 if m2 <= 2 else 4)
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        (discretized_product_triple(m1, m2, m3),),
        [[rng.randint(0, m3) for _ in range(n_objs)] for _ in range(n_attrs)],
    )


def is_sorted(vectors):
    return all(a < b for a, b in zip(vectors, vectors[1:]))


class TestEnumeratorsAgainstGridOracles:
    # 40 contexts on chains of m <= 4, then 30 on fine chains of m = 5..8
    COARSE, FINE = 40, 30

    def test_fn_enumerate_on_mixed_triples(self):
        rng = random.Random(8128)
        for k in range(self.COARSE + self.FINE):
            ctx = mixed_triple_context(rng, fine=k >= self.COARSE)
            fast = fn_enumerate(ctx)
            assert list(fast) == brute_fn(ctx), ctx
            assert is_sorted([p.g.values for p in fast])

    def test_fn_enumerate_on_finer_chains(self):
        # the nested threshold rows of fn's closure on m = 9..16, then on
        # m = 24..32, 3 x 2 at most: a grid of at most 33**2 points
        rng = random.Random(65536)
        coarse = (triples_by_sigma(rng, rng.randint(9, 16), 2, 3, 2) for _ in range(30))
        fine = (triples_by_sigma(rng, rng.randint(24, 32), 2, 3, 2) for _ in range(12))
        for ctx in (*coarse, *fine):
            fast = fn_enumerate(ctx)
            assert list(fast) == brute_fn(ctx), ctx
            assert is_sorted([p.g.values for p in fast])

    def test_fuzzy_concepts_on_mixed_triples(self):
        rng = random.Random(496)
        for k in range(self.COARSE + self.FINE):
            ctx = mixed_triple_context(rng, fine=k >= self.COARSE)
            fast = fuzzy_concepts(ctx)
            assert list(fast) == brute_fuzzy_concepts(ctx), ctx
            assert is_sorted([c.extent.values for c in fast])

    def test_fuzzy_concepts_on_finer_chains(self):
        # the nested down rows of the concept closure on m = 9..16, then on
        # m = 24..32, 3 x 2 at most: a grid of at most 33**2 points
        rng = random.Random(4096)
        coarse = (triples_by_sigma(rng, rng.randint(9, 16), 2, 3, 2) for _ in range(30))
        fine = (triples_by_sigma(rng, rng.randint(24, 32), 2, 3, 2) for _ in range(12))
        for ctx in (*coarse, *fine):
            fast = fuzzy_concepts(ctx)
            assert list(fast) == brute_fuzzy_concepts(ctx), ctx
            assert is_sorted([c.extent.values for c in fast])

    def test_fuzzy_concepts_on_unequal_chains(self):
        rng = random.Random(33550336)
        for k in range(self.COARSE + self.FINE):
            ctx = unequal_chain_context(rng, fine=k >= self.COARSE)
            fast = fuzzy_concepts(ctx)
            assert list(fast) == brute_fuzzy_concepts(ctx), ctx
            assert is_sorted([c.extent.values for c in fast])


def every_grade_context(n, m):
    """Goedel on {0..m}: for each object j and grade a < m, an attribute
    holding j at a and every other object at m.  Its extents are the meets
    of those columns, so every vector of the grid {0..m}^n is one."""
    attrs = [(j, a) for j in range(n) for a in range(m)]
    return FuzzyContext(
        [f"a{j}_{a}" for j, a in attrs],
        [f"b{j}" for j in range(n)],
        (godel_triple(GradeChain(m)),),
        [[a if k == j else m for k in range(n)] for j, a in attrs],
    )


# (enumerator, context generator, seed, map whose fixpoints the walk lists):
# on fn's closure the members, the fixpoints of down-N o up-N, and on the
# concept closure the extents
WALKED = [
    pytest.param(
        fn_enumerate, mixed_triple_context, 28,
        lambda ctx, g: f_down_n(ctx, f_up_n(ctx, g)), id="fn-mixed-triples",
    ),
    pytest.param(
        fuzzy_concepts, mixed_triple_context, 8128,
        lambda ctx, g: f_down(ctx, f_up(ctx, g)), id="concepts-mixed-triples",
    ),
    pytest.param(
        fuzzy_concepts, unequal_chain_context, 496,
        lambda ctx, g: f_down(ctx, f_up(ctx, g)), id="concepts-unequal-chains",
    ),
]
WALKED_ARGS = "enumerate_, context, seed, close"


class TestGradedWalk:
    """The walk of both fuzzy enumerators over threshold bits: object bit
    j*m2 + a - 1 reads g(j) >= a."""

    @pytest.fixture
    def walked(self, monkeypatch):
        """The raw bitmasks of every closed set that ``fuzzy._walk`` yields."""
        seen = []
        walk = fuzzy._walk

        def recorded(*args):
            for bits, key in walk(*args):
                seen.append(bits)
                yield bits, key

        monkeypatch.setattr(fuzzy, "_walk", recorded)
        return seen

    def test_thresholds_decode_by_block_bit_count(self):
        rng = random.Random(6174)
        for _ in range(200):
            m, n = rng.randint(1, 8), rng.randint(0, 5)
            grades = [rng.randint(0, m) for _ in range(n)]
            mask = thresholds(grades, m)
            assert [(mask >> j * m & (1 << m) - 1).bit_count() for j in range(n)] == grades
            assert mask == sum(1 << j * m + a for j, g in enumerate(grades) for a in range(g))

    def test_thresholds_turn_the_pointwise_order_into_inclusion(self):
        rng = random.Random(1729)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            x, y = ([rng.randint(0, m) for _ in range(n)] for _ in range(2))
            below = all(a <= b for a, b in zip(x, y))
            assert (thresholds(x, m) & ~thresholds(y, m) == 0) == below

    @pytest.mark.parametrize(WALKED_ARGS, WALKED)
    def test_every_closed_set_is_a_threshold_set(
        self, walked, enumerate_, context, seed, close
    ):
        # down-closed in each object's block, so its bit counts lose nothing
        rng = random.Random(seed)
        for k in range(30):
            ctx = context(rng, fine=k >= 20)
            del walked[:]
            enumerate_(ctx)
            m2, n = ctx.l2.m, len(ctx.objects)
            for mask in walked:
                grades = [(mask >> j * m2 & (1 << m2) - 1).bit_count() for j in range(n)]
                assert mask == thresholds(grades, m2), ctx

    @pytest.mark.parametrize(WALKED_ARGS, WALKED)
    def test_closed_sets_are_the_fixpoints_on_the_grid(
        self, walked, enumerate_, context, seed, close
    ):
        rng = random.Random(seed + 1)
        for k in range(30):
            ctx = context(rng, fine=k >= 20)
            del walked[:]
            enumerate_(ctx)
            m2, n = ctx.l2.m, len(ctx.objects)
            fixpoints = [
                thresholds(g, m2)
                for g in product(range(m2 + 1), repeat=n)
                if close(ctx, GradedObjectSet(g, ctx.l2)).values == g
            ]
            assert sorted(walked) == sorted(fixpoints), ctx

    @pytest.mark.parametrize("enumerate_", [fn_enumerate, fuzzy_concepts], ids=["fn", "concepts"])
    def test_at_most_one_closure_per_object_and_closed_set(self, enumerate_):
        # the first closure, of the empty set, then per closed set at most
        # one try per object
        rng = random.Random(720)
        for k in range(60):
            ctx = mixed_triple_context(rng, fine=k >= 40)
            shared = Budget(DEFAULT_ENUM_BUDGET)
            closed = len(enumerate_(ctx, shared))
            assert shared.found == closed
            assert shared.spent <= 1 + len(ctx.objects) * closed, ctx

    def test_inherited_failures_skip_candidates(self):
        # 4 x 4 on m = 4 under three triples; without the skip the walk
        # spends 40 closures on fn and 49 on the concepts
        ctx = mixed_triple_context(random.Random(0))
        for enumerate_, closures, closed in ((fn_enumerate, 38, 26), (fuzzy_concepts, 42, 34)):
            shared = Budget(DEFAULT_ENUM_BUDGET)
            assert len(enumerate_(ctx, shared)) == closed
            assert (shared.spent, shared.found) == (closures, closed)

    def test_a_context_closed_at_every_grade_lists_the_whole_grid(self):
        for n, m in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            extents = [c.extent.values for c in fuzzy_concepts(every_grade_context(n, m))]
            assert extents == list(product(range(m + 1), repeat=n))

    def test_a_walk_of_the_whole_grid_spends_one_closure_per_extent(self):
        # the 3 x 3 grid on 2 objects: every next grade bit closes to itself
        # plus that bit, so the walk spends one closure per extent, 9 in all
        shared = Budget(9)
        assert len(fuzzy_concepts(every_grade_context(2, 2), shared)) == 9
        assert (shared.spent, shared.found) == (9, 9)
        with pytest.raises(BudgetExceededError) as err:
            fuzzy_concepts(every_grade_context(2, 2), budget=8)
        assert (err.value.count, err.value.budget, err.value.found) == (8, 8, 8)


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


class TestFnClosureWalk:
    """fn's closure cl(g), the least member above g, and the walk over it."""

    def test_closure_is_the_meet_of_the_members_above(self):
        rng = random.Random(5040)
        for k in range(30):
            ctx = mixed_triple_context(rng, fine=k >= 20)
            close = fuzzy._fn_closure(ctx)
            members = {p.g.values: p.f.values for p in brute_fn(ctx)}
            m2, n = ctx.l2.m, len(ctx.objects)
            for g in product(range(m2 + 1), repeat=n):
                above = [h for h in members if all(map(int.__le__, g, h))]
                least = tuple(map(min, (m2,) * n, *above))
                assert close(thresholds(g, m2)) == (thresholds(least, m2), members[least]), ctx

    def test_a_fine_lukasiewicz_context_takes_one_closure(self):
        # the closure of the empty set is the top; the old scan over the
        # fixpoints of down-N o up-pi spent over 100,000 closures here
        ctx = parse_fuzzy_csv(LUKASIEWICZ_32_CSV, "lukasiewicz:32")
        shared = Budget(1)
        assert [p.g.values for p in fn_enumerate(ctx, shared)] == [(32,) * 4]
        assert (shared.spent, shared.found) == (1, 1)


def contranominal(n):
    """The n x n context where object j has every attribute but j: every
    attribute set is an intent, so FCbO closes each concept once and never
    rejects a candidate."""
    full = (1 << n) - 1
    names = [f"x{i}" for i in range(n)]
    return BooleanContext(names, names, [full & ~(1 << i) for i in range(n)])


def scan(ctx, budget):
    return closed_sets(ctx.rows, ctx.cols, budget)


def test_transpose_swaps_rows_and_columns():
    assert transpose([], 3) == (0, 0, 0)
    assert transpose([0, 0], 2) == (0, 0)
    assert transpose([5], 0) == ()
    rng = random.Random(142857)
    for _ in range(100):
        width, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = [rng.getrandbits(width) for _ in range(n)]
        cols = transpose(rows, width)
        assert cols == tuple(
            sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(width)
        )
        assert transpose(cols, n) == tuple(rows)


class TestScanBudget:
    # the budget caps the closure evaluations, the top's included.  FCbO on a
    # contranominal scale accepts every candidate, so it spends exactly one
    # closure per closed set

    def test_closed_sets_stops_before_call_budget_plus_one(self):
        shared = Budget(8)
        assert sorted(x for x, _ in scan(contranominal(3), shared)) == list(range(8))
        assert (shared.spent, shared.found) == (8, 8)
        err = exhausted(scan(contranominal(3), budget=7))
        assert (err.count, err.budget, err.found) == (7, 7, 7)
        assert err.unit == "closure evaluations"

    def test_rejected_candidates_are_counted(self):
        # two equal attributes on one of two objects: the top's second
        # candidate closes to both attributes, which the first one found
        ctx = BooleanContext(["a0", "a1"], ["b0", "b1"], [1, 1])
        shared = Budget(3)
        assert list(scan(ctx, shared)) == [(3, 0), (1, 3)]
        assert (shared.spent, shared.found) == (3, 2)
        err = exhausted(scan(ctx, budget=2))
        assert (err.count, err.found) == (2, 2)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_evaluates_nothing(self, budget):
        shared = Budget(budget)
        err = exhausted(scan(contranominal(3), shared))
        assert (err.count, err.found, shared.spent, shared.found) == (0, 0, 0, 0)
        for enumerate_ in (fn_enumerate, fuzzy_concepts):
            with pytest.raises(BudgetExceededError) as err:
                enumerate_(godel_r2(), shared)
            assert (err.value.count, err.value.found, shared.spent) == (0, 0, 0)

    def test_scans_sharing_a_budget_stop_together(self):
        # each scan of the 2 x 2 scale spends 4 closures and finds 4 concepts
        shared = Budget(10)
        for _ in range(2):
            assert len(list(scan(contranominal(2), shared))) == 4
        assert (shared.spent, shared.found) == (8, 8)
        err = exhausted(scan(contranominal(2), shared))
        assert (err.count, err.budget, err.found) == (10, 10, 10)
        assert (shared.spent, shared.found) == (10, 10)

    def test_fuzzy_scans_share_a_budget(self):
        # fn spends 57 closures for 55 members, the fuzzy concepts 9 for 7;
        # the first 4 closures of a second concept scan find 3 concepts
        shared = Budget(70)
        assert len(fn_enumerate(godel_r2(), shared)) == 55
        assert len(fuzzy_concepts(godel_r2(), shared)) == 7
        assert (shared.spent, shared.found) == (66, 62)
        with pytest.raises(BudgetExceededError) as err:
            fuzzy_concepts(godel_r2(), shared)
        assert (err.value.count, err.value.budget, err.value.found) == (70, 70, 65)
        assert (shared.spent, shared.found) == (70, 65)

    def test_an_abandoned_scan_charges_what_it_spent(self):
        shared = Budget(10)
        pairs = scan(contranominal(3), shared)
        assert [next(pairs), next(pairs)] == [(7, 0), (6, 1)]
        pairs.close()
        assert (shared.spent, shared.found) == (2, 2)

    def test_message_names_what_was_counted(self):
        err = exhausted(scan(contranominal(3), budget=5))
        assert str(err) == "the budget of 5 closure evaluations ran out, 5 closed sets found"

    def test_default_budget(self):
        assert DEFAULT_ENUM_BUDGET == 10_000_000


STAIRS = 1_100  # more than Python's default recursion limit of 1,000


def staircase(deep):
    """The STAIRS x STAIRS staircase: attribute i holds objects 0..i, or
    objects i..STAIRS-1 when ``deep``.  Its concepts form a chain either way;
    in the deep form each one is the FCbO child of the one above it, so the
    scan's tree is a path of STAIRS nodes, which a recursive scan could not
    walk."""
    full = (1 << STAIRS) - 1
    rows = [full >> i << i if deep else full >> (STAIRS - 1 - i) for i in range(STAIRS)]
    names = [f"s{i}" for i in range(STAIRS)]
    return BooleanContext(names, names, rows)


class TestStaircase:
    @pytest.mark.parametrize("deep", [False, True], ids=["staircase", "deep"])
    def test_concepts_form_a_chain(self, deep):
        assert sys.getrecursionlimit() < STAIRS
        lattice = concepts(staircase(deep))
        extents = lattice.keys[0]
        assert len(extents) == STAIRS
        assert all(x & ~y == 0 and x != y for x, y in zip(extents, extents[1:]))
        # a chain: each element is covered by the next one only
        assert lattice.cover_lists == [[i + 1] for i in range(STAIRS - 1)] + [[]]

    def test_cli_lattice_exits_0(self, tmp_path):
        path = tmp_path / "deep.cxt"
        path.write_text(format_cxt(staircase(deep=True)), encoding="utf-8")
        assert main(["lattice", str(path), "--out", str(tmp_path / "deep.json")]) == 0


class TestEnumeratorBudget:
    # each count is the smallest budget under which the enumeration finishes

    @pytest.mark.parametrize(WORKED_ARGS, WORKED)
    def test_exact_closure_count(self, enumerate_, ctx, closures, closed, elements):
        assert len(enumerate_(ctx, budget=closures)) == elements
        with pytest.raises(BudgetExceededError) as err:
            enumerate_(ctx, budget=closures - 1)
        # FCbO may spend its last closures on rejected candidates; on these
        # contexts the last closure each scan needs finds a closed set
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
        assert len(fn_enumerate(ctx, budget=45)) == 5
        with pytest.raises(BudgetExceededError):
            fn_enumerate(ctx, budget=44)
        assert len(fuzzy_concepts(ctx)) == 727
        assert len(fuzzy_concepts(ctx, budget=1148)) == 727
        with pytest.raises(BudgetExceededError):
            fuzzy_concepts(ctx, budget=1147)
