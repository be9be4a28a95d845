import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from galois_factor import (
    BudgetExceededError,
    FrameArrangementError,
    FrameKind,
    FuzzyContext,
    FuzzyNecessityPair,
    GradeChain,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    discretized_product_triple,
    f_down,
    f_down_n,
    f_down_pi,
    f_up,
    f_up_n,
    f_up_pi,
    fn_enumerate,
    fn_meet,
    fuzzy_concepts,
    godel_triple,
    in_fn,
    interval_from_pair,
    is_fuzzy_normalized,
    is_top_normalized,
    lukasiewicz_triple,
)
from tables import (
    DPROD_R2_FN_LISTED,
    GODEL_R2_CONCEPTS,
    GODEL_R2_FN_LISTED,
    dprod_r1,
    dprod_r2,
    fuzzy_value_set,
    godel_r1,
    godel_r2,
    luk_table3,
    random_fuzzy_context,
)


def fn_pair(ctx, g_values, f_values):
    return FuzzyNecessityPair(
        ctx.graded_objects(g_values), ctx.graded_attributes(f_values)
    )


def values(graded):
    return tuple(str(v) for v in graded.as_fractions())


class TestDerivationOperators:
    def test_up_on_godel_r2(self):
        ctx = godel_r2()
        g3 = ctx.graded_objects(["1", "0.75", "0"])
        assert values(f_up(ctx, g3)) == ("1/4", "1/2", "0")

    def test_down_of_bottom_attributes_is_top(self):
        ctx = godel_r2()
        assert f_down(ctx, ctx.f_bottom) == ctx.g_top

    def test_down_on_godel_r2(self):
        ctx = godel_r2()
        f2 = ctx.graded_attributes(["0.75", "0.5", "0"])
        assert values(f_down(ctx, f2)) == ("1", "1/4", "0")


class TestPossibilityAndNecessity:
    def test_up_pi_on_table5(self):
        ctx = godel_r1()
        g = ctx.graded_objects(["1", "0.5", "0"])
        assert values(f_up_pi(ctx, g)) == ("1/2", "1/2", "0")

    def test_up_pi_of_bottom(self):
        for ctx in (godel_r1(), godel_r2(), dprod_r2()):
            assert f_up_pi(ctx, ctx.g_bottom) == ctx.f_bottom

    def test_down_n_on_dprod_r2(self):
        ctx = dprod_r2()
        f10 = ctx.graded_attributes(["1", "0", "1"])
        assert values(f_down_n(ctx, f10)) == ("1", "0", "1")

    def test_up_n_of_bottom_on_lukasiewicz(self):
        ctx = luk_table3()
        assert values(f_up_n(ctx, ctx.g_bottom)) == ("1/2", "1/4")

    def test_up_n_of_top_is_top(self):
        for ctx in (godel_r1(), godel_r2(), luk_table3(), dprod_r2()):
            assert f_up_n(ctx, ctx.g_top) == ctx.f_top

    def test_up_n_on_godel_r2(self):
        ctx = godel_r2()
        g2 = ctx.graded_objects(["0.75", "0.5", "0"])
        assert values(f_up_n(ctx, g2)) == ("3/4", "1/2", "0")


class TestFrameArrangements:
    def test_concept_forming_only_frame(self):
        triple = discretized_product_triple(4, 8, 10)
        ctx = FuzzyContext.from_values(
            ["a1"], ["b1", "b2"], triple, [["0.5", "0.2"]]
        )
        f_up(ctx, ctx.g_top)  # available
        with pytest.raises(FrameArrangementError):
            f_up_n(ctx, ctx.g_top)
        with pytest.raises(FrameArrangementError):
            f_up_pi(ctx, ctx.g_top)
        with pytest.raises(FrameArrangementError):
            fn_enumerate(ctx)

    def test_property_oriented_frame(self):
        triple = discretized_product_triple(4, 8, 10)
        ctx = FuzzyContext.from_values(
            ["a1"], ["b1"], triple, [["0.25"]], kind=FrameKind.PROPERTY_ORIENTED
        )
        assert ctx.p.m == 4 and ctx.l2.m == 8 and ctx.l1.m == 10
        f_up_pi(ctx, ctx.g_top)
        f_down_n(ctx, ctx.f_top)
        with pytest.raises(FrameArrangementError):
            f_up(ctx, ctx.g_top)

    def test_object_oriented_frame(self):
        triple = discretized_product_triple(4, 8, 10)
        ctx = FuzzyContext.from_values(
            ["a1"], ["b1"], triple, [["0.5"]], kind=FrameKind.OBJECT_ORIENTED
        )
        assert ctx.l1.m == 4 and ctx.p.m == 8 and ctx.l2.m == 10
        f_up_n(ctx, ctx.g_top)
        f_down_pi(ctx, ctx.f_top)
        with pytest.raises(FrameArrangementError):
            f_down(ctx, ctx.f_top)

    def test_mismatched_triple_rejected_at_construction(self):
        mixed = (godel_triple(GradeChain(4)), discretized_product_triple(4, 8, 10))
        for triples in (mixed, mixed[::-1]):
            with pytest.raises(FrameArrangementError, match="has domains"):
                FuzzyContext(["a1"], ["b1"], triples, [[2]])

    @pytest.mark.parametrize(
        "kind, names",
        [
            (FrameKind.CONCEPT_FORMING, ("l1", "l2", "p")),
            (FrameKind.PROPERTY_ORIENTED, ("p", "l2", "l1")),
            (FrameKind.OBJECT_ORIENTED, ("l1", "p", "l2")),
        ],
    )
    def test_chains_are_read_off_the_triple(self, kind, names):
        triple = discretized_product_triple(4, 8, 10)
        ctx = FuzzyContext(["a1"], ["b1"], (triple, triple), [[0]], kind=kind)
        assert tuple(getattr(ctx, name) for name in names) == triple.domains

    def test_chains_are_not_init_fields(self):
        fields = dataclasses.fields(FuzzyContext)
        assert [f.name for f in fields if f.init] == [
            "attributes", "objects", "triples", "relation", "sigma", "kind"
        ]
        assert [f.name for f in fields if not f.init] == ["l1", "l2", "p"]

    def test_uniform_frame_supports_all_six_operators(self):
        ctx = godel_r2()
        for op, arg in (
            (f_up, ctx.g_top), (f_down, ctx.f_top), (f_up_pi, ctx.g_top),
            (f_down_n, ctx.f_top), (f_up_n, ctx.g_top), (f_down_pi, ctx.f_top),
        ):
            op(ctx, arg)

    def test_off_chain_relation_rejected(self):
        chain = GradeChain(4)
        with pytest.raises(ValueError):
            FuzzyContext(["a1"], ["b1"], (godel_triple(chain),), [[9]])


class TestSigma:
    def test_per_cell_triple_selection(self):
        chain = GradeChain(4)
        ctx = FuzzyContext.from_values(
            ["a1", "a2"],
            ["b1"],
            (godel_triple(chain), lukasiewicz_triple(chain)),
            [["0.75"], ["0.75"]],
            sigma=[[0], [1]],
        )
        g = ctx.graded_objects(["0.25"])
        # same relation grade, different residuum per row:
        # Goedel gives 0.25, Lukasiewicz min(1, 1-0.75+0.25) = 0.5
        assert values(f_up_n(ctx, g)) == ("1/4", "1/2")

    def test_sigma_index_out_of_range(self):
        chain = GradeChain(4)
        with pytest.raises(ValueError):
            FuzzyContext.from_values(
                ["a1"], ["b1"], godel_triple(chain), [["0.5"]], sigma=[[1]]
            )


class TestFnEnumerate:
    def test_dprod_r2_has_twenty_pairs(self):
        lattice = fn_enumerate(dprod_r2())
        assert len(lattice) == 20

    def test_dprod_r2_contains_the_reference_pairs(self):
        ctx = dprod_r2()
        members = fuzzy_value_set(fn_enumerate(ctx))
        for g_values, f_values in DPROD_R2_FN_LISTED:
            pair = fn_pair(ctx, g_values, f_values)
            assert (pair.g.values, pair.f.values) in members

    def test_top_pair_is_always_a_member(self):
        for ctx in (godel_r1(), godel_r2(), luk_table3(), dprod_r1(), dprod_r2()):
            lattice = fn_enumerate(ctx)
            assert lattice[lattice.top_index].g == ctx.g_top
            assert lattice[lattice.top_index].f == ctx.f_top

    def test_lukasiewicz_bottom_pair_is_not_a_member(self):
        ctx = luk_table3()
        assert not in_fn(ctx, FuzzyNecessityPair(ctx.g_bottom, ctx.f_bottom))
        assert all(p.g != ctx.g_bottom for p in fn_enumerate(ctx))

    def test_godel_r2_contains_the_reference_pairs(self):
        ctx = godel_r2()
        members = fuzzy_value_set(fn_enumerate(ctx))
        for g_values, f_values in GODEL_R2_FN_LISTED:
            pair = fn_pair(ctx, g_values, f_values)
            assert (pair.g.values, pair.f.values) in members

    def test_unnormalized_context_still_has_pairs(self):
        # closures exist even with no independent subcontexts
        ctx = dprod_r1()
        assert not is_fuzzy_normalized(ctx)
        pair = fn_pair(ctx, ("1", "0.5", "0.5"), ("0.5", "0.5", "0.5"))
        assert in_fn(ctx, pair)

    def test_budget_exceeded_reports_required(self):
        # the scan needs 71 closure evaluations and stops before the 71st
        ctx = godel_r2()
        with pytest.raises(BudgetExceededError) as err:
            fn_enumerate(ctx, budget=70)
        assert (err.value.count, err.value.budget) == (70, 70)
        assert err.value.unit == "closure evaluations"
        assert len(fn_enumerate(ctx, budget=71)) == len(fn_enumerate(ctx))

    def test_canonical_order(self):
        lattice = fn_enumerate(godel_r2())
        gs = [p.g.values for p in lattice]
        assert gs == sorted(gs)


class TestFnMeet:
    def test_meet_with_top_is_identity(self):
        ctx = dprod_r2()
        lattice = fn_enumerate(ctx)
        top = lattice[lattice.top_index]
        for pair in lattice:
            met = fn_meet(ctx, pair, top)
            assert met == pair

    def test_meet_of_reference_pairs(self):
        ctx = dprod_r2()
        p3 = fn_pair(ctx, ("0.25", "0", "0.5"), ("0.5", "0", "0.25"))
        p4 = fn_pair(ctx, ("0.5", "0", "0.25"), ("0.25", "0", "0.5"))
        met = fn_meet(ctx, p3, p4)
        assert values(met.g) == ("1/4", "0", "1/4")
        assert values(met.f) == ("1/4", "0", "1/4")

    def test_global_meet_is_bottom(self):
        ctx = dprod_r2()
        lattice = fn_enumerate(ctx)
        acc = lattice[0]
        for pair in lattice:
            acc = fn_meet(ctx, acc, pair)
        assert acc == lattice[lattice.bottom_index]
        assert in_fn(ctx, acc)


class TestFuzzyConcepts:
    def test_godel_r2_concepts_match_reference_list(self):
        ctx = godel_r2()
        lattice = fuzzy_concepts(ctx)
        assert len(lattice) == 7
        got = {
            (tuple(map(str, c.extent.as_fractions())), tuple(map(str, c.intent.as_fractions())))
            for c in lattice
        }
        want = {
            (tuple(str(Fraction(v)) for v in ext), tuple(str(Fraction(v)) for v in intent))
            for ext, intent in GODEL_R2_CONCEPTS
        }
        assert got == want

    def test_top_concept_has_full_extent(self):
        ctx = godel_r2()
        lattice = fuzzy_concepts(ctx)
        assert lattice[lattice.top_index].extent == ctx.g_top

    def test_dprod_r2_has_concept_with_reference_extent(self):
        ctx = dprod_r2()
        lattice = fuzzy_concepts(ctx)
        assert lattice.find_extent(ctx.graded_objects(["1", "0", "1"])) is not None

    def test_budget_guard(self):
        # 11 closure evaluations find the 7 concepts; 10 find all but the top
        with pytest.raises(BudgetExceededError) as err:
            fuzzy_concepts(godel_r2(), budget=10)
        assert (err.value.count, err.value.found) == (10, 6)
        assert len(fuzzy_concepts(godel_r2(), budget=11)) == 7


class TestChainEmbedding:
    def test_godel_operators_agree_across_refined_chains(self):
        # values on the m=4 grid embed into m=8; Goedel min and residuum
        # never leave the coarse grid, so every operator must commute with
        # the embedding
        coarse = godel_r2()
        fine = FuzzyContext.from_values(
            coarse.attributes,
            coarse.objects,
            godel_triple(GradeChain(8)),
            [[Fraction(v, 4) for v in row] for row in coarse.relation],
        )
        for g_num in [(0, 0, 0), (1, 2, 3), (4, 1, 0), (2, 2, 2), (3, 0, 4)]:
            g4 = coarse.graded_objects([Fraction(v, 4) for v in g_num])
            g8 = fine.graded_objects([Fraction(v, 4) for v in g_num])
            for op4, op8 in ((f_up, f_up), (f_up_n, f_up_n), (f_up_pi, f_up_pi)):
                assert op4(coarse, g4).as_fractions() == op8(fine, g8).as_fractions()


class TestTopNormalization:
    def test_godel_r2_rows(self):
        assert is_top_normalized(godel_r2(), "rows")

    def test_godel_r1_not_top_normalized(self):
        assert is_fuzzy_normalized(godel_r1())
        assert not is_top_normalized(godel_r1(), "rows")

    def test_dprod_r1_not_even_normalized(self):
        assert not is_fuzzy_normalized(dprod_r1())
        assert not is_top_normalized(dprod_r1(), "rows")

    def test_columns_axis(self):
        assert is_top_normalized(godel_r2(), "columns")
        with pytest.raises(ValueError):
            is_top_normalized(godel_r2(), "diagonal")


class TestPropositionCheckers:
    def test_fp1_on_all_members(self):
        for ctx in (luk_table3(), godel_r2(), dprod_r2()):
            for pair in fn_enumerate(ctx):
                assert check_fp1(ctx, pair)

    def test_fp1_top_pair_equality(self):
        ctx = godel_r2()
        pair = FuzzyNecessityPair(ctx.g_top, ctx.f_top)
        assert check_fp1(ctx, pair)
        assert f_up_pi(ctx, ctx.g_top) == f_up_n(ctx, ctx.g_top)

    def test_fp1_strict_on_table5_pair(self):
        ctx = godel_r1()
        pair = fn_pair(ctx, ("1", "0.5", "0"), ("1", "0.5", "0"))
        assert check_fp1(ctx, pair)
        assert not f_up_n(ctx, pair.g) <= f_up_pi(ctx, pair.g)

    def test_fp2_on_all_members(self):
        for ctx in (godel_r2(), dprod_r2()):
            for pair in fn_enumerate(ctx):
                assert check_fp2(ctx, pair)

    def test_fp2_without_concept_closure(self):
        # the pair is property-oriented closed although <g, g-up> is no concept
        ctx = dprod_r2()
        pair = fn_pair(ctx, ("0.25", "0", "0.25"), ("0.25", "0", "0.25"))
        assert check_fp2(ctx, pair)
        g_up = f_up(ctx, pair.g)
        assert values(g_up) == ("1", "0", "1")
        assert values(f_down(ctx, g_up)) == ("1/2", "0", "1/4")
        assert f_down(ctx, g_up) != pair.g

    def test_fp3_on_top_normalized_godel(self):
        ctx = godel_r2()
        for pair in fn_enumerate(ctx):
            assert check_fp3(ctx, pair)
            assert f_up_n(ctx, pair.g) == f_up_pi(ctx, pair.g)

    def test_fp3_fails_without_top_normalization(self):
        ctx = godel_r1()
        pair = fn_pair(ctx, ("1", "0.5", "0"), ("1", "0.5", "0"))
        assert in_fn(ctx, pair)
        assert not check_fp3(ctx, pair)

    def test_checkers_reject_non_members(self):
        ctx = godel_r2()
        bad = fn_pair(ctx, ("1", "0", "0"), ("0", "0", "1"))
        for checker in (check_fp1, check_fp2, check_fp3, check_fp4, interval_from_pair):
            with pytest.raises(ValueError):
                checker(ctx, bad)

    def test_fp4_hypothesis_failure_at_third_attribute(self):
        ctx = godel_r2()
        pair = fn_pair(ctx, ("0", "0", "0.75"), ("0", "0", "0.75"))
        report = check_fp4(ctx, pair)
        assert report.hypothesis_holds_per_attribute == (True, True, False)
        assert not report.all_hypotheses_hold
        assert not report.inequality_holds
        assert str(report.g_up.as_fractions()[2]) == "1"
        assert str(report.g_up_pi.as_fractions()[2]) == "3/4"

    def test_fp4_strict_hypothesis_everywhere(self):
        ctx = godel_r2()
        pair = fn_pair(ctx, ("0.75", "0.5", "0"), ("0.75", "0.5", "0"))
        report = check_fp4(ctx, pair)
        assert report.all_hypotheses_hold
        assert all(report.strict_hypothesis)
        assert report.inequality_holds

    def test_fp4_top_witness(self):
        ctx = godel_r2()
        pair = fn_pair(ctx, ("1", "0.75", "0"), ("1", "0.75", "0"))
        report = check_fp4(ctx, pair)
        assert report.top_hypothesis[0]  # R(a1,b1) = g(b1) = top
        assert report.all_hypotheses_hold
        assert report.inequality_holds


class TestIntervals:
    @pytest.mark.parametrize(
        "g_values,lower_extent,upper_extent",
        [
            (("0.75", "0.5", "0"), ("1", "0.25", "0"), ("1", "1", "0")),
            (("1", "0.75", "0"), ("0.5", "0.25", "0"), ("1", "1", "0")),
            (("0", "0", "0.5"), ("0", "0", "1"), ("0", "0", "1")),
            (("0.75", "0.5", "0.5"), ("0", "0", "0"), ("1", "1", "1")),
        ],
    )
    def test_reference_intervals(self, g_values, lower_extent, upper_extent):
        ctx = godel_r2()
        pair = fn_pair(ctx, g_values, g_values)
        interval = interval_from_pair(ctx, pair)
        assert interval.ordered
        assert interval.lower.extent == ctx.graded_objects(lower_extent)
        assert interval.upper.extent == ctx.graded_objects(upper_extent)

    def test_interval_endpoints_are_concepts(self):
        ctx = godel_r2()
        lattice = fuzzy_concepts(ctx)
        for pair in fn_enumerate(ctx):
            interval = interval_from_pair(ctx, pair)
            assert lattice.find_extent(interval.lower.extent) == interval.lower
            assert lattice.find_extent(interval.upper.extent) == interval.upper

    def test_hypotheses_force_ordering_on_top_normalized_frames(self):
        ctx = godel_r2()
        hypothesis_seen = False
        for pair in fn_enumerate(ctx):
            if check_fp4(ctx, pair).all_hypotheses_hold:
                hypothesis_seen = True
                assert interval_from_pair(ctx, pair).ordered
        assert hypothesis_seen


@st.composite
def fuzzy_context_and_sets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    ctx = random_fuzzy_context(rng)
    g1 = ctx.graded_objects(
        [Fraction(draw(st.integers(0, ctx.l2.m)), ctx.l2.m) for _ in ctx.objects]
    )
    g2 = ctx.graded_objects(
        [Fraction(draw(st.integers(0, ctx.l2.m)), ctx.l2.m) for _ in ctx.objects]
    )
    f1 = ctx.graded_attributes(
        [Fraction(draw(st.integers(0, ctx.l1.m)), ctx.l1.m) for _ in ctx.attributes]
    )
    return ctx, g1, g2, f1


@settings(deadline=None)
@given(fuzzy_context_and_sets())
def test_graded_galois_connections(drawn):
    ctx, g1, g2, f1 = drawn
    # antitone pair
    assert g1 <= f_down(ctx, f_up(ctx, g1))
    assert f1 <= f_up(ctx, f_down(ctx, f1))
    assert f_up(ctx, f_down(ctx, f_up(ctx, g1))) == f_up(ctx, g1)
    if g1 <= g2:
        assert f_up(ctx, g2) <= f_up(ctx, g1)
    # isotone pair (up_pi, down_n)
    assert g1 <= f_down_n(ctx, f_up_pi(ctx, g1))
    assert f_up_pi(ctx, f_down_n(ctx, f1)) <= f1
    assert f_up_pi(ctx, f_down_n(ctx, f_up_pi(ctx, g1))) == f_up_pi(ctx, g1)
    assert (f_up_pi(ctx, g1) <= f1) == (g1 <= f_down_n(ctx, f1))
    # isotone pair (up_n, down_pi)
    assert f1 <= f_up_n(ctx, f_down_pi(ctx, f1))
    assert f_down_pi(ctx, f_up_n(ctx, g1)) <= g1
    assert f_down_pi(ctx, f_up_n(ctx, f_down_pi(ctx, f1))) == f_down_pi(ctx, f1)
    assert (f_down_pi(ctx, f1) <= g1) == (f1 <= f_up_n(ctx, g1))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_fn_members_satisfy_fp1_and_fp2(seed):
    ctx = random_fuzzy_context(random.Random(seed))
    lattice = fn_enumerate(ctx)
    for pair in lattice:
        assert check_fp1(ctx, pair)
        assert check_fp2(ctx, pair)
