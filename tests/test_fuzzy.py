import dataclasses
import json
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
    GradedAttributeSet,
    GradedObjectSet,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    concepts,
    discretized_product_triple,
    f_down,
    f_down_n,
    f_down_pi,
    f_up,
    f_up_n,
    f_up_pi,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    in_fn,
    interval_from_pair,
    is_fuzzy_normalized,
    is_top_normalized,
    lukasiewicz_triple,
    triple_from_descriptor,
)
from galois_factor import io as fio
from galois_factor.fuzzy import CHECKS
from galois_factor.oracles import brute_cn
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
    random_context,
    random_fuzzy_context,
    random_normalized_context,
    twin_check_tree,
    twin_checks,
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

    def test_no_triple_rejected_at_construction(self):
        for build in (FuzzyContext, FuzzyContext.from_values):
            with pytest.raises(ValueError, match="at least one adjoint triple"):
                build(["a"], ["b"], [], [["1"]])
            # nor a side without names
            frame = godel_triple(GradeChain(4))
            for attributes, objects, relation in (([], ["b"], []), (["a"], [], [[]])):
                with pytest.raises(ValueError, match="sets must be non-empty"):
                    build(attributes, objects, (frame,), relation)

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

    @pytest.mark.parametrize("kind", ["concept-forming", None])
    def test_kind_must_be_a_frame_kind(self, kind):
        # three distinct chains: a kind read as another arrangement would
        # silently swap two of them
        triple = discretized_product_triple(2, 3, 4)
        with pytest.raises(TypeError, match="kind must be a FrameKind"):
            FuzzyContext.from_values(["a1"], ["b1"], triple, [["1/2"]], kind=kind)
        with pytest.raises(TypeError, match="kind must be a FrameKind"):
            FuzzyContext(["a1"], ["b1"], (triple,), [[1]], kind=kind)

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
        # and a relation of the wrong shape: a row too many, a row too short
        frame = (godel_triple(chain),)
        with pytest.raises(ValueError, match="one row per attribute"):
            FuzzyContext(["a1"], ["b1", "b2"], frame, [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="row length must equal the number of objects"):
            FuzzyContext(["a1"], ["b1", "b2"], frame, [[1]])

    @pytest.mark.parametrize("cell", [1.0, True, -1, "1"])
    def test_relation_takes_only_int_numerators(self, cell):
        chain = GradeChain(4)
        with pytest.raises(ValueError, match="not int numerators on"):
            FuzzyContext(["a1"], ["b1"], (godel_triple(chain),), [[cell]])


class TestGradedSets:
    @pytest.mark.parametrize("graded", [GradedObjectSet, GradedAttributeSet])
    @pytest.mark.parametrize("values", [(-1, 0), (7, 0), (1.0, 0), (True, 0)])
    def test_only_int_numerators_on_the_chain(self, graded, values):
        with pytest.raises(ValueError, match=r"not int numerators on \[0,1\]_4"):
            graded(values, GradeChain(4))

    def test_a_negative_grade_no_longer_reads_as_the_top(self):
        ctx = godel_r2()
        assert f_up(ctx, GradedObjectSet((0, 0, 0), GradeChain(4))) == ctx.f_top
        with pytest.raises(ValueError):
            f_up(ctx, GradedObjectSet((-1, 0, 0), GradeChain(4)))

    def test_a_mapping_with_unknown_names_is_refused(self):
        ctx = FuzzyContext.from_values(
            ["a1", "a2"], ["b1", "b2"], godel_triple(GradeChain(4)), [["1", "0"], ["0", "1"]]
        )
        assert ctx.graded_objects({"b1": 1, "b2": 0}).values == (4, 0)
        with pytest.raises(ValueError, match=r"unknown names \['zzz'\]"):
            ctx.graded_objects({"b1": 1, "b2": 0, "zzz": 1})
        with pytest.raises(ValueError, match=r"unknown names \['b1'\]"):
            ctx.graded_attributes({"a1": 1, "a2": 0, "b1": 1})
        # a mapping must grade every name, a sequence hold one grade per name
        with pytest.raises(ValueError, match=r"missing grades for \['b2'\]"):
            ctx.graded_objects({"b1": 1})
        with pytest.raises(ValueError, match="expected 2 grades, got 3"):
            ctx.graded_attributes(["1", "0", "1"])

    def test_comparison_takes_a_set_of_the_same_side_chain_and_length(self):
        chain = GradeChain(4)
        low, high = GradedObjectSet((0, 1), chain), GradedObjectSet((0, 2), chain)
        assert low < high and not high < low and not low < low
        with pytest.raises(TypeError, match="expected GradedObjectSet, got GradedAttributeSet"):
            low < GradedAttributeSet((0, 2), chain)
        for other in (GradedObjectSet((0, 2), GradeChain(8)), GradedObjectSet((0, 2, 0), chain)):
            for compare in (low.__le__, low.__lt__):
                with pytest.raises(ValueError, match="different chains or universes"):
                    compare(other)


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

    @pytest.mark.parametrize("index", [0.0, False, -1])
    def test_sigma_takes_only_int_indices(self, index):
        chain = GradeChain(4)
        triples = (godel_triple(chain), lukasiewicz_triple(chain))
        with pytest.raises(ValueError, match="not an int in range"):
            FuzzyContext(["a1", "a2"], ["b1", "b2"], triples, [[0, 0], [0, 0]],
                         sigma=[[index, 0], [0, 0]])


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
        # the walk needs 57 closure evaluations and stops before the 57th
        ctx = godel_r2()
        with pytest.raises(BudgetExceededError) as err:
            fn_enumerate(ctx, budget=56)
        assert (err.value.count, err.value.budget) == (56, 56)
        assert err.value.unit == "closure evaluations"
        assert len(fn_enumerate(ctx, budget=57)) == len(fn_enumerate(ctx))

    def test_canonical_order(self):
        lattice = fn_enumerate(godel_r2())
        gs = [p.g.values for p in lattice]
        assert gs == sorted(gs)


def every_cell_context(m: int, rng) -> FuzzyContext:
    """The Goedel, Lukasiewicz and dprod triples on {0..m}, mixed through
    sigma: object j holds a shuffled grade r(j) in every row, with triple
    (i + j) mod 3 in row i, so every (triple, relation grade) pair owns a
    lookup row of each operator."""
    chain = GradeChain(m)
    triples = (godel_triple(chain), lukasiewicz_triple(chain), discretized_product_triple(m, m, m))
    grades = rng.sample(range(m + 1), m + 1)
    objs = range(m + 1)
    return FuzzyContext(
        ["a0", "a1", "a2"],
        [f"b{j}" for j in objs],
        triples,
        [grades] * 3,
        [[(i + j) % 3 for j in objs] for i in range(3)],
    )


class TestThresholdBitFilter:
    """``fn_enumerate`` and ``fuzzy_concepts`` read their keys off the bits of
    their closures' threshold rows; the graded operator kernel
    ``fuzzy._apply`` never runs."""

    WORKED = (godel_r1, godel_r2, luk_table3, dprod_r1, dprod_r2)

    def test_threshold_families_are_nested_in_the_input_grade(self):
        from galois_factor.fuzzy import _family

        def grows(rows):  # each row within the next, one row per grade
            return len(rows) == m + 1 and all(a & ~b == 0 for a, b in zip(rows, rows[1:]))

        rng = random.Random(65537)
        for m in range(1, 17):
            ctx = every_cell_context(m, rng)
            cells = {(t, r) for ts, rs in zip(ctx.sigma, ctx.relation) for t, r in zip(ts, rs)}
            assert len(cells) == 3 * (m + 1)
            every = (1 << len(ctx.objects) * m) - 1
            # down shrinks in c; down_n and down_pi grow, so fn's masks are nested
            for rows in _family(ctx, "down"):
                assert grows(rows[::-1]) and rows[0] == every, m
            for rows in _family(ctx, "down_n"):
                assert grows(rows) and rows[m] == every, m
            for rows in _family(ctx, "down_pi"):
                assert grows(rows) and rows[0] == 0, m
            # the mirror on the attribute side: up shrinks in a; up_pi and up_n grow
            every = (1 << len(ctx.attributes) * m) - 1
            for rows in _family(ctx, "up"):
                assert grows(rows[::-1]) and rows[0] == every, m
            for rows in _family(ctx, "up_pi"):
                assert grows(rows) and rows[0] == 0, m
            for rows in _family(ctx, "up_n"):
                assert grows(rows) and rows[m] == every, m
            for op in ("up", "down", "up_pi", "down_n", "up_n", "down_pi"):
                assert _family(ctx, op) is _family(ctx, op), (m, op)

    def keys(self, ctx):
        return fn_enumerate(ctx).keys, fuzzy_concepts(ctx).keys

    def test_keys_are_the_operator_images_with_no_operator_run(self, monkeypatch):
        from galois_factor import fuzzy

        rng = random.Random(1024)
        contexts = [make() for make in self.WORKED]
        contexts += [twin_context(rng, k % 4) for k in range(100)]
        expected = [self.keys(ctx) for ctx in contexts]
        for ctx, ((gs, fs), (extents, intents)) in zip(contexts, expected):
            for g, f in zip(gs, fs):
                assert fuzzy._apply(ctx, "up_n", g) == f
                assert fuzzy._apply(ctx, "down_n", f) == g
            assert intents == [fuzzy._apply(ctx, "up", x) for x in extents]

        def refused(*args):
            raise AssertionError("an enumerator evaluated a graded operator")

        monkeypatch.setattr(fuzzy, "_apply", refused)
        for ctx in contexts:
            ctx._families.clear()  # the threshold families are built afresh too
        assert [self.keys(ctx) for ctx in contexts] == expected


def pair_meet(ctx, p, q):
    """The componentwise meet of two pairs, checked to be necessity-closed."""
    met = FuzzyNecessityPair(
        GradedObjectSet(tuple(map(min, p.g.values, q.g.values)), ctx.l2),
        GradedAttributeSet(tuple(map(min, p.f.values, q.f.values)), ctx.l1),
    )
    assert in_fn(ctx, met)
    return met


class TestFnMeet:
    def test_meet_with_top_is_identity(self):
        ctx = dprod_r2()
        lattice = fn_enumerate(ctx)
        top = lattice[lattice.top_index]
        for pair in lattice:
            met = pair_meet(ctx, pair, top)
            assert met == pair

    def test_meet_of_reference_pairs(self):
        ctx = dprod_r2()
        p3 = fn_pair(ctx, ("0.25", "0", "0.5"), ("0.5", "0", "0.25"))
        p4 = fn_pair(ctx, ("0.5", "0", "0.25"), ("0.25", "0", "0.5"))
        met = pair_meet(ctx, p3, p4)
        assert values(met.g) == ("1/4", "0", "1/4")
        assert values(met.f) == ("1/4", "0", "1/4")

    def test_global_meet_is_bottom(self):
        ctx = dprod_r2()
        lattice = fn_enumerate(ctx)
        acc = lattice[0]
        for pair in lattice:
            acc = pair_meet(ctx, acc, pair)
        assert acc == lattice[lattice.bottom_index]


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
        extents = {c.extent for c in fuzzy_concepts(ctx)}
        assert ctx.graded_objects(["1", "0", "1"]) in extents

    def test_budget_guard(self):
        # 9 closure evaluations find the 7 concepts; 8 find all but one
        with pytest.raises(BudgetExceededError) as err:
            fuzzy_concepts(godel_r2(), budget=8)
        assert (err.value.count, err.value.found) == (8, 6)
        assert len(fuzzy_concepts(godel_r2(), budget=9)) == 7


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


def bit_pair(x, y):
    """Two 0/1 grade rows as the bits of their 1 grades."""
    return tuple(sum(1 << i for i, v in enumerate(row) if v) for row in (x, y))


class TestClassicalCase:
    # at m = 1 every frame is two-valued logic, so the graded lattices of a
    # Boolean context are its Boolean ones
    @pytest.mark.parametrize("frame", ["godel:1", "lukasiewicz:1", "dprod:1,1,1"])
    def test_m1_lattices_are_the_boolean_ones(self, frame):
        rng = random.Random(f"classical {frame}")
        triple = triple_from_descriptor(frame)
        for k in range(150):
            ctx = (random_normalized_context if k % 2 else random_context)(rng, max_side=6)
            grid = [[int(cell) for cell in row] for row in ctx.incidence]
            fctx = FuzzyContext.from_values(ctx.attributes, ctx.objects, triple, grid)
            assert sorted(map(bit_pair, *fn_enumerate(fctx).keys)) == [
                (p.objects.bits, p.attrs.bits) for p in brute_cn(ctx)
            ]
            # the graded lattices list extents by grade tuples, not by bits
            assert set(map(bit_pair, *fuzzy_concepts(fctx).keys)) == set(zip(*concepts(ctx).keys))


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
        by_extent = {c.extent: c for c in fuzzy_concepts(ctx)}
        for pair in fn_enumerate(ctx):
            interval = interval_from_pair(ctx, pair)
            assert by_extent[interval.lower.extent] == interval.lower
            assert by_extent[interval.upper.extent] == interval.upper

    def test_hypotheses_force_ordering_on_top_normalized_frames(self):
        ctx = godel_r2()
        hypothesis_seen = False
        for pair in fn_enumerate(ctx):
            if check_fp4(ctx, pair).all_hypotheses_hold:
                hypothesis_seen = True
                assert interval_from_pair(ctx, pair).ordered
        assert hypothesis_seen


def twin_context(rng, kind: int) -> FuzzyContext:
    """Goedel (kind 0), Lukasiewicz (1), dprod (2) or two or three of them
    mixed cell by cell through sigma (3), on m = 2..5, 1-3 x 1-4."""
    m = rng.randint(2, 5)
    chain = GradeChain(m)
    frames = [godel_triple(chain), lukasiewicz_triple(chain), discretized_product_triple(m, m, m)]
    triples = frames[kind:kind + 1] if kind < 3 else rng.sample(frames, rng.randint(2, 3))
    n_attrs, n_objs = rng.randint(1, 3), rng.randint(1, 4)
    sigma = None
    if kind == 3:
        sigma = [[rng.randrange(len(triples)) for _ in range(n_objs)] for _ in range(n_attrs)]
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        triples,
        [[rng.randint(0, m) for _ in range(n_objs)] for _ in range(n_attrs)],
        sigma,
    )


# names holding a JSON escape, the report's leaf marker NUL and the
# metacharacters of ``%`` templates
TEMPLATE_NAMES = ["\0", "%s", "%%", "%(x)s", "{0}", '"', "\\", "é"]


class TestChecksAgainstOperatorTwin:
    CHECKERS = dict(zip(CHECKS, (check_fp1, check_fp2, check_fp3, check_fp4, interval_from_pair)))

    def test_report_rows_and_checkers_equal_the_twin(self):
        # 80 contexts, 20 per frame kind, half of them renamed; the report runs
        # with every, no and a shuffled subset of the propositions, on all
        # pairs, none, all reversed and a repeating selection
        rng = random.Random(21)
        seen = set()
        for k in range(80):
            ctx = twin_context(rng, k % 4)
            if k % 2:
                ctx = dataclasses.replace(
                    ctx,
                    attributes=[rng.choice(TEMPLATE_NAMES) + a for a in ctx.attributes],
                    objects=[rng.choice(TEMPLATE_NAMES) + b for b in ctx.objects],
                )
            lattice = fn_enumerate(ctx)
            n = len(lattice)
            selections = (range(n), [], range(n - 1, -1, -1), [min(2, n - 1), 0, min(2, n - 1)])
            for props in (CHECKS, [], rng.sample(CHECKS, rng.randint(1, 4))):
                for selected in selections:
                    tree = twin_check_tree(ctx, lattice, selected, props)
                    report = fio.check_report(ctx, lattice, selected, props)
                    assert fio.emit_json(report) == json.dumps(
                        tree, indent=2, ensure_ascii=False
                    ) + "\n"
            for pair in lattice:
                twin = twin_checks(ctx, pair)
                assert {p: check(ctx, pair) for p, check in self.CHECKERS.items()} == twin
                seen.add((twin["fp3"], twin["fp4"].inequality_holds, twin["fp5"].ordered))
        # the propositions that are no theorems come out both ways
        for position in range(3):
            assert {s[position] for s in seen} == {True, False}


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
