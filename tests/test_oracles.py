import random

import pytest

from galois_factor import (
    BooleanContext,
    BudgetExceededError,
    FrameKind,
    FuzzyContext,
    GradeChain,
    cn_atoms,
    cn_enumerate,
    concepts,
    discretized_product_triple,
    fn_enumerate,
    fuzzy,
    fuzzy_concepts,
    godel_triple,
    lukasiewicz_triple,
    oracles,
)
from galois_factor.oracles import (
    bipartite_components,
    brute_cn,
    brute_concepts,
    brute_fn,
    brute_fuzzy_concepts,
    compare_atoms,
    compare_cn,
    compare_concepts,
    compare_fn,
    compare_fuzzy_concepts,
)
from tables import (
    GODEL_R2_CONCEPTS,
    TABLE1,
    TABLE2,
    dprod_r1,
    dprod_r2,
    godel_r1,
    godel_r2,
    luk_table3,
    pair_set,
    random_context,
    random_fuzzy_context,
    random_normalized_context,
)


class TestBruteConcepts:
    def test_matches_fast_path_on_worked_tables(self):
        for ctx in (TABLE1, TABLE2):
            assert set(brute_concepts(ctx)) == set(concepts(ctx))

    def test_degenerate_context(self):
        ctx = BooleanContext.from_rows(["a1"], ["b1"], [[0]])
        lattice = brute_concepts(ctx)
        # empty relation: <B, {}> and <{}, A> are the only closures
        assert len(lattice) == 2

    def test_seeded_random_agreement(self):
        rng = random.Random(6021023)
        for _ in range(30):
            ctx = random_context(rng, max_side=6)
            report = compare_concepts(ctx, concepts(ctx))
            assert report.ok, report.mismatches

    def test_subset_budget_guard(self):
        ctx = BooleanContext.from_rows(
            ["a"], [f"b{i}" for i in range(21)], [[1] * 21]
        )
        with pytest.raises(BudgetExceededError):
            brute_concepts(ctx)


class TestBruteCn:
    def test_table1_pairs(self):
        assert pair_set(brute_cn(TABLE1)) == pair_set(cn_enumerate(TABLE1))
        assert len(brute_cn(TABLE1)) == 8

    def test_table2_pair_count(self):
        assert len(brute_cn(TABLE2)) == 8

    def test_seeded_random_agreement_with_atom_powerset(self):
        rng = random.Random(987)
        for _ in range(30):
            ctx = random_normalized_context(rng, max_side=7)
            report = compare_cn(ctx, list(cn_enumerate(ctx)))
            assert report.ok, report.mismatches


class TestBruteFn:
    def test_dprod_r2_twenty_pairs(self):
        assert len(brute_fn(dprod_r2())) == 20

    def test_lukasiewicz_excludes_bottom(self):
        ctx = luk_table3()
        assert all(p.g != ctx.g_bottom for p in brute_fn(ctx))

    def test_godel_r2_agrees_with_fast_path(self):
        ctx = godel_r2()
        report = compare_fn(ctx, list(fn_enumerate(ctx)))
        assert report.ok

    def test_godel_r2_includes_reference_pairs(self):
        from tables import GODEL_R2_FN_LISTED

        ctx = godel_r2()
        members = {(p.g.values, p.f.values) for p in brute_fn(ctx)}
        for g_values, f_values in GODEL_R2_FN_LISTED:
            g = ctx.graded_objects(g_values)
            f = ctx.graded_attributes(f_values)
            assert (g.values, f.values) in members

    def test_seeded_random_agreement(self):
        rng = random.Random(321)
        for _ in range(20):
            ctx = random_fuzzy_context(rng)
            report = compare_fn(ctx, list(fn_enumerate(ctx)))
            assert report.ok, report.mismatches


class TestBruteFuzzyConcepts:
    def test_godel_r2_reference_list(self):
        ctx = godel_r2()
        found = {
            (c.extent.values, c.intent.values) for c in brute_fuzzy_concepts(ctx)
        }
        expected = {
            (ctx.graded_objects(e).values, ctx.graded_attributes(i).values)
            for e, i in GODEL_R2_CONCEPTS
        }
        assert found == expected

    def test_worked_contexts_agree_with_fast_path(self):
        for ctx in (godel_r1(), godel_r2(), dprod_r1(), dprod_r2(), luk_table3()):
            report = compare_fuzzy_concepts(ctx, fuzzy_concepts(ctx))
            assert report.ok, report.mismatches

    def test_seeded_random_agreement(self):
        rng = random.Random(654)
        for _ in range(20):
            ctx = random_fuzzy_context(rng)
            report = compare_fuzzy_concepts(ctx, fuzzy_concepts(ctx))
            assert report.ok, report.mismatches

    def test_dropped_concept_is_reported(self):
        ctx = godel_r2()
        fast = fuzzy_concepts(ctx)
        short = type(fast)(ctx, fast.kind, tuple(side[1:] for side in fast.keys))
        report = compare_fuzzy_concepts(ctx, short)
        assert report.checked == 7
        assert [w[1] for w in report.mismatches] == ["absent from fast enumeration"]

    def test_grid_budget_guard(self):
        from galois_factor import FuzzyContext, GradeChain, godel_triple

        chain = GradeChain(4)
        ctx = FuzzyContext(
            ["a"], [f"b{j}" for j in range(11)], (godel_triple(chain),), [[0] * 11],
        )
        with pytest.raises(BudgetExceededError):
            brute_fuzzy_concepts(ctx)


def graded_twins(ctx) -> dict:
    """The naive twin of each graded operator, on the context's residua."""
    residua = oracles._residua(ctx)
    return {
        "up": lambda g: oracles._graded_up(ctx, g, residua),
        "down": lambda f: oracles._graded_down(ctx, f, residua),
        "up_pi": lambda g: oracles._graded_up_pi(ctx, g),
        "down_n": lambda f: oracles._graded_down_n(ctx, f, residua),
        "up_n": lambda g: oracles._graded_up_n(ctx, g, residua),
        "down_pi": lambda f: oracles._graded_down_pi(ctx, f),
    }


# the two operators of each arrangement, attribute side first
ARRANGED = {
    FrameKind.CONCEPT_FORMING: ("up", "down"),
    FrameKind.PROPERTY_ORIENTED: ("up_pi", "down_n"),
    FrameKind.OBJECT_ORIENTED: ("up_n", "down_pi"),
}


def sigma_context(rng, triples, kind, n_attrs, n_objs) -> FuzzyContext:
    """Random relation grades under ``kind`` on the triples, picked per cell
    by a random sigma."""
    p = fuzzy._arrangement(kind, *triples[0].domains)[2]
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        triples,
        [[rng.randint(0, p.m) for _ in range(n_objs)] for _ in range(n_attrs)],
        [[rng.randrange(len(triples)) for _ in range(n_objs)] for _ in range(n_attrs)],
        kind,
    )


class TestGradedOperatorTwins:
    """``fuzzy._apply`` against the naive twin of every operator a context
    allows: threshold families keyed by object for the up operators and by
    attribute for the down operators."""

    def contexts(self, rng):
        kinds = list(ARRANGED)
        for m in range(1, 17):  # Goedel, Lukasiewicz and dprod mixed by sigma
            chain = GradeChain(m)
            triples = (godel_triple(chain), lukasiewicz_triple(chain),
                       discretized_product_triple(m, m, m))
            for kind in kinds * 2:
                yield sigma_context(rng, triples, kind, rng.randint(1, 3), rng.randint(1, 3))
        for m in (24, 32):  # fine chains, few objects
            chain = GradeChain(m)
            triples = (godel_triple(chain), lukasiewicz_triple(chain),
                       discretized_product_triple(m, m, m))
            yield sigma_context(rng, triples, rng.choice(kinds), rng.randint(1, 3), 2)
        for kind in kinds:  # three granularities: one arrangement only
            for m1, m2, m3 in ((2, 3, 4), (4, 2, 3), (3, 5, 2)):
                triples = (discretized_product_triple(m1, m2, m3),)
                yield sigma_context(rng, triples, kind, rng.randint(1, 3), rng.randint(1, 3))

    def test_apply_equals_the_naive_twins(self):
        rng, runs = random.Random(28), set()
        for ctx in self.contexts(rng):
            twins = graded_twins(ctx)
            sides = {"objects": (ctx.l2.m, len(ctx.objects)),
                     "attributes": (ctx.l1.m, len(ctx.attributes))}
            for kind, ops in ARRANGED.items():
                if fuzzy._arrangement(kind, ctx.l1, ctx.l2, ctx.p) != ctx.triples[0].domains:
                    continue
                for op, side in zip(ops, sides):
                    m, n = sides[side]
                    vectors = [(0,) * n, (m,) * n]
                    vectors += [tuple(rng.randint(0, m) for _ in range(n)) for _ in range(6)]
                    for x in vectors:
                        assert fuzzy._apply(ctx, op, x) == twins[op](x), (ctx, op, x)
                    runs.add((op, ctx.triples[0].domains == (ctx.l1,) * 3))
        # every operator ran on one chain and on three distinct ones
        assert len(runs) == 12


class TestBipartiteComponents:
    def test_table1_three_components(self):
        comps = bipartite_components(TABLE1)
        assert len(comps) == 3
        assert {(x.names, y.names) for x, y in comps} == pair_set(cn_atoms(TABLE1))

    def test_complete_relation_single_component(self):
        ctx = BooleanContext.from_rows(
            ["a1", "a2"], ["b1", "b2"], [[1, 1], [1, 1]]
        )
        assert len(bipartite_components(ctx)) == 1

    def test_isolated_lines_are_components(self):
        # a chain a1-b1-a2-b3, an empty row a3 and an empty column b2
        ctx = BooleanContext.from_rows(
            ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 0, 0], [1, 0, 1], [0, 0, 0]]
        )
        comps = [(x.names, y.names) for x, y in bipartite_components(ctx)]
        assert comps == [((), ("a3",)), (("b2",), ()), (("b1", "b3"), ("a1", "a2"))]

    def test_table2_components_match_atoms(self):
        report = compare_atoms(TABLE2, cn_atoms(TABLE2))
        assert report.ok


class TestReports:
    def test_mismatch_is_reported_with_witnesses(self):
        fast = list(cn_enumerate(TABLE1))
        report = compare_cn(TABLE1, fast[:-1])
        assert not report.ok
        assert report.checked == 8
        assert any("absent from fast" in w[1] for w in report.mismatches)
