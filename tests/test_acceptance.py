"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  All
comparisons are exact (integer bitmasks and exact rationals); no
tolerances appear anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from galois_factor import (
    FuzzyNecessityPair,
    GradeChain,
    NecessityPair,
    atoms,
    block_bounds,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    cn_atoms,
    cn_enumerate,
    complement,
    concepts,
    discretized_product_triple,
    f_down,
    f_down_n,
    f_down_pi,
    f_up,
    f_up_n,
    f_up_pi,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
    godel_triple,
    in_fn,
    interval_from_pair,
    is_top_normalized,
    join_irreducibles,
    lukasiewicz_triple,
    reassemble,
    rstar,
)
from galois_factor.oracles import (
    bipartite_components,
    brute_adjointness_witness,
    brute_cn,
    brute_rstar,
    residua_by_adjointness,
)
from tables import (
    DPROD_R2_FN_LISTED,
    GODEL_R2_CONCEPTS,
    GODEL_R2_FN_LISTED,
    TABLE1,
    TABLE1_CN_IRREDUCIBLES,
    TABLE1_CN_PAIRS,
    TABLE1_CONCEPTS,
    TABLE1_COVER_EXTENTS,
    TABLE2,
    TABLE2_CN_NONTRIVIAL,
    TABLE2_CONCEPTS,
    concept_set,
    dprod_r2,
    fuzzy_value_set,
    godel_r1,
    godel_r2,
    luk_table3,
    pair_set,
    random_fuzzy_context,
    random_normalized_context,
    triple_law_failures,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def fn_pair(ctx, g_values, f_values):
    return FuzzyNecessityPair(
        ctx.graded_objects(g_values), ctx.graded_attributes(f_values)
    )


def test_criterion_1_first_worked_context():
    with criterion(1, "6x6 context: concepts, covers, closed pairs, irreducibles"):
        lattice = concepts(TABLE1)
        assert len(lattice) == 8
        assert concept_set(lattice) == set(TABLE1_CONCEPTS)
        cover_extents = {
            (lattice[l].extent.names, lattice[u].extent.names) for l, u in lattice.covers
        }
        assert cover_extents == set(TABLE1_COVER_EXTENTS)
        assert len(lattice.covers) == 10

        cn = cn_enumerate(TABLE1)
        assert pair_set(cn) == set(TABLE1_CN_PAIRS)
        irreducibles = {
            (cn[i].objects.names, cn[i].attrs.names) for i in join_irreducibles(cn)
        }
        assert irreducibles == set(TABLE1_CN_IRREDUCIBLES)


def test_criterion_2_second_worked_context():
    with criterion(2, "8x7 context: closed pairs, block bounds, 11 concepts"):
        cn = cn_enumerate(TABLE2)
        trivial = {((), ()), (TABLE2.objects, TABLE2.attributes)}
        assert pair_set(cn) == set(TABLE2_CN_NONTRIVIAL) | trivial

        pair1 = NecessityPair(
            TABLE2.object_set(["b5", "b6", "b7"]),
            TABLE2.attribute_set(["a4", "a6", "a8"]),
        )
        bounds = block_bounds(TABLE2, pair1)
        assert bounds.upper.extent.names == ("b5", "b6", "b7")
        assert bounds.upper.intent.names == ("a8",)
        assert bounds.upper_is_coatom is True
        assert bounds.lower.extent.names == ("b6",)
        assert bounds.lower.intent.names == ("a4", "a6", "a8")

        pair3 = NecessityPair(
            TABLE2.object_set(["b2", "b3", "b4"]),
            TABLE2.attribute_set(["a1", "a2", "a5", "a7"]),
        )
        bounds3 = block_bounds(TABLE2, pair3)
        assert bounds3.lower is None and bounds3.lower_identified_with_bottom
        assert bounds3.upper.intent.names == ("a1",)
        lattice = concepts(TABLE2)
        bottom = lattice[lattice.bottom_index]
        assert not bottom.extent and bottom.intent == TABLE2.all_attributes

        assert len(lattice) == 11
        assert concept_set(lattice) == set(TABLE2_CONCEPTS)


def test_criterion_3_factorization_soundness_on_random_contexts():
    with criterion(3, "200 random normalized contexts: partitions, complements, R*"):
        rng = random.Random(1789)
        for _ in range(200):
            ctx = random_normalized_context(rng, max_side=10)
            lattice = cn_enumerate(ctx)
            members = pair_set(lattice)

            atom_objs, atom_attrs = [], []
            for i in atoms(lattice):
                atom_objs += lattice[i].objects.names
                atom_attrs += lattice[i].attrs.names
            assert sorted(atom_objs) == sorted(ctx.objects)
            assert sorted(atom_attrs) == sorted(ctx.attributes)

            for pair in lattice:
                comp = complement(ctx, pair)
                assert (comp.objects.names, comp.attrs.names) in members

            result = factorize(ctx)
            assert reassemble(result) == result.core

            mask = rstar(ctx)
            assert mask == brute_rstar(ctx)  # the literal intersection form
            assert all(r & ~m == 0 for r, m in zip(ctx.rows, mask.rows))  # R ⊆ R*
            rects = [[False] * len(ctx.objects) for _ in ctx.attributes]
            for atom in cn_atoms(ctx):
                for i in atom.attrs.indices:
                    for j in atom.objects.indices:
                        rects[i][j] = True
            assert mask.incidence == tuple(tuple(r) for r in rects)

            brute = brute_cn(ctx)
            nonempty = [p for p in brute if p.objects]
            brute_atoms = {
                (p.objects.names, p.attrs.names)
                for p in nonempty
                if not any(q.objects < p.objects for q in nonempty)
            }
            components = {
                (xs.names, ys.names) for xs, ys in bipartite_components(ctx)
            }
            assert components == brute_atoms


def test_criterion_4_lukasiewicz_bottom_pair():
    with criterion(4, "Lukasiewicz 2x2: bottom image is (1/2, 1/4), bottom pair excluded"):
        ctx = luk_table3()
        image = f_up_n(ctx, ctx.g_bottom)
        assert image.as_fractions() == (Fraction(1, 2), Fraction(1, 4))
        assert not in_fn(ctx, FuzzyNecessityPair(ctx.g_bottom, ctx.f_bottom))
        assert in_fn(ctx, FuzzyNecessityPair(ctx.g_top, ctx.f_top))


def test_criterion_5_discretized_product_closure_system():
    with criterion(5, "discretized product 3x3: 20 closed pairs, meet-closed, fp1+fp2"):
        ctx = dprod_r2()
        lattice = fn_enumerate(ctx)
        assert len(lattice) == 20

        members = fuzzy_value_set(lattice)
        for g_values, f_values in DPROD_R2_FN_LISTED:
            pair = fn_pair(ctx, g_values, f_values)
            assert (pair.g.values, pair.f.values) in members

        member_gs = {p.g.values for p in lattice}
        for p in lattice:
            for q in lattice:
                assert tuple(map(min, p.g.values, q.g.values)) in member_gs

        for pair in lattice:
            assert check_fp1(ctx, pair)
            assert check_fp2(ctx, pair)


def test_criterion_6_godel_top_normalized_context():
    with criterion(6, "Goedel 3x3: 7 concepts, closed pairs, fp3, intervals, fp4 failure"):
        ctx = godel_r2()
        assert is_top_normalized(ctx, "rows")

        lattice = fuzzy_concepts(ctx)
        assert len(lattice) == 7
        reference = {
            (
                tuple(Fraction(v) for v in ext),
                tuple(Fraction(v) for v in intent),
            )
            for ext, intent in GODEL_R2_CONCEPTS
        }
        got = {
            (c.extent.as_fractions(), c.intent.as_fractions()) for c in lattice
        }
        assert got == reference

        fn = fn_enumerate(ctx)
        members = fuzzy_value_set(fn)
        for g_values, f_values in GODEL_R2_FN_LISTED:
            pair = fn_pair(ctx, g_values, f_values)
            assert (pair.g.values, pair.f.values) in members

        for pair in fn:
            assert check_fp3(ctx, pair)
            assert f_up_n(ctx, pair.g) == f_up_pi(ctx, pair.g)

        expected_intervals = [
            (("0.75", "0.5", "0"), ("1", "0.25", "0"), ("1", "1", "0")),   # C3..C5
            (("1", "0.75", "0"), ("0.5", "0.25", "0"), ("1", "1", "0")),   # C1..C5
            (("0", "0", "0.5"), ("0", "0", "1"), ("0", "0", "1")),         # C2..C2
            (("0.75", "0.5", "0.5"), ("0", "0", "0"), ("1", "1", "1")),    # C0..C6
        ]
        by_extent = {c.extent: c for c in lattice}
        for g_values, lower_extent, upper_extent in expected_intervals:
            pair = fn_pair(ctx, g_values, g_values)
            interval = interval_from_pair(ctx, pair)
            assert interval.ordered
            assert interval.lower.extent == ctx.graded_objects(lower_extent)
            assert interval.upper.extent == ctx.graded_objects(upper_extent)
            assert by_extent[interval.lower.extent] == interval.lower
            assert by_extent[interval.upper.extent] == interval.upper

        report = check_fp4(ctx, fn_pair(ctx, ("0", "0", "0.75"), ("0", "0", "0.75")))
        assert report.hypothesis_holds_per_attribute == (True, True, False)
        assert report.g_up.as_fractions()[2] == 1
        assert report.g_up_pi.as_fractions()[2] == Fraction(3, 4)
        assert not report.g_up.as_fractions()[2] <= report.g_up_pi.as_fractions()[2]


def test_criterion_7_negative_control_without_top_normalization():
    with criterion(7, "Goedel 3x3 without top rows: member pair violates fp3"):
        ctx = godel_r1()
        assert not is_top_normalized(ctx, "rows")
        pair = fn_pair(ctx, ("1", "0.5", "0"), ("1", "0.5", "0"))
        assert in_fn(ctx, pair)
        assert not check_fp3(ctx, pair)
        up_n = f_up_n(ctx, pair.g)
        up_pi = f_up_pi(ctx, pair.g)
        assert up_n.as_fractions() == (1, Fraction(1, 2), 0)
        assert up_pi.as_fractions() == (Fraction(1, 2), Fraction(1, 2), 0)


def test_criterion_8_adjoint_triple_suite():
    with criterion(8, "triples: checked when built, oracle twin, boundary/meet laws, residua"):
        triples = [godel_triple(GradeChain(m)) for m in range(2, 17)]
        triples += [lukasiewicz_triple(GradeChain(m)) for m in range(2, 17)]
        triples += [discretized_product_triple(4, 8, 10), discretized_product_triple(4, 4, 4)]
        for t in triples:
            tables = (t.conj_table, t.res_left_table, t.res_right_table)
            assert brute_adjointness_witness(*tables) is None, t.name
            assert triple_law_failures(t) == [], t.name
            left, right = residua_by_adjointness(t.conj, t.domains)
            assert left == t.res_left_table, t.name
            assert right == t.res_right_table, t.name


def test_criterion_9_fuzzy_property_suite():
    with criterion(9, "100 random fuzzy contexts: Galois laws, brute force, fp1+fp2"):
        from galois_factor.oracles import brute_fn

        rng = random.Random(271828)
        for _ in range(100):
            ctx = random_fuzzy_context(rng)
            sample_g = [ctx.g_top, ctx.g_bottom] + [
                ctx.graded_objects(
                    [Fraction(rng.randint(0, ctx.l2.m), ctx.l2.m) for _ in ctx.objects]
                )
                for _ in range(4)
            ]
            sample_f = [ctx.f_top, ctx.f_bottom] + [
                ctx.graded_attributes(
                    [Fraction(rng.randint(0, ctx.l1.m), ctx.l1.m) for _ in ctx.attributes]
                )
                for _ in range(4)
            ]
            for g in sample_g:
                assert g <= f_down(ctx, f_up(ctx, g))
                assert f_up(ctx, f_down(ctx, f_up(ctx, g))) == f_up(ctx, g)
                assert g <= f_down_n(ctx, f_up_pi(ctx, g))
                assert f_up_pi(ctx, f_down_n(ctx, f_up_pi(ctx, g))) == f_up_pi(ctx, g)
                assert f_down_pi(ctx, f_up_n(ctx, g)) <= g
            for f in sample_f:
                assert f <= f_up(ctx, f_down(ctx, f))
                assert f_up_pi(ctx, f_down_n(ctx, f)) <= f
                assert f <= f_up_n(ctx, f_down_pi(ctx, f))
                assert f_down_pi(ctx, f_up_n(ctx, f_down_pi(ctx, f))) == f_down_pi(ctx, f)

            fast = fn_enumerate(ctx)
            assert fuzzy_value_set(fast) == fuzzy_value_set(brute_fn(ctx))
            for pair in fast:
                assert check_fp1(ctx, pair)
                assert check_fp2(ctx, pair)
