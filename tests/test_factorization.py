import random

import pytest

from galois_factor import contexts, factorization, order
from galois_factor import (
    BooleanContext,
    BudgetExceededError,
    CrossContextError,
    FuzzyContext,
    FuzzyNecessityPair,
    GradeChain,
    NecessityPair,
    NotNormalizedError,
    atoms,
    block_bounds,
    cn_atoms,
    cn_enumerate,
    complement,
    concepts,
    down,
    factorize,
    godel_triple,
    in_cn,
    interval_from_pair,
    is_normalized,
    join_irreducibles,
    normalize,
    reassemble,
    rstar,
    up,
)
from galois_factor.cli import main
from galois_factor.io import format_cxt
from galois_factor.oracles import bipartite_components, brute_cn, brute_rstar
from galois_factor.order import Lattice
from tables import (
    DIAG2,
    TABLE1,
    TABLE1_CN_IRREDUCIBLES,
    TABLE1_CN_PAIRS,
    TABLE2,
    TABLE2_CN_NONTRIVIAL,
    pair_set,
    random_context,
    random_normalized_context,
)

# normalized single-component context: only the trivial factorization
CONNECTED = BooleanContext.from_rows(
    ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
)


def make_pair(ctx, objs, attrs):
    return NecessityPair(ctx.object_set(objs), ctx.attribute_set(attrs))


def raw_contexts(rng: random.Random, count: int):
    """``count`` raw contexts, 1-6 attributes by 1-7 objects at density 0.2-0.6."""
    for _ in range(count):
        n_attrs, n_objs = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.2, 0.4, 0.6))
        yield BooleanContext.from_rows(
            [f"a{i}" for i in range(n_attrs)],
            [f"b{j}" for j in range(n_objs)],
            [[rng.random() < density for _ in range(n_objs)] for _ in range(n_attrs)],
        )


def lattice_coatom(lattice, xbits):
    """The oracle of ``upper_is_coatom``: whether the concept with extent
    ``xbits`` has the top as its only upper cover in ``lattice``, read off
    its Hasse covers; None when ``xbits`` is not an extent."""
    extents = lattice.keys[0]
    if xbits not in extents:
        return None
    return lattice.cover_lists[extents.index(xbits)] == [lattice.top_index]


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
        assert lattice.keys == ([p.objects.bits for p in pairs], [p.attrs.bits for p in pairs])
        assert lattice[1:3] == pairs[1:3]
        assert lattice[::-1] == pairs[::-1]
        assert lattice[-1] == pairs[-1]

    def test_lattice_by_description_beyond_max_atoms(self):
        n = 18
        diagonal = BooleanContext.from_rows(
            [f"a{i}" for i in range(n)],
            [f"b{j}" for j in range(n)],
            [[int(i == j) for j in range(n)] for i in range(n)],
        )
        lattice = cn_enumerate(diagonal)
        assert not lattice.materialized
        assert lattice.pair_count == 2**18
        pytest.raises(BudgetExceededError, getattr, lattice, "keys")
        first, second = lattice.atom_pairs[:2]
        join = NecessityPair(first.objects | second.objects, first.attrs | second.attrs)
        assert in_cn(diagonal, join)
        with pytest.raises(BudgetExceededError):
            len(lattice)

    def test_equality_compares_the_atoms_beyond_max_atoms(self):
        def diagonal(n):
            names = [f"x{i}" for i in range(n)]
            return BooleanContext.from_rows(names, names, [[i == j for j in names] for i in names])

        big = cn_enumerate(diagonal(18))
        assert big.pair_count == 2**18 and not big.materialized
        assert big == cn_enumerate(diagonal(18))
        assert big != cn_enumerate(diagonal(19))


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
        from_lattice = {(lattice[i].objects.names, lattice[i].attrs.names) for i in atoms(lattice)}
        assert from_lattice == pair_set(cn_atoms(TABLE2))

    def test_irreducibles_are_exactly_atoms(self):
        for ctx in (TABLE1, TABLE2, DIAG2, CONNECTED):
            lattice = cn_enumerate(ctx)
            assert join_irreducibles(lattice) == atoms(lattice)
            assert atoms(lattice) == [1 << a for a in range(len(lattice.atom_pairs))]


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

    def test_refuses_a_context_with_an_empty_attribute_row(self):
        # every closed pair holds the empty row a3, so no complement does
        ctx = BooleanContext.from_rows(["a1", "a2", "a3"], ["b1", "b2"], [[1, 0], [0, 1], [0, 0]])
        pair = make_pair(ctx, ["b1"], ["a1", "a3"])
        assert in_cn(ctx, pair)
        with pytest.raises(NotNormalizedError, match="the context is not normalized"):
            complement(ctx, pair)


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

    def test_rejects_a_lattice_of_another_context(self):
        # the atom ({b1}, {a1}) is a coatom of the diagonal's own lattice
        pair = make_pair(DIAG2, ["b1"], ["a1"])
        assert block_bounds(DIAG2, pair, concepts(DIAG2)).upper_is_coatom is True
        chain3 = BooleanContext.from_rows(
            ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
        )
        one_by_two = BooleanContext.from_rows(["a1"], ["b1", "b2"], [[1, 0]])
        # an equal copy is refused too, as every operator refuses its subsets
        equal_copy = BooleanContext(DIAG2.attributes, DIAG2.objects, DIAG2.rows)
        for other in (chain3, one_by_two, equal_copy):
            with pytest.raises(CrossContextError):
                block_bounds(DIAG2, pair, concepts(other))

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


class TestCoatomTheorem:
    def test_upper_is_coatom_exactly_when_x_up_is_non_empty(self):
        """``upper_is_coatom`` is True when X-up is non-empty and None
        otherwise (the proof is in ``block_bounds``' docstring), and it is
        the coatom read off each context's own concept lattice.  The proof
        needs no normalization, so the contexts here are raw."""
        outcomes, raw = [], 0
        for ctx in raw_contexts(random.Random(2012), 300):
            lattice = concepts(ctx)
            for pair in brute_cn(ctx):
                if not pair.objects or pair.objects == ctx.all_objects:
                    continue
                expected = True if up(ctx, pair.objects) else None
                assert lattice_coatom(lattice, pair.objects.bits) is expected, (ctx, pair)
                assert block_bounds(ctx, pair).upper_is_coatom is expected, (ctx, pair)
                outcomes.append(expected)
                raw += not is_normalized(ctx)
        # 299 pairs, 261 of them in contexts that are not normalized
        assert len(outcomes) >= 250 and raw >= 200 and set(outcomes) == {True, None}


class TestBlockBoundPropositions:
    def test_bound_properties_hold_for_every_nontrivial_pair(self):
        from galois_factor import down_n, up_pi

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
                bounds = block_bounds(ctx, pair)
                assert bounds.upper_is_coatom is lattice_coatom(lattice, x.bits)
                x_up = up(ctx, x)
                if x_up:
                    assert down(ctx, x_up) == x
                    assert bounds.upper_is_coatom
                y_down = down(ctx, pair.attrs)
                if x_up and y_down:
                    assert y_down <= x
                    assert bounds.lower_within_upper


def bits(graded) -> int:
    """The subset bits of a graded set on the chain of m = 1."""
    return sum(v << k for k, v in enumerate(graded.values))


class TestClassicalIntervalIsFp5:
    def test_block_bounds_equal_fp5_at_m_1(self):
        """On the chain of m = 1 the Goedel frame is the Boolean one, so fp5's
        interval of a lifted cn pair is the classical one: its upper bound
        <g-up-down, g-up> is <X-up-down, X-up>, and its lower bound
        <f-down, f-down-up> is <Y-down, Y-down-up>.  For a necessity-closed
        (X, Y) with X not empty and not B:
        - X-up-down = X when X-up is non-empty (``block_bounds``' docstring);
        - Y-down-up = Y when Y-down is non-empty.  Every object in X has all
          its attributes in Y, and no object outside X has one, so when Y is
          non-empty Y-down lies in X and each b in Y-down has b-up = Y.  When
          Y is empty, X holds the objects with no attribute, so no attribute
          is full and B-up = Y.
        When X-up is empty the upper bound is the top <B, B-up>, and when
        Y-down is empty the lower bound is the bottom <A-down, A>.  On a
        normalized context Y is non-empty, so Y-down lies in X, and
        ``ordered`` agrees with ``lower_within_upper``.  The two derivations
        stay apart: one runs on bits and the other on numerators.
        """
        rng = random.Random(1)
        frame = [godel_triple(GradeChain(1))]
        checked, flags = 0, set()
        for _ in range(1500):
            n_attrs, n_objs = rng.randint(2, 6), rng.randint(2, 7)
            density = rng.uniform(0.3, 0.6)
            ctx = normalize(BooleanContext.from_rows(
                [f"a{i}" for i in range(n_attrs)],
                [f"b{j}" for j in range(n_objs)],
                [[rng.random() < density for _ in range(n_objs)] for _ in range(n_attrs)],
            )).core
            if not ctx.objects or not ctx.attributes:
                continue
            lifted = FuzzyContext(ctx.attributes, ctx.objects, frame, [
                [row >> j & 1 for j in range(len(ctx.objects))] for row in ctx.rows
            ])
            top = (ctx.all_objects.bits, up(ctx, ctx.all_objects).bits)
            bottom = (down(ctx, ctx.all_attributes).bits, ctx.all_attributes.bits)
            for pair in cn_enumerate(ctx):
                x, y = pair.objects, pair.attrs
                if not x or x == ctx.all_objects:
                    continue
                interval = interval_from_pair(lifted, FuzzyNecessityPair.from_keys(
                    lifted,
                    tuple(x.bits >> j & 1 for j in range(len(ctx.objects))),
                    tuple(y.bits >> i & 1 for i in range(len(ctx.attributes))),
                ))
                bounds = block_bounds(ctx, pair)
                upper = (bits(interval.upper.extent), bits(interval.upper.intent))
                lower = (bits(interval.lower.extent), bits(interval.lower.intent))
                assert bounds.upper_identified_with_top is (bounds.upper is None)
                if bounds.upper is None:
                    assert upper == top
                else:
                    assert upper == (bounds.upper.extent.bits, bounds.upper.intent.bits)
                assert bounds.lower_identified_with_bottom is (bounds.lower is None)
                if bounds.lower is None:
                    assert lower == bottom
                else:
                    assert lower == (bounds.lower.extent.bits, bounds.lower.intent.bits)
                assert interval.ordered is bounds.lower_within_upper
                assert bounds.upper_is_coatom is (True if upper[1] else None)
                checked += 1
                flags.add((bounds.upper is None, bounds.lower is None))
        # 1206 pairs, with every combination of None bounds among them
        assert checked >= 1000 and len(flags) == 4, (checked, flags)


class TestRandomizedSoundness:
    def test_factorization_properties_hold_on_random_contexts(self):
        rng = random.Random(20240817)
        for _ in range(40):
            ctx = random_normalized_context(rng, max_side=8)
            lattice = cn_enumerate(ctx)
            members = pair_set(lattice)

            objs, attrs = [], []
            for i in atoms(lattice):
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


class TestOneComponentSplit:
    def test_factor_grows_the_core_components_once(self, monkeypatch, tmp_path):
        """The ``factor`` command reads its core's components in
        ``factorize`` and again in ``rstar``; both read the core's one
        record, so the growth steps are those of a single split."""
        steps = []

        def counted(ctx, xbits, grow=contexts._up_pi_bits):
            steps.append(xbits)
            return grow(ctx, xbits)

        for module in (contexts, factorization):
            monkeypatch.setattr(module, "_up_pi_bits", counted, raising=False)
        rng = random.Random(2023)
        for ctx in [TABLE1, TABLE2] + [random_normalized_context(rng, 8) for _ in range(20)]:
            path = tmp_path / "in.cxt"
            path.write_text(format_cxt(ctx), encoding="utf-8")
            steps.clear()
            assert main(["factor", str(path), "--out", str(tmp_path / "out.json")]) == 0
            factor_steps = len(steps)
            steps.clear()
            normalize(ctx).core.components  # one split of a fresh core
            assert factor_steps == len(steps) > 0

    def test_factorize_judges_and_claims_nothing_on_its_core(self, monkeypatch):
        rng = random.Random(2024)
        cases = [TABLE1, TABLE2, DIAG2, CONNECTED]
        cases += [random_context(rng, max_side=8) for _ in range(40)]
        expected = [factorize(ctx) for ctx in cases]

        def refuse(*args):
            raise AssertionError("factorize rechecked its own core")

        for module in (contexts, factorization):
            for helper in ("_claim", "_offending_lines", "_require_normalized", "restrict"):
                monkeypatch.setattr(module, helper, refuse, raising=False)
        monkeypatch.setattr(contexts, "is_normalized", refuse)
        assert [factorize(ctx) for ctx in cases] == expected

    def test_components_of_raw_contexts_match_the_oracle(self):
        # an empty column is a component alone; an empty row lies in none,
        # where the oracle makes it a component without objects
        ctx = BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 0], [0, 0]])
        assert ctx.components == ((0b01, 0b01), (0b10, 0))
        rng = random.Random(2025)
        for ctx in [random_context(rng, max_side=8) for _ in range(200)]:
            twin = [(x.bits, y.bits) for x, y in bipartite_components(ctx) if x]
            assert list(ctx.components) == twin

    def test_atoms_and_rstar_refuse_a_raw_context_alike(self):
        ctx = BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 1], [1, 0]])
        message = (
            "context is not normalized: attribute row 'a1' is full; object column 'b1'"
            " is full (normalize first and reattach the removals afterwards)"
        )
        for refused in (cn_atoms, rstar):
            with pytest.raises(NotNormalizedError) as err:
                refused(ctx)
            assert str(err.value) == message


class TestBlockBoundsReadKeys:
    def test_bounds_build_no_lattice_element(self, monkeypatch):
        cases = []
        for ctx in [TABLE2, *raw_contexts(random.Random(2012), 300)]:
            # the oracle reads its covers; the lattice handed to block_bounds
            # keeps its covers unread, so a read after the patch below fails
            lattice, oracle = concepts(ctx), concepts(ctx)
            for pair in brute_cn(ctx):
                if pair.objects and pair.objects != ctx.all_objects:
                    bounds = block_bounds(ctx, pair, lattice)
                    assert bounds.upper_is_coatom is lattice_coatom(oracle, pair.objects.bits)
                    cases.append((ctx, pair, lattice, bounds))
        assert len(cases) >= 250 and any(case[3].upper_is_coatom for case in cases)

        def refuse(*args):
            raise AssertionError("a lattice was enumerated, covered or read")

        monkeypatch.setattr(Lattice, "_element", refuse)
        monkeypatch.setattr(order, "closed_sets", refuse)
        monkeypatch.setattr(order, "pointwise_covers", refuse)
        for ctx, pair, lattice, bounds in cases:
            assert block_bounds(ctx, pair, lattice) == bounds
            assert block_bounds(ctx, pair) == bounds

    def test_answers_past_the_cover_cap(self):
        # a full 2 x 2 block beside the contranominal scale of 18, whose
        # 2^18 concepts are more than pointwise_covers accepts
        scale = (1 << 18) - 1
        ctx = BooleanContext(
            tuple(f"a{i}" for i in range(20)),
            tuple(f"b{j}" for j in range(20)),
            (0b11, 0b11, *((scale ^ (1 << i)) << 2 for i in range(18))),
        )
        first = cn_atoms(ctx)[0]
        assert first.objects.names == ("b0", "b1")
        assert block_bounds(ctx, first).upper_is_coatom is True
