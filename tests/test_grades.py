import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galois_factor import (
    AdjointnessError,
    AdjointTriple,
    Grade,
    GradeChain,
    grades,
    discretized_product_triple,
    godel_triple,
    lukasiewicz_triple,
    residua_by_adjointness,
    triple_from_descriptor,
)
from galois_factor.oracles import brute_adjointness_witness
from tables import HUGE_EXPONENTS, fraction_refusing, godel_r2, triple_law_failures


def grade(chain, value):
    return chain.from_value(value)


class TestGradeChain:
    def test_bounds_and_len(self):
        chain = GradeChain(4)
        assert chain.bottom.value == 0
        assert chain.top.value == 1
        assert len(chain) == 5
        assert [g.value for g in chain] == [Fraction(i, 4) for i in range(5)]

    def test_off_grid_value_names_neighbours(self):
        with pytest.raises(ValueError) as err:
            GradeChain(4).from_value("0.3")
        assert "1/4" in str(err.value) and "1/2" in str(err.value)
        assert "0.25" in str(err.value) and "0.5" in str(err.value)

    def test_cross_chain_comparison_rejected(self):
        with pytest.raises(ValueError):
            GradeChain(4).top <= GradeChain(8).top

    def test_bad_granularity(self):
        with pytest.raises(ValueError):
            GradeChain(0)

    def test_granularity_cap(self):
        assert grades.MAX_GRANULARITY == 256
        assert len(GradeChain(256)) == 257
        with pytest.raises(ValueError, match="between 1 and 256, got 257"):
            GradeChain(257)


class TestReadGrade:
    @pytest.mark.parametrize("cell", HUGE_EXPONENTS)
    def test_huge_exponent_refused_before_fraction(self, cell, monkeypatch):
        monkeypatch.setattr(grades, "Fraction", fraction_refusing(cell))
        ctx = godel_r2()
        readers = (
            GradeChain(4).numerator_of,
            lambda v: ctx.graded_objects([v, "0", "0"]),
            lambda v: ctx.graded_attributes({"a1": "1", "a2": v, "a3": "0"}),
        )
        for read in readers:
            with pytest.raises(ValueError, match="decimal exponent beyond 64"):
                read(cell)

    def test_length_bound(self):
        longest = "0.25" + "0" * 60
        assert GradeChain(4).numerator_of(longest) == 1
        with pytest.raises(ValueError, match="grade of 65 characters, over 64"):
            GradeChain(4).numerator_of(longest + "0")

    @pytest.mark.parametrize("value", ["1e-64", "3/4", "0.75", Fraction(3, 4), 0.75, 1])
    def test_ordinary_values_read_exactly(self, value):
        assert grades.read_grade(value) == Fraction(value)

    @pytest.mark.parametrize("value", ["x", "1/0", None, "0.5e"])
    def test_unreadable_values_raise_value_error(self, value):
        with pytest.raises(ValueError, match="cannot read grade"):
            GradeChain(4).numerator_of(value)


class TestGodel:
    def test_residuum_two_cases(self):
        t = godel_triple(GradeChain(4))
        chain = t.p1
        # y > z branch returns z
        assert t.res_left(grade(chain, "0.25"), grade(chain, "0.75")).value == Fraction(1, 4)
        # y <= z branch returns top
        assert t.res_left(grade(chain, "0.75"), grade(chain, "0.25")).value == 1

    def test_top_is_identity(self):
        t = godel_triple(GradeChain(4))
        chain = t.p1
        for x in chain:
            assert t.conj(x, chain.top) == x

    def test_min_conjunctor(self):
        t = godel_triple(GradeChain(4))
        chain = t.p1
        assert t.conj(grade(chain, "0.5"), grade(chain, "0.75")).value == Fraction(1, 2)

    def test_outputs_stay_on_chain(self):
        # integer tables over 0..m by construction; spot-check via the API
        t = godel_triple(GradeChain(7))
        for x in t.p1:
            for y in t.p2:
                assert 0 <= t.conj(x, y).num <= 7
                assert 0 <= t.res_left(x, y).num <= 7


class TestLukasiewicz:
    def test_residuum_values(self):
        t = lukasiewicz_triple(GradeChain(4))
        chain = t.p1
        assert t.res_left(grade(chain, "0"), grade(chain, "0.5")).value == Fraction(1, 2)
        assert t.res_left(grade(chain, "0"), grade(chain, "0.75")).value == Fraction(1, 4)

    def test_top_is_identity(self):
        t = lukasiewicz_triple(GradeChain(4))
        chain = t.p1
        for x in chain:
            assert t.conj(x, chain.top) == x


class TestDiscretizedProduct:
    def test_ceiling_conjunctor(self):
        t = discretized_product_triple(4, 8, 10)
        x = t.p1.from_value("0.75")
        y = t.p2.from_value("0.875")
        # ceil(10 * 0.65625) / 10
        assert t.conj(x, y).value == Fraction(7, 10)

    def test_bottom_annihilates(self):
        t = discretized_product_triple(4, 8, 10)
        for x in t.p1:
            assert t.conj(x, t.p2.bottom) == t.p3.bottom

    def test_top_residuum(self):
        t = discretized_product_triple(4, 4, 4)
        assert t.res_left(t.p3.top, t.p2.bottom) == t.p1.top

    def test_mixed_chains_have_distinct_residua(self):
        t = discretized_product_triple(4, 8, 10)
        assert t.res_left_table != t.res_right_table


class TestResiduaByAdjointness:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: godel_triple(GradeChain(4)),
            lambda: lukasiewicz_triple(GradeChain(4)),
            lambda: discretized_product_triple(4, 8, 10),
        ],
    )
    def test_search_recovers_closed_forms(self, factory):
        t = factory()
        left, right = residua_by_adjointness(t.conj, t.domains)
        assert left == t.res_left_table
        assert right == t.res_right_table

    def test_unresiduated_conjunctor_reports_witness(self):
        chain = GradeChain(2)
        top = chain.top

        def bad_conj(x, y):  # constant top: no x satisfies conj(x, y) <= 0
            return top

        with pytest.raises(AdjointnessError) as err:
            residua_by_adjointness(bad_conj, (chain, chain, chain))
        assert err.value.witness is not None

    def test_non_monotone_conjunctor_rejected(self):
        chain = GradeChain(2)

        def weird(x, y):  # anti-monotone in x
            return Grade(chain.m - x.num, chain)

        with pytest.raises(AdjointnessError):
            residua_by_adjointness(weird, (chain, chain, chain))

    def test_maxima_of_a_non_monotone_conjunctor_fail_when_built(self):
        chain = GradeChain(2)
        values = ((0, 0, 0), (0, 2, 1), (0, 1, 2))  # zero borders, dips at (1, 2)

        def dipping(x, y):
            return Grade(values[x.num][y.num], chain)

        with pytest.raises(AdjointnessError, match="adjoint property fails"):
            residua_by_adjointness(dipping, (chain, chain, chain))


def violates(tables, x, y, z) -> bool:
    """Whether numerators (x, y, z) break the adjoint property of raw tables."""
    conj, left, right = tables
    return not (x <= left[z][y]) == (conj[x][y] <= z) == (y <= right[z][x])


def tables_of(triple):
    return triple.conj_table, triple.res_left_table, triple.res_right_table


class TestTripleProperties:
    """Adjointness is checked when a triple is built; the oracle twin and
    test-side loops confirm what the shipped triples satisfy."""

    def test_godel_all_green(self):
        t = godel_triple(GradeChain(4))
        assert brute_adjointness_witness(*tables_of(t)) is None
        assert triple_law_failures(t) == []

    def test_discretized_product_all_green(self):
        t = discretized_product_triple(4, 8, 10)
        assert brute_adjointness_witness(*tables_of(t)) is None
        assert triple_law_failures(t) == []

    def test_corrupted_residuum_caught_with_witness(self):
        t = godel_triple(GradeChain(4))
        rows = [list(r) for r in t.res_left_table]
        rows[2][3] = 4  # claim 0.5 <- 0.75 = 1, breaking adjointness
        tables = (t.conj_table, tuple(tuple(r) for r in rows), t.res_right_table)
        with pytest.raises(AdjointnessError, match="adjoint property fails") as err:
            AdjointTriple(t.name, t.p1, t.p2, t.p3, *tables)
        x, y, z = err.value.witness
        assert (x.chain, y.chain, z.chain) == t.domains
        assert violates(tables, x.num, y.num, z.num)
        assert brute_adjointness_witness(*tables) is not None

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_commutative_triples_have_equal_residua(self, m):
        for factory in (godel_triple, lukasiewicz_triple):
            t = factory(GradeChain(m))
            assert t.res_left_table == t.res_right_table
        t = discretized_product_triple(m, m, m)
        assert t.res_left_table == t.res_right_table


def random_tables(rng: random.Random):
    """Seeded tables on unequal chains: raw, adjoint, or adjoint and perturbed."""
    m1, m2, m3 = (rng.randint(1, 4) for _ in range(3))
    chains = (GradeChain(m1), GradeChain(m2), GradeChain(m3))

    def grid(rows, cols, top):
        return [[rng.randint(0, top) for _ in range(cols + 1)] for _ in range(rows + 1)]

    mode = rng.randrange(3)
    if mode == 0:
        return chains, (grid(m1, m2, m3), grid(m3, m2, m1), grid(m3, m1, m2))
    # a conjunctor monotone by running maxima, mostly zero on the borders
    raw = grid(m1, m2, m3)
    if rng.random() < 0.9:
        raw[0] = [0] * (m2 + 1)
        for row in raw:
            row[0] = 0
    conj = [[0] * (m2 + 1) for _ in range(m1 + 1)]
    for i in range(m1 + 1):
        for j in range(m2 + 1):
            conj[i][j] = max(raw[i][j], conj[i - 1][j] if i else 0, conj[i][j - 1] if j else 0)

    def largest(candidates, fallback):
        return max(candidates, default=fallback)

    left = [[largest([x for x in range(m1 + 1) if conj[x][y] <= z], rng.randint(0, m1))
             for y in range(m2 + 1)] for z in range(m3 + 1)]
    right = [[largest([y for y in range(m2 + 1) if conj[x][y] <= z], rng.randint(0, m2))
              for x in range(m1 + 1)] for z in range(m3 + 1)]
    tables = [conj, left, right]
    if mode == 2:
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(3)
            top = (m3, m1, m2)[k]
            row = rng.choice(tables[k])
            row[rng.randrange(len(row))] = rng.randint(0, top)
    return chains, tables


class TestConstructorCheck:
    def test_verdict_matches_the_oracle_twin(self):
        rng = random.Random(20_000)
        verdicts = {True: 0, False: 0}
        for _ in range(20_000):
            chains, tables = random_tables(rng)
            tables = tuple(tuple(map(tuple, table)) for table in tables)
            expected = brute_adjointness_witness(*tables) is None
            try:
                AdjointTriple("random", *chains, *tables)
                built = True
            except AdjointnessError as err:
                built = False
                x, y, z = err.witness
                assert (x.chain, y.chain, z.chain) == chains
                assert violates(tables, x.num, y.num, z.num), (chains, tables, err)
            assert built == expected, (chains, tables)
            verdicts[built] += 1
        assert min(verdicts.values()) > 5_000, verdicts

    def test_goedel_conjunctor_with_lukasiewicz_residua_refused(self):
        chain = GradeChain(2)
        godel, luk = godel_triple(chain), lukasiewicz_triple(chain)
        tables = (godel.conj_table, luk.res_left_table, luk.res_right_table)
        with pytest.raises(AdjointnessError) as err:
            AdjointTriple("godel-lukasiewicz", chain, chain, chain, *tables)
        assert violates(tables, *(g.num for g in err.value.witness))

    @pytest.mark.parametrize("m", range(1, 17))
    def test_shipped_frames_build_and_keep_their_laws(self, m):
        for t in (godel_triple(GradeChain(m)), lukasiewicz_triple(GradeChain(m))):
            assert triple_law_failures(t) == [], t.name
        for sizes in ((m, m, m), (m, (m % 4) + 1, 16 - m + 1), (4, 8, m)):
            t = discretized_product_triple(*sizes)
            assert triple_law_failures(t) == [], t.name

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("conj_table", lambda t: t.pop(), "conjunctor table must be 3 x 3"),
            ("res_left_table", lambda t: t[1].append(0), "left residuum table must be 3 x 3"),
            ("res_right_table", lambda t: t[2].__setitem__(0, 3), "right .* in 0..2$"),
            ("conj_table", lambda t: t[1].__setitem__(1, 1.0), "conjunctor .* in 0..2$"),
        ],
    )
    def test_table_shape_and_range_checked_first(self, name, damage, message):
        chain = GradeChain(2)
        tables = {
            field: [list(row) for row in getattr(godel_triple(chain), field)]
            for field in ("conj_table", "res_left_table", "res_right_table")
        }
        damage(tables[name])
        with pytest.raises(ValueError, match=message) as err:
            AdjointTriple("bad", chain, chain, chain, **tables)
        assert not isinstance(err.value, AdjointnessError)


class TestDescriptors:
    def test_named_frames(self):
        assert triple_from_descriptor("godel:4").name == "godel:4"
        assert triple_from_descriptor("lukasiewicz:6").p1.m == 6
        t = triple_from_descriptor("dprod:4,8,10")
        assert (t.p1.m, t.p2.m, t.p3.m) == (4, 8, 10)

    @pytest.mark.parametrize(
        "bad", ["godel", "godel:x", "frobnicate:4", "dprod:4,8", "godel:1,2"]
    )
    def test_bad_descriptors(self, bad):
        with pytest.raises(ValueError):
            triple_from_descriptor(bad)

    @pytest.mark.parametrize("descriptor", ["godel:257", "godel:99999999", "lukasiewicz:99999999"])
    def test_granularity_cap_comes_before_the_tables(self, descriptor, monkeypatch):
        for factory in ("godel_triple", "lukasiewicz_triple"):
            monkeypatch.setattr(grades, factory, lambda *_: pytest.fail("a triple was built"))
        with pytest.raises(ValueError, match="between 1 and 256"):
            triple_from_descriptor(descriptor)

    def test_granularity_cap_on_each_dprod_chain(self):
        for descriptor in ("dprod:257,4,4", "dprod:4,257,4", "dprod:4,4,257"):
            with pytest.raises(ValueError, match="between 1 and 256, got 257"):
                triple_from_descriptor(descriptor)


@given(
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_adjoint_property_pointwise(m, data):
    chain = GradeChain(m)
    t = data.draw(
        st.sampled_from(
            [godel_triple(chain), lukasiewicz_triple(chain), discretized_product_triple(m, m, m)]
        )
    )
    x = Grade(data.draw(st.integers(0, m)), chain)
    y = Grade(data.draw(st.integers(0, m)), chain)
    z = Grade(data.draw(st.integers(0, m)), chain)
    assert (x <= t.res_left(z, y)) == (t.conj(x, y) <= z) == (y <= t.res_right(z, x))
