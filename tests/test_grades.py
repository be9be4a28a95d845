import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galois_factor import (
    AdjointnessError,
    AdjointTriple,
    FuzzyContext,
    Grade,
    GradeChain,
    grades,
    discretized_product_triple,
    godel_triple,
    lukasiewicz_triple,
    triple_from_descriptor,
)
from galois_factor.io import document_from_json, emit_json
from galois_factor.oracles import brute_adjointness_witness, residua_by_adjointness
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

    @pytest.mark.parametrize("num", [1.0, True, -1, 5])
    def test_a_grade_takes_only_an_int_numerator_on_its_chain(self, num):
        with pytest.raises(ValueError, match=r"is not an int on \[0,1\]_4"):
            Grade(num, GradeChain(4))

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

    @pytest.mark.parametrize(
        "value", ["1e-64", "3/4", "0.75", " 3/4\t", Fraction(3, 4), 0.75, 1]
    )
    def test_ordinary_values_read_exactly(self, value):
        assert grades.read_grade(value) == Fraction(value)

    @pytest.mark.parametrize("value", [Decimal("1e-3000000"), Decimal("1e3000000")])
    def test_huge_decimal_exponent_refused_before_fraction(self, value, monkeypatch):
        monkeypatch.setattr(grades, "Fraction", fraction_refusing(value))
        with pytest.raises(ValueError, match="decimal exponent beyond 64"):
            GradeChain(4).numerator_of(value)

    @pytest.mark.parametrize(
        "value", [10**5000, -(10**5000), Fraction(1, 10**5000)], ids=["big", "negative", "tiny"]
    )
    def test_off_chain_message_does_not_print_huge_values(self, value):
        with pytest.raises(ValueError, match="value of over 64 digits is not on chain"):
            GradeChain(4).numerator_of(value)

    @pytest.mark.parametrize("value", ["1/3", "-1/4", "5/4", Fraction(1, 10**5000)])
    def test_a_fraction_already_read_gets_the_same_off_chain_message(self, value):
        chain = GradeChain(4)
        with pytest.raises(ValueError) as direct:
            chain.numerator_of(value)
        with pytest.raises(ValueError) as read:
            chain.numerator_of_fraction(grades.read_grade(value))
        assert str(read.value) == str(direct.value)
        assert "is not on chain" in str(direct.value)

    def test_a_fraction_already_read_is_placed_on_the_chain(self):
        assert [GradeChain(4).numerator_of_fraction(Fraction(k, 4)) for k in range(5)] == [
            0, 1, 2, 3, 4
        ]

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), Decimal("Infinity"), Decimal("NaN"), float("nan")]
    )
    def test_infinite_and_nan_numbers_raise_value_error(self, value):
        with pytest.raises(ValueError, match="cannot read grade"):
            GradeChain(4).numerator_of(value)

    @pytest.mark.parametrize("value", [Decimal("0.75"), Decimal("75e-2"), Decimal("3E-64")])
    def test_ordinary_decimals_read_exactly(self, value):
        assert grades.read_grade(value) == Fraction(value)

    # underscores and inner blanks: Fraction reads some of them on some Pythons
    @pytest.mark.parametrize(
        "value", ["x", "1/0", None, "0.5e", "0.2_5", "1_0", "1_0/2_0", "1/ 2", "1 /2"]
    )
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
        # so each operation takes grades on its own chains only
        x, y, z = t.p1.top, t.p2.top, t.p3.top
        for call, args in ((t.conj, (y, y)), (t.conj, (x, x)), (t.res_left, (x, y)),
                           (t.res_left, (z, x)), (t.res_right, (y, x)), (t.res_right, (z, y))):
            with pytest.raises(ValueError, match="expects"):
                call(*args)


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


def refutes(conj, x, y, z) -> bool:
    """Whether numerators (x, y, z) rule out every residuum of ``conj``:
    conj(x, y) > z, yet x = 0, y = 0, conj(x + 1, y) <= z or
    conj(x, y + 1) <= z, each of which adjointness would turn into
    conj(x, y) <= z."""
    return conj[x][y] > z and (
        x == 0
        or y == 0
        or (x + 1 < len(conj) and conj[x + 1][y] <= z)
        or (y + 1 < len(conj[x]) and conj[x][y + 1] <= z)
    )


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

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_commutative_triples_have_equal_residua(self, m):
        for factory in (godel_triple, lukasiewicz_triple):
            t = factory(GradeChain(m))
            assert t.res_left_table == t.res_right_table
        t = discretized_product_triple(m, m, m)
        assert t.res_left_table == t.res_right_table


class TestShippedTableDigests:
    """SHA-256 of ``repr((conj_table, res_left_table, res_right_table))``,
    recorded at commit ad7aaaf, when each builder still coded its own
    residuum formulas, before the residua were derived from the conjunctor."""

    DIGESTS = {
        "godel:1": "d8a4aeac3239ebe9d575e2da7711b0f272b979c61d22d4532be129f916db431a",
        "godel:2": "b9098f5f5e6e3363f7fbd9c37ffb7117974bbd3b8621a7511354e719e7fe4b89",
        "godel:4": "587a14cbe9607bfe373b524665555c2d11cf2dfe6b9167b8c1980fef78340b5e",
        "godel:32": "1418a957ba4ee352d1ad770591f1eb9f1dbbda658115343dcda228298627eeaf",
        "godel:256": "a52ac4a067aa0d8ec24a8b4f6c8c05c5f41c635119ffcbd7a3619a7cf0bfa2da",
        "lukasiewicz:1": "d8a4aeac3239ebe9d575e2da7711b0f272b979c61d22d4532be129f916db431a",
        "lukasiewicz:2": "f381f5e8988f9f074c4f51b297d63fab7eaf6d35f90634084d0fb20464474daa",
        "lukasiewicz:4": "2f03b218ae148633e3b89d4c986d12c88e5f8b3cd0143215ce60357b4f72b79b",
        "lukasiewicz:32": "7eb8afb097558d8a270599a739e9d6e30faac1a83a3b01d110727f8ec84a8ca0",
        "lukasiewicz:256": "6d93394c0c1d2b3d8de078cf01d347c194d6b41e8fe968ee0eb51607ff0f7dc7",
        "dprod:4,4,4": "f471019b7bc699c34ef4b5fc07cb61e442f8d4e527cb82cca0bfb2ac71686708",
        "dprod:4,8,10": "f52c370b13b5db0486df834668151d1a81cc29f13e8f309539c99d2cd25fbdc9",
        "dprod:256,3,17": "98000a68d1eb3eea4dec07663706b1b9f3b8f28b91d436e70fda831edece84b9",
        "dprod:256,256,256": "b2fac27ba6f12ca3ffb02976e57eeaf2f70a6570403e9decd6a7beeaf87b6a34",
    }

    @pytest.mark.parametrize("descriptor", sorted(DIGESTS))
    def test_tables_are_the_recorded_ones(self, descriptor):
        t = triple_from_descriptor(descriptor)
        digest = hashlib.sha256(repr(tables_of(t)).encode()).hexdigest()
        assert digest == self.DIGESTS[descriptor]


def random_conjunctor(rng: random.Random):
    """A seeded conjunctor table on unequal chains: raw, or monotone by
    running maxima and mostly zero on the borders, then perhaps perturbed."""
    m1, m2, m3 = (rng.randint(1, 4) for _ in range(3))
    chains = (GradeChain(m1), GradeChain(m2), GradeChain(m3))
    conj = [[rng.randint(0, m3) for _ in range(m2 + 1)] for _ in range(m1 + 1)]
    if rng.randrange(3) == 0:
        return chains, conj
    if rng.random() < 0.9:
        conj[0] = [0] * (m2 + 1)
        for row in conj:
            row[0] = 0
    for i in range(m1 + 1):
        for j in range(m2 + 1):
            conj[i][j] = max(conj[i][j], conj[i - 1][j] if i else 0, conj[i][j - 1] if j else 0)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            rng.choice(conj)[rng.randrange(m2 + 1)] = rng.randint(0, m3)
    return chains, conj


class TestConstructorCheck:
    def test_verdict_matches_the_oracle_twin(self):
        rng = random.Random(3_000)
        verdicts = {True: 0, False: 0}
        for _ in range(3_000):
            chains, conj = random_conjunctor(rng)
            conj = tuple(map(tuple, conj))
            try:
                expected = residua_by_adjointness(
                    lambda x, y: Grade(conj[x.num][y.num], chains[2]), chains
                )
            except AdjointnessError:
                expected = None
            try:
                t = AdjointTriple("random", *chains, conj)
                built = True
            except AdjointnessError as err:
                built = False
                x, y, z = err.witness
                assert (x.chain, y.chain, z.chain) == chains
                assert refutes(conj, x.num, y.num, z.num), (chains, conj, err)
            else:
                assert (t.res_left_table, t.res_right_table) == expected, (chains, conj)
            assert built == (expected is not None), (chains, conj)
            verdicts[built] += 1
        assert min(verdicts.values()) > 1_000, verdicts

    @pytest.mark.parametrize(
        "conj, witness",
        [
            (((0, 0, 0), (0, 2, 1), (0, 1, 2)), (1, 1, 1)),  # descends along row 1
            (((0, 0, 0), (0, 1, 1), (0, 2, 1)), (2, 1, 1)),  # descends at (2, 1) -> (2, 2)
            (((0, 1, 1), (0, 1, 1), (0, 1, 2)), (0, 1, 0)),  # conj(0, y) > 0
        ],
    )
    def test_witness_of_a_refused_conjunctor(self, conj, witness):
        chain = GradeChain(2)
        with pytest.raises(AdjointnessError, match="no residua satisfy") as err:
            AdjointTriple("bad", chain, chain, chain, conj)
        assert tuple(g.num for g in err.value.witness) == witness
        assert refutes(conj, *witness)

    def test_residua_are_not_an_input(self):
        chain = GradeChain(2)
        t = godel_triple(chain)
        with pytest.raises(TypeError):
            AdjointTriple("godel", chain, chain, chain, *tables_of(t))

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
            ("conj_table", lambda t: t[1].__setitem__(1, 1.0), "conjunctor .* in 0..2$"),
        ],
    )
    def test_table_shape_and_range_checked_first(self, name, damage, message):
        chain = GradeChain(2)
        tables = {name: [list(row) for row in getattr(godel_triple(chain), name)]}
        damage(tables[name])
        with pytest.raises(ValueError, match=message) as err:
            AdjointTriple("bad", chain, chain, chain, **tables)
        assert not isinstance(err.value, AdjointnessError)


def list_built_godel(m: int) -> AdjointTriple:
    """The Goedel triple on {0..m}, its conjunctor given as a list of lists."""
    chain = GradeChain(m)
    conj = [list(row) for row in godel_triple(chain).conj_table]
    return AdjointTriple(f"godel:{m}", chain, chain, chain, conj)


class TestListBuiltTables:
    """A conjunctor given as a list of lists is kept as a tuple of tuples."""

    def test_it_hashes(self):
        t = list_built_godel(2)
        assert hash(t) == hash(godel_triple(GradeChain(2)))
        ctx = FuzzyContext(["a"], ["b"], (t,), [[1]])
        assert hash(ctx) == hash(FuzzyContext(["a"], ["b"], (godel_triple(GradeChain(2)),), [[1]]))

    def test_it_equals_the_tuple_built_triple(self):
        t = list_built_godel(2)
        assert t == godel_triple(GradeChain(2))
        assert t.conj_table == ((0, 0, 0), (0, 1, 1), (0, 1, 2))

    def test_a_context_on_it_is_written(self):
        ctx = FuzzyContext(["a1", "a2"], ["b1"], (list_built_godel(2),), [[1], [2]])
        assert document_from_json(emit_json(ctx)) == ctx

    def test_a_commutative_one_shares_its_residuum_table(self):
        t = list_built_godel(3)
        assert t.res_right_table is t.res_left_table


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

    @pytest.mark.parametrize(
        "descriptor",
        ["godel:\u0661", "godel:+2", "godel:1_0", "godel:-1", "dprod:4,8,\u0661\u0660"],
    )
    def test_granularity_in_ascii_digits_only(self, descriptor):
        # int() reads ARABIC-INDIC DIGIT ONE as 1, "+2" as 2 and "1_0" as 10
        with pytest.raises(ValueError, match="^bad granularity in frame descriptor"):
            triple_from_descriptor(descriptor)

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
    assert (
        (x.num <= t.res_left(z, y).num)
        == (t.conj(x, y).num <= z.num)
        == (y.num <= t.res_right(z, x).num)
    )
