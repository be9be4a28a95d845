from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from galois_factor import (
    AdjointnessError,
    AdjointTriple,
    Grade,
    GradeChain,
    grades,
    check_triple_properties,
    discretized_product_triple,
    godel_triple,
    lukasiewicz_triple,
    residua_by_adjointness,
    triple_from_descriptor,
)


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


class TestTripleProperties:
    def test_godel_all_green(self):
        report = check_triple_properties(godel_triple(GradeChain(4)))
        assert report.ok and not report.failures

    def test_discretized_product_all_green(self):
        report = check_triple_properties(discretized_product_triple(4, 8, 10))
        assert report.ok

    def test_corrupted_residuum_caught_with_witness(self):
        t = godel_triple(GradeChain(4))
        rows = [list(r) for r in t.res_left_table]
        rows[2][3] = 4  # claim 0.5 <- 0.75 = 1, breaking adjointness
        broken = AdjointTriple(
            t.name, t.p1, t.p2, t.p3, t.conj_table,
            tuple(tuple(r) for r in rows), t.res_right_table,
        )
        report = check_triple_properties(broken)
        assert not report.adjointness_ok
        assert any("adjointness" in f for f in report.failures)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_commutative_triples_have_equal_residua(self, m):
        for factory in (godel_triple, lukasiewicz_triple):
            t = factory(GradeChain(m))
            assert t.res_left_table == t.res_right_table
        t = discretized_product_triple(m, m, m)
        assert t.res_left_table == t.res_right_table


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
