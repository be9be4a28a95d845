"""Every operator refuses a set of the other side.

The contexts are square and the fuzzy one has a single chain, so a set of
either side has the size and chain of the other: only its type tells them
apart.  Read as the other side's bits or numerators, it would give an
answer, and a wrong one.
"""

import pytest

from galois_factor import (
    BooleanContext,
    FuzzyContext,
    FuzzyNecessityPair,
    GradeChain,
    GradedAttributeSet,
    GradedObjectSet,
    NecessityPair,
    block_bounds,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    complement,
    down,
    down_n,
    down_pi,
    f_down,
    f_down_n,
    f_down_pi,
    f_up,
    f_up_n,
    f_up_pi,
    fn_enumerate,
    in_cn,
    in_fn,
    interval_from_pair,
    restrict,
    up,
    up_n,
    up_pi,
)
from galois_factor.grades import triple_from_descriptor
from tables import DIAG2

SQUARE = BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 0], [1, 1]])
# its fn pairs have f != g, so a swapped pair reads as a different one
FUZZY_SQUARE = FuzzyContext(
    ["a1", "a2"], ["b1", "b2"], (triple_from_descriptor("lukasiewicz:4"),), [[4, 1], [2, 3]]
)


@pytest.mark.parametrize("op", [up, up_n, up_pi])
def test_object_operators_refuse_attribute_sets(op):
    assert op(SQUARE, SQUARE.all_objects) is not None
    with pytest.raises(TypeError, match="expected ObjectSubset, got AttributeSubset"):
        op(SQUARE, SQUARE.all_attributes)


@pytest.mark.parametrize("op", [down, down_n, down_pi])
def test_attribute_operators_refuse_object_sets(op):
    assert op(SQUARE, SQUARE.all_attributes) is not None
    with pytest.raises(TypeError, match="expected AttributeSubset, got ObjectSubset"):
        op(SQUARE, SQUARE.all_objects)


def test_restrict_refuses_swapped_sides():
    xs, ys = SQUARE.object_set(["b1"]), SQUARE.attribute_set(["a2"])
    assert restrict(SQUARE, xs, ys).objects == ("b1",)
    with pytest.raises(TypeError):
        restrict(SQUARE, ys, xs)


def test_boolean_pair_functions_refuse_swapped_pairs():
    # (A, B) reads as (B, A) when the sides are not told apart: in_cn said True
    assert in_cn(SQUARE, NecessityPair(SQUARE.all_objects, SQUARE.all_attributes))
    with pytest.raises(TypeError):
        in_cn(SQUARE, NecessityPair(SQUARE.all_attributes, SQUARE.all_objects))
    # a nontrivial pair of the 2x2 diagonal, its sides swapped
    pair = NecessityPair(DIAG2.object_set(["b1"]), DIAG2.attribute_set(["a1"]))
    assert complement(DIAG2, pair).objects.names == ("b2",)
    assert block_bounds(DIAG2, pair).upper_is_coatom is True
    swapped = NecessityPair(pair.attrs, pair.objects)
    for function in (in_cn, complement, block_bounds):
        with pytest.raises(TypeError):
            function(DIAG2, swapped)


GRADED_OBJECT_OPS = [f_up, f_up_pi, f_up_n]
GRADED_ATTRIBUTE_OPS = [f_down, f_down_n, f_down_pi]


# a set of the right side that does not fit FUZZY_SQUARE: another chain, or
# another length
MISFITS = [((4, 4), GradeChain(8)), ((4, 4, 4), GradeChain(4))]


@pytest.mark.parametrize("op", GRADED_OBJECT_OPS)
def test_graded_object_operators_refuse_attribute_sets(op):
    ctx = FUZZY_SQUARE
    assert op(ctx, ctx.g_top) is not None
    with pytest.raises(TypeError, match="expected GradedObjectSet, got GradedAttributeSet"):
        op(ctx, ctx.f_top)
    for values, chain in MISFITS:
        with pytest.raises(ValueError, match="GradedObjectSet does not fit this context"):
            op(ctx, GradedObjectSet(values, chain))


@pytest.mark.parametrize("op", GRADED_ATTRIBUTE_OPS)
def test_graded_attribute_operators_refuse_object_sets(op):
    ctx = FUZZY_SQUARE
    assert op(ctx, ctx.f_top) is not None
    with pytest.raises(TypeError, match="expected GradedAttributeSet, got GradedObjectSet"):
        op(ctx, ctx.g_top)
    for values, chain in MISFITS:
        with pytest.raises(ValueError, match="GradedAttributeSet does not fit this context"):
            op(ctx, GradedAttributeSet(values, chain))


@pytest.mark.parametrize(
    "function", [in_fn, check_fp1, check_fp2, check_fp3, check_fp4, interval_from_pair]
)
def test_graded_pair_functions_refuse_swapped_pairs(function):
    ctx = FUZZY_SQUARE
    assert ctx.l1 == ctx.l2 and len(ctx.attributes) == len(ctx.objects)
    pair = next(p for p in fn_enumerate(ctx) if p.g.values != p.f.values)
    assert function(ctx, pair) is not None
    with pytest.raises(TypeError):
        function(ctx, FuzzyNecessityPair(pair.f, pair.g))
