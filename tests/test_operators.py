"""The derivation operators that fold over set bits, against quantifier loops.

``_up_bits`` ANDs the columns of the objects in X and ``_down_bits`` the
rows of the attributes in Y; ``oracles._naive_up``/``_naive_down`` read the
incidence cell by cell.
"""

import random

import pytest

from galois_factor import BooleanContext
from galois_factor.contexts import _down_bits, _up_bits
from galois_factor.oracles import _naive_down, _naive_up


def random_context(rng, n_attrs, n_objs):
    density = rng.choice((0.1, 0.4, 0.7, 1.0))
    rows = [[rng.random() < density for _ in range(n_objs)] for _ in range(n_attrs)]
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
    )


def as_bits(indices):
    return sum(1 << i for i in indices)


def as_set(bits, n):
    return {i for i in range(n) if bits >> i & 1}


def check_context(rng, ctx):
    n_attrs, n_objs = len(ctx.attributes), len(ctx.objects)
    object_sets = [0, (1 << n_objs) - 1] + [rng.getrandbits(n_objs) for _ in range(8)]
    for xbits in object_sets:
        assert _up_bits(ctx, xbits) == as_bits(_naive_up(ctx, as_set(xbits, n_objs)))
    attribute_sets = [0, (1 << n_attrs) - 1] + [rng.getrandbits(n_attrs) for _ in range(8)]
    for ybits in attribute_sets:
        assert _down_bits(ctx, ybits) == as_bits(_naive_down(ctx, as_set(ybits, n_attrs)))


def test_random_contexts():
    rng = random.Random(4201)
    for _ in range(300):
        check_context(rng, random_context(rng, rng.randint(1, 12), rng.randint(1, 12)))


@pytest.mark.parametrize("n_attrs, n_objs", [(0, 0), (0, 5), (5, 0), (1, 1), (70, 3), (3, 70)])
def test_degenerate_and_wide_contexts(n_attrs, n_objs):
    rng = random.Random(f"operators-{n_attrs}x{n_objs}")
    for _ in range(10):
        check_context(rng, random_context(rng, n_attrs, n_objs))

