"""Shared worked-example contexts, their reference facts and the writers' twins.

Expected values frozen here were computed by hand or by independent brute
force before the fast paths existed; tests import them rather than
re-deriving anything through the code under test.  The twins build the JSON
data of results from the public records and operators alone, sharing no
code with the writers they check.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from galois_factor import (
    AttributeSubset,
    BooleanContext,
    ConceptInterval,
    Fp4Report,
    FuzzyContext,
    GradeChain,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
    ObjectSubset,
    discretized_product_triple,
    f_down,
    f_down_n,
    f_up,
    f_up_n,
    f_up_pi,
    godel_triple,
    is_fuzzy_normalized,
    is_top_normalized,
    lukasiewicz_triple,
)
from galois_factor.fuzzy import CHECKS
from galois_factor.io import SCHEMA

# 6 attributes x 6 objects; 9 incidences
TABLE1 = BooleanContext.from_rows(
    ["a1", "a2", "a3", "a4", "a5", "a6"],
    ["b1", "b2", "b3", "b4", "b5", "b6"],
    [
        [0, 1, 1, 1, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
    ],
)

# Reference listings print the third intent as {a1,a2,a5}, which is
# the necessity pair's attribute side, not a closed intent:
# {a1,a2,a5}-down = {b2,b3,b4} ∩ {b4} ∩ {b3} = {} there.  The closed value
# is {a1} (compare the analogous 8x7 concept, printed with intent {a1}).
TABLE1_CONCEPTS = [
    ((), ("a1", "a2", "a3", "a4", "a5", "a6")),
    (("b5",), ("a4", "a6")),
    (("b5", "b6"), ("a4",)),
    (("b1",), ("a3",)),
    (("b4",), ("a1", "a2")),
    (("b3",), ("a1", "a5")),
    (("b2", "b3", "b4"), ("a1",)),
    (("b1", "b2", "b3", "b4", "b5", "b6"), ()),
]

# Hasse edges of the 8-concept lattice, as (lower extent, upper extent)
TABLE1_COVER_EXTENTS = [
    ((), ("b5",)),
    (("b5",), ("b5", "b6")),
    (("b5", "b6"), ("b1", "b2", "b3", "b4", "b5", "b6")),
    ((), ("b1",)),
    (("b1",), ("b1", "b2", "b3", "b4", "b5", "b6")),
    ((), ("b3",)),
    (("b3",), ("b2", "b3", "b4")),
    (("b2", "b3", "b4"), ("b1", "b2", "b3", "b4", "b5", "b6")),
    ((), ("b4",)),
    (("b4",), ("b2", "b3", "b4")),
]

# The eight necessity-closed pairs of the 6x6 context
TABLE1_CN_PAIRS = [
    ((), ()),
    (("b5", "b6"), ("a4", "a6")),
    (("b2", "b3", "b4"), ("a1", "a2", "a5")),
    (("b2", "b3", "b4", "b5", "b6"), ("a1", "a2", "a4", "a5", "a6")),
    (("b1",), ("a3",)),
    (("b1", "b5", "b6"), ("a3", "a4", "a6")),
    (("b1", "b2", "b3", "b4"), ("a1", "a2", "a3", "a5")),
    (("b1", "b2", "b3", "b4", "b5", "b6"), ("a1", "a2", "a3", "a4", "a5", "a6")),
]

TABLE1_CN_IRREDUCIBLES = [
    (("b5", "b6"), ("a4", "a6")),
    (("b2", "b3", "b4"), ("a1", "a2", "a5")),
    (("b1",), ("a3",)),
]

# 8 attributes x 7 objects; 15 incidences
TABLE2 = BooleanContext.from_rows(
    ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"],
    ["b1", "b2", "b3", "b4", "b5", "b6", "b7"],
    [
        [0, 1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1],
        [0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1],
    ],
)

# Reference listings print the sixth pair's attribute side as {a1,a2,a4,a5,a7};
# complement closure forces the complement of ({b1},{a3}), i.e. a6 and a8
# belong there too.
TABLE2_CN_NONTRIVIAL = [
    (("b5", "b6", "b7"), ("a4", "a6", "a8")),
    (("b1",), ("a3",)),
    (("b2", "b3", "b4"), ("a1", "a2", "a5", "a7")),
    (("b1", "b5", "b6", "b7"), ("a3", "a4", "a6", "a8")),
    (("b1", "b2", "b3", "b4"), ("a1", "a2", "a3", "a5", "a7")),
    (
        ("b2", "b3", "b4", "b5", "b6", "b7"),
        ("a1", "a2", "a4", "a5", "a6", "a7", "a8"),
    ),
]

TABLE2_CONCEPTS = [
    ((), ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8")),
    (("b6",), ("a4", "a6", "a8")),
    (("b3",), ("a1", "a5", "a7")),
    (("b5", "b6"), ("a6", "a8")),
    (("b6", "b7"), ("a4", "a8")),
    (("b1",), ("a3",)),
    (("b4",), ("a1", "a2")),
    (("b2", "b3"), ("a1", "a5")),
    (("b5", "b6", "b7"), ("a8",)),
    (("b2", "b3", "b4"), ("a1",)),
    (("b1", "b2", "b3", "b4", "b5", "b6", "b7"), ()),
]

# 2x2 diagonal context: hand-enumerable end to end
DIAG2 = BooleanContext.from_rows(
    ["a1", "a2"], ["b1", "b2"], [[1, 0], [0, 1]]
)

# a normalized 11 x 20 context of 6 shuffled blocks (64 cn pairs, 15
# concepts), whose names JSON and DOT must escape; its object and attribute
# bits span three and two bytes
WIDE = BooleanContext.from_rows(
    ["a0", 'a"1', "a\\2", "é3", "a4", "tab\t5", "a6", "€7", 'q"8"', "a9", "😀10"],
    [
        "b0", 'b"1', "b\\2", "ö3", "b4", "b\t5", "b6", "Ж7", "b8", '"b9"',
        "b10", "b\\11", "b12", "b13", "€14", "b15", "b16", "b17", 'x"\\18', "b19",
    ],
    [
        [ch == "X" for ch in row]
        for row in (
            "..X......X........X.",
            ".......X...X........",
            "......XX....X.......",
            "X.......X........X..",
            "................X...",
            "..X......X..........",
            ".X..X.........X.....",
            ".X...........X......",
            "X................X..",
            ".....X....X....X....",
            "...X............X..X",
        )
    ],
)


def godel4():
    return godel_triple(GradeChain(4))


def lukasiewicz4():
    return lukasiewicz_triple(GradeChain(4))


def godel_r1() -> FuzzyContext:
    """Normalized but not top-normalized: no row attains 1."""
    return FuzzyContext.from_values(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3"],
        godel4(),
        [["0.5", "0.25", "0"], ["0.5", "1", "0"], ["0", "0", "0.75"]],
    )


def godel_r2() -> FuzzyContext:
    """Top-normalized by rows."""
    return FuzzyContext.from_values(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3"],
        godel4(),
        [["1", "0.25", "0"], ["0.5", "1", "0"], ["0", "0", "1"]],
    )


def luk_table3() -> FuzzyContext:
    """2x2 Lukasiewicz context where the bottom pair escapes the closure."""
    return FuzzyContext.from_values(
        ["a1", "a2"], ["b1", "b2"], lukasiewicz4(), [["0.5", "0"], ["0", "0.75"]]
    )


def dprod_r1() -> FuzzyContext:
    """Not normalized: the first row has no zero."""
    return FuzzyContext.from_values(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3"],
        discretized_product_triple(4, 4, 4),
        [["0.5", "0.5", "1"], ["0.25", "1", "0"], ["0", "0.75", "0.25"]],
    )


def dprod_r2() -> FuzzyContext:
    """Normalized discretized-product context with exactly 20 closed pairs."""
    return FuzzyContext.from_values(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3"],
        discretized_product_triple(4, 4, 4),
        [["0.5", "0", "1"], ["0", "0.5", "0"], ["0.75", "0", "0.25"]],
    )



def dprod_escaped() -> FuzzyContext:
    """dprod_r2's frame with names JSON and DOT must escape (quote,
    backslash, tab, non-ASCII) that also hold a DOT label's own ``:``,
    ``, ``, ``|`` and ``{``: 13 fn pairs and 17 concepts."""
    return FuzzyContext.from_values(
        ['a"1', "x:\ty, z", "é|{3"],
        ["b\\1", "{o}, ö:2", "Ж|3 😀"],
        discretized_product_triple(4, 4, 4),
        [["0.5", "0", "1"], ["0", "0.25", "0.75"], ["1", "0.5", "0"]],
    )


def godel_metachars() -> FuzzyContext:
    """A top-normalized godel:4 context whose names hold the metacharacters
    of ``%`` and ``str.format`` templates: ``%s``, ``%%``, ``%(x)s``, a
    lone ``%`` and ``{0}``."""
    return FuzzyContext.from_values(
        ["%s", "a%%", "%(x)s"],
        ["{0}", "b%", "%%s{}"],
        godel4(),
        [["1", "0.25", "0"], ["0.5", "1", "0.75"], ["0", "0.5", "1"]],
    )

# 6 attributes x 12 objects for godel:4, cells drawn in row-major order by
# random.Random(1).choice(["0", "1/4", "1/2", "3/4", "1"]).  Its grid of
# graded object sets has 5**12 = 244,140,625 points, but fn's closure walk
# evaluates 45 closures (5 pairs), and the same walk on the concept closure
# 1,148 for the 727 concepts.
WIDE_GODEL_CSV = """R,b1,b2,b3,b4,b5,b6,b7,b8,b9,b10,b11,b12
a1,1/4,1,0,1/2,0,3/4,3/4,3/4,3/4,1/4,0,3/4
a2,0,3/4,3/4,1,0,3/4,1/2,1/4,1,0,1/2,0
a3,0,0,1,0,3/4,1/4,3/4,0,1,1/4,3/4,3/4
a4,1,1/4,1/2,1/4,1/4,3/4,1/2,0,3/4,1,0,1/4
a5,1/2,0,1/2,1,3/4,1,1/4,1/2,1/2,1,3/4,1
a6,3/4,1,0,3/4,1/4,3/4,3/4,1/4,1/2,1,1/2,0
"""

# 5 attributes x 4 objects for lukasiewicz:32.  Its one necessity-closed
# pair is the top: fn's closure walk evaluates 1 closure, where a scan of
# the fixpoints of down-N o up-pi evaluated over 100,000.
LUKASIEWICZ_32_CSV = """R,b1,b2,b3,b4
a1,1/16,19/32,0,1/8
a2,3/16,1/16,3/8,13/16
a3,9/16,1/2,9/32,1/16
a4,21/32,5/8,23/32,1/4
a5,3/4,3/4,29/32,3/4
"""

# Goedel R2 concept list (extent values, intent values) on the m=4 chain
GODEL_R2_CONCEPTS = [
    (("0", "0", "0"), ("1", "1", "1")),
    (("0.5", "0.25", "0"), ("1", "1", "0")),
    (("0", "0", "1"), ("0", "0", "1")),
    (("1", "0.25", "0"), ("1", "0.5", "0")),
    (("0.5", "1", "0"), ("0.25", "1", "0")),
    (("1", "1", "0"), ("0.25", "0.5", "0")),
    (("1", "1", "1"), ("0", "0", "0")),
]

# Reference closed pairs of the Goedel R2 context.  The first nontrivial
# pair is printed identically to the fifth; the later worked inequality
# (1 vs 0.75 at the third attribute) pins its third grade at 0.75.
GODEL_R2_FN_LISTED = [
    (("0", "0", "0"), ("0", "0", "0")),
    (("0", "0", "0.75"), ("0", "0", "0.75")),
    (("0.75", "0.5", "0"), ("0.75", "0.5", "0")),
    (("1", "0.75", "0"), ("1", "0.75", "0")),
    (("0.75", "0.5", "0.5"), ("0.75", "0.5", "0.5")),
    (("0", "0", "0.5"), ("0", "0", "0.5")),
    (("1", "1", "1"), ("1", "1", "1")),
]

# Reference closed pairs of the discretized-product context (12 of the 20)
DPROD_R2_FN_LISTED = [
    (("0", "0", "0"), ("0", "0", "0")),
    (("0", "1", "0"), ("0", "1", "0")),
    (("0.25", "0", "0.25"), ("0.25", "0", "0.25")),
    (("0.25", "0", "0.5"), ("0.5", "0", "0.25")),
    (("0.5", "0", "0.25"), ("0.25", "0", "0.5")),
    (("0.5", "0", "1"), ("1", "0", "0.5")),
    (("0.5", "1", "0.25"), ("0.25", "1", "0.5")),
    (("0.5", "1", "0.5"), ("0.5", "1", "0.5")),
    (("0.5", "1", "0.75"), ("0.75", "1", "0.5")),
    (("0.5", "1", "1"), ("1", "1", "0.5")),
    (("1", "0", "1"), ("1", "0", "1")),
    (("1", "1", "1"), ("1", "1", "1")),
]


def concept_set(lattice):
    """Concepts as ((extent names), (intent names)) pairs for set comparison."""
    return {(c.extent.names, c.intent.names) for c in lattice}


def pair_set(pairs):
    return {(p.objects.names, p.attrs.names) for p in pairs}


def fuzzy_value_set(items, kind="pair"):
    if kind == "pair":
        return {(p.g.values, p.f.values) for p in items}
    return {(c.extent.values, c.intent.values) for c in items}


def plain(value, ctx=None):
    """A result record as JSON data: its dataclass fields in order,
    recursively.  Subsets become their member names, graded sets their
    exact grade strings by name (``ctx`` names the positions) and tuples
    lists, so a lattice element's keys are its field names."""
    if isinstance(value, (GradedObjectSet, GradedAttributeSet)):
        names = ctx.objects if isinstance(value, GradedObjectSet) else ctx.attributes
        return {name: str(Fraction(v, value.chain.m)) for name, v in zip(names, value.values)}
    if isinstance(value, (ObjectSubset, AttributeSubset)):
        return list(value.names)
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name), ctx) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return list(value)
    return value


def twin_checks(ctx, pair) -> dict:
    """fp1-fp5 of ``pair`` from the public operators alone, each image
    evaluated where the proposition reads it; fp1 and fp3 compare g-up-pi
    with g-up-N, not with f."""
    g, f = pair.g, pair.f
    up_pi, up_n, up = f_up_pi(ctx, g), f_up_n(ctx, g), f_up(ctx, g)
    strict = tuple(any(b > r for b, r in zip(g.values, row)) for row in ctx.relation)
    top = tuple(
        any(b == ctx.l2.m and r == ctx.p.m for b, r in zip(g.values, row))
        for row in ctx.relation
    )
    either = tuple(s or t for s, t in zip(strict, top))
    lower, upper = f_down(ctx, f), f_down(ctx, up)
    return {
        "fp1": up_pi <= up_n,
        "fp2": f_down_n(ctx, up_pi) == g,
        "fp3": up_n <= up_pi,
        "fp4": Fp4Report(strict, top, either, all(either), up <= up_pi, up, up_pi),
        "fp5": ConceptInterval(
            MultiAdjointConcept(lower, f_up(ctx, lower)),
            MultiAdjointConcept(upper, up),
            lower <= upper,
        ),
    }


def twin_check_tree(ctx, lattice, selected, props) -> dict:
    """The ``check`` report document as a JSON tree, its rows the
    ``plain`` forms of the pairs and of ``twin_checks``, in ``CHECKS``
    order."""
    pairs = list(lattice)
    rows = []
    for i in selected:
        twin = twin_checks(ctx, pairs[i])
        rows.append({"pair": i, **plain(pairs[i], ctx), **{
            p: plain(twin[p], ctx) for p in CHECKS if p in props
        }})
    return {
        "schema": SCHEMA,
        "type": "check",
        "preconditions": {
            "normalized": is_fuzzy_normalized(ctx),
            "top_normalized_rows": is_top_normalized(ctx, "rows"),
            "top_normalized_columns": is_top_normalized(ctx, "columns"),
            "godel_frame": all(t.is_godel for t in ctx.triples),
        },
        "pair_count": len(pairs),
        "rows": rows,
    }


def random_context(rng: random.Random, max_side: int = 10) -> BooleanContext:
    """A random Boolean context, attribute-major, varying density."""
    n_attrs = rng.randint(1, max_side)
    n_objs = rng.randint(1, max_side)
    density = rng.choice((0.2, 0.4, 0.6))
    rows = [
        [rng.random() < density for _ in range(n_objs)] for _ in range(n_attrs)
    ]
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
    )


def _random_block_diagonal(rng: random.Random, max_side: int) -> BooleanContext:
    """Disjoint union of small random blocks, rows and columns shuffled."""
    sizes = []
    attrs_left = objs_left = max_side
    for _ in range(rng.randint(1, 4)):
        if attrs_left < 1 or objs_left < 1:
            break
        na = rng.randint(1, min(3, attrs_left))
        nb = rng.randint(1, min(3, objs_left))
        sizes.append((na, nb))
        attrs_left -= na
        objs_left -= nb
    n_attrs = sum(na for na, _ in sizes)
    n_objs = sum(nb for _, nb in sizes)
    grid = [[0] * n_objs for _ in range(n_attrs)]
    i0 = j0 = 0
    for na, nb in sizes:
        for i in range(na):
            for j in range(nb):
                grid[i0 + i][j0 + j] = int(rng.random() < 0.6)
        i0 += na
        j0 += nb
    row_order = list(range(n_attrs))
    col_order = list(range(n_objs))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    rows = [[grid[i][j] for j in col_order] for i in row_order]
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], rows
    )


def random_normalized_context(rng: random.Random, max_side: int = 10) -> BooleanContext:
    """Normalized random context, biased toward multi-component cores.

    Half the draws are plain random grids (often connected), half disjoint
    unions of small blocks; either way the normalized core is returned,
    retrying degenerate ones.
    """
    from galois_factor import normalize

    while True:
        raw = (
            random_context(rng, max_side)
            if rng.random() < 0.5
            else _random_block_diagonal(rng, max_side)
        )
        core = normalize(raw).core
        if core.objects and core.attributes:
            return core


def random_fuzzy_context(rng: random.Random) -> FuzzyContext:
    """Small random fuzzy context over a uniform frame (chains of at most 5)."""
    m = rng.randint(1, 4)
    chain = GradeChain(m)
    maker = rng.choice(
        (godel_triple, lukasiewicz_triple, lambda c: discretized_product_triple(c.m, c.m, c.m))
    )
    triple = maker(chain)
    n_attrs = rng.randint(1, 4)
    n_objs = rng.randint(1, 4)
    relation = [[rng.randint(0, m) for _ in range(n_objs)] for _ in range(n_attrs)]
    return FuzzyContext(
        [f"a{i}" for i in range(n_attrs)],
        [f"b{j}" for j in range(n_objs)],
        (triple,),
        relation,
    )


def triple_law_failures(triple) -> list[str]:
    """The boundary and meet-distribution laws a triple breaks, by direct loops.

    Boundary: bottom & y = bottom, x & bottom = bottom, top res_left y = top,
    top res_right x = top.  Meet distribution: (z1 min z2) res_left y =
    (z1 res_left y) min (z2 res_left y), and the same for res_right.
    """
    m1, m2, m3 = (c.m for c in triple.domains)
    conj, left, right = triple.conj_table, triple.res_left_table, triple.res_right_table
    failures = []
    failures += [f"bottom & {j}" for j in range(m2 + 1) if conj[0][j] != 0]
    failures += [f"{i} & bottom" for i in range(m1 + 1) if conj[i][0] != 0]
    failures += [f"top res_left {j}" for j in range(m2 + 1) if left[m3][j] != m1]
    failures += [f"top res_right {i}" for i in range(m1 + 1) if right[m3][i] != m2]
    for res, width in ((left, m2), (right, m1)):
        for z1 in range(m3 + 1):
            for z2 in range(m3 + 1):
                for v in range(width + 1):
                    if res[min(z1, z2)][v] != min(res[z1][v], res[z2][v]):
                        failures.append(f"meet at z1={z1}, z2={z2}, argument {v}")
    return failures


HUGE_EXPONENTS = ["1e-999999999", "1e999999999"]


def fraction_refusing(*cells):
    """``Fraction``, but failing the test on ``cells`` instead of building them."""

    def fraction(value, *args):
        assert value not in cells, f"Fraction({value!r}) was reached"
        return Fraction(value, *args)

    return fraction
