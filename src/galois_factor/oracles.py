"""Brute-force reference implementations.

Everything here re-derives results straight from the definitions —
quantifier loops over the incidence, full scans of the candidate space,
residua recomputed from the conjunctor by exhaustive search — so the fast
paths can be validated against an independent route.  Deliberately naive;
used by the test suite and behind the CLI ``--oracle`` flag, never on the
default path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .contexts import AttributeSubset, BooleanContext, FormalConcept, ObjectSubset
from .errors import BudgetExceededError
from .factorization import BlockMask, NecessityPair
from .fuzzy import (
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
)
from .order import Lattice

__all__ = [
    "OracleReport",
    "brute_concepts",
    "brute_covers",
    "brute_cn",
    "brute_rstar",
    "brute_fn",
    "brute_fuzzy_concepts",
    "brute_adjointness_witness",
    "bipartite_components",
    "compare_concepts",
    "compare_cn",
    "compare_fn",
    "compare_fuzzy_concepts",
    "compare_atoms",
]

BRUTE_SUBSET_LIMIT = 20
BRUTE_GRID_LIMIT = 10_000_000


@dataclass(frozen=True)
class OracleReport:
    """Agreement record: empty mismatches means the two routes coincide."""

    checked: int
    mismatches: tuple[tuple[str, str, str], ...]  # (input, fast answer, oracle answer)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _guard_subsets(ctx: BooleanContext) -> None:
    if len(ctx.objects) > BRUTE_SUBSET_LIMIT:
        raise BudgetExceededError(1 << len(ctx.objects), 1 << BRUTE_SUBSET_LIMIT, "subsets")


def _naive_up(ctx: BooleanContext, xs: set[int]) -> set[int]:
    return {
        i
        for i in range(len(ctx.attributes))
        if all(ctx.incidence[i][j] for j in xs)
    }


def _naive_down(ctx: BooleanContext, ys: set[int]) -> set[int]:
    return {
        j
        for j in range(len(ctx.objects))
        if all(ctx.incidence[i][j] for i in ys)
    }


def _naive_up_n(ctx: BooleanContext, xs: set[int]) -> set[int]:
    return {
        i
        for i in range(len(ctx.attributes))
        if all(not ctx.incidence[i][j] or j in xs for j in range(len(ctx.objects)))
    }


def _naive_down_n(ctx: BooleanContext, ys: set[int]) -> set[int]:
    return {
        j
        for j in range(len(ctx.objects))
        if all(not ctx.incidence[i][j] or i in ys for i in range(len(ctx.attributes)))
    }


def _subsets(n: int):
    for mask in range(1 << n):
        yield {i for i in range(n) if mask >> i & 1}


def _to_bits(indices: set[int]) -> int:
    return sum(1 << i for i in indices)


def brute_concepts(ctx: BooleanContext) -> Lattice:
    """Scan all object subsets, keep the fixpoints of down o up."""
    _guard_subsets(ctx)
    found = []
    for xs in _subsets(len(ctx.objects)):
        ys = _naive_up(ctx, xs)
        if _naive_down(ctx, ys) == xs:
            found.append(
                FormalConcept(
                    ObjectSubset(ctx, _to_bits(xs)), AttributeSubset(ctx, _to_bits(ys))
                )
            )
    found.sort(key=lambda c: c.extent.bits)
    return Lattice(ctx, tuple(found))


def brute_covers(n: int, le: Callable[[int, int], bool]) -> tuple[tuple[int, int], ...]:
    """Transitive reduction of a finite order given by a reflexive ``le``."""
    covers = []
    for j in range(n):
        lowers = [i for i in range(n) if i != j and le(i, j)]
        for i in lowers:
            if not any(k != i and le(i, k) for k in lowers):
                covers.append((i, j))
    return tuple(sorted(covers))


def brute_cn(ctx: BooleanContext) -> list[NecessityPair]:
    """Scan all object subsets, keep X with X-up-N-down-N = X."""
    _guard_subsets(ctx)
    found = []
    for xs in _subsets(len(ctx.objects)):
        ys = _naive_up_n(ctx, xs)
        if _naive_down_n(ctx, ys) == xs:
            found.append(
                NecessityPair(
                    ObjectSubset(ctx, _to_bits(xs)), AttributeSubset(ctx, _to_bits(ys))
                )
            )
    found.sort(key=lambda p: p.objects.bits)
    return found


def brute_rstar(ctx: BooleanContext) -> BlockMask:
    """The block mask in its literal form.

    The intersection, over every necessity-closed pair (X, Y) of
    ``brute_cn``, of (X x Y) union (X^c x Y^c): cell (a, b) stays when a
    and b fall on the same side of every pair.
    """
    pairs, objs = brute_cn(ctx), range(len(ctx.objects))
    rows = tuple(
        _to_bits({b for b in objs if all((a in p.attrs) == (b in p.objects) for p in pairs)})
        for a in range(len(ctx.attributes))
    )
    return BlockMask(ctx, rows)


def bipartite_components(
    ctx: BooleanContext,
) -> list[tuple[ObjectSubset, AttributeSubset]]:
    """Connected components of the incidence graph, by neighbour expansion.

    Each component starts from the first object (else attribute) not yet
    placed and takes in every neighbour of its members until it stops
    growing.
    """
    attrs, objs = range(len(ctx.attributes)), range(len(ctx.objects))
    free_objs, free_attrs = set(objs), set(attrs)
    out = []
    while free_objs or free_attrs:
        xs = {min(free_objs)} if free_objs else set()
        ys = set() if free_objs else {min(free_attrs)}
        while True:
            grown_ys = ys | {i for i in attrs for j in xs if ctx.incidence[i][j]}
            grown_xs = xs | {j for j in objs for i in grown_ys if ctx.incidence[i][j]}
            if (grown_xs, grown_ys) == (xs, ys):
                break
            xs, ys = grown_xs, grown_ys
        free_objs -= xs
        free_attrs -= ys
        out.append((ObjectSubset(ctx, _to_bits(xs)), AttributeSubset(ctx, _to_bits(ys))))
    out.sort(key=lambda pair: pair[0].bits)
    return out


def brute_adjointness_witness(conj, res_left, res_right):
    """First numerators (x, y, z) breaking x <= res_left(z, y) iff
    conj(x, y) <= z iff y <= res_right(z, x), or None: the naive O(m^3)
    twin of the check ``AdjointTriple`` runs, on raw tables."""
    grid = product(range(len(conj)), range(len(conj[0])), range(len(res_left)))
    for x, y, z in grid:
        if not (x <= res_left[z][y]) == (conj[x][y] <= z) == (y <= res_right[z][x]):
            return (x, y, z)
    return None


class _SearchResiduum:
    """Residua recomputed from the conjunctor table by maximum search.

    Trusts only the conjunctor (the maxima exist, as every triple is
    adjoint); the stored residuum tables are deliberately not consulted.
    """

    def __init__(self, triple):
        self.table = triple.conj_table
        self.m1 = triple.p1.m
        self.m2 = triple.p2.m

    def left(self, z: int, y: int) -> int:
        return max([x for x in range(self.m1 + 1) if self.table[x][y] <= z])

    def right(self, z: int, x: int) -> int:
        return max([y for y in range(self.m2 + 1) if self.table[x][y] <= z])


def _grid_fixpoints(ctx: FuzzyContext, up, down, make) -> list:
    """Scan the full grid of graded object sets: make(g, g-up) for g-up-down = g."""
    required = len(ctx.l2) ** len(ctx.objects)
    if required > BRUTE_GRID_LIMIT:
        raise BudgetExceededError(required, BRUTE_GRID_LIMIT, "grid points")
    found = []
    for g in product(range(ctx.l2.m + 1), repeat=len(ctx.objects)):
        f = up(g)
        if down(f) == g:
            found.append(
                make(GradedObjectSet(g, ctx.l2), GradedAttributeSet(f, ctx.l1))
            )
    return found


def brute_fn(ctx: FuzzyContext) -> list[FuzzyNecessityPair]:
    """Scan the full grid of graded object sets for necessity-closed pairs."""
    residua = [_SearchResiduum(t) for t in ctx.triples]

    def up_n(g):
        out = []
        for i in range(len(ctx.attributes)):
            vals = [
                residua[ctx.sigma_at(i, j)].left(g[j], ctx.relation[i][j])
                for j in range(len(ctx.objects))
            ]
            out.append(min(vals))
        return tuple(out)

    def down_n(f):
        out = []
        for j in range(len(ctx.objects)):
            vals = [
                residua[ctx.sigma_at(i, j)].right(f[i], ctx.relation[i][j])
                for i in range(len(ctx.attributes))
            ]
            out.append(min(vals))
        return tuple(out)

    return _grid_fixpoints(ctx, up_n, down_n, FuzzyNecessityPair)


def brute_fuzzy_concepts(ctx: FuzzyContext) -> list[MultiAdjointConcept]:
    """Scan the full grid of graded object sets for the fixpoints of down o up."""
    residua = [_SearchResiduum(t) for t in ctx.triples]

    def up(g):
        out = []
        for i in range(len(ctx.attributes)):
            vals = [
                residua[ctx.sigma_at(i, j)].left(ctx.relation[i][j], g[j])
                for j in range(len(ctx.objects))
            ]
            out.append(min(vals))
        return tuple(out)

    def down(f):
        out = []
        for j in range(len(ctx.objects)):
            vals = [
                residua[ctx.sigma_at(i, j)].right(ctx.relation[i][j], f[i])
                for i in range(len(ctx.attributes))
            ]
            out.append(min(vals))
        return tuple(out)

    return _grid_fixpoints(ctx, up, down, MultiAdjointConcept)


def _set_compare(kind: str, fast, slow) -> OracleReport:
    fast_set = set(fast)
    slow_set = set(slow)
    mismatches = []
    for item in sorted(fast_set - slow_set, key=repr):
        mismatches.append((kind, repr(item), "absent from oracle enumeration"))
    for item in sorted(slow_set - fast_set, key=repr):
        mismatches.append((kind, "absent from fast enumeration", repr(item)))
    return OracleReport(len(fast_set | slow_set), tuple(mismatches))


def compare_concepts(ctx: BooleanContext, fast: Lattice) -> OracleReport:
    return _set_compare("concept", fast, brute_concepts(ctx))


def compare_cn(ctx: BooleanContext, fast_pairs) -> OracleReport:
    return _set_compare("cn-pair", fast_pairs, brute_cn(ctx))


def compare_fn(ctx: FuzzyContext, fast_pairs) -> OracleReport:
    return _set_compare("fn-pair", fast_pairs, brute_fn(ctx))


def compare_fuzzy_concepts(ctx: FuzzyContext, fast: Lattice) -> OracleReport:
    return _set_compare("fuzzy-concept", fast, brute_fuzzy_concepts(ctx))


def compare_atoms(ctx: BooleanContext, fast_atoms) -> OracleReport:
    """Bipartite components against a caller-supplied atom list."""
    components = [NecessityPair(xs, ys) for xs, ys in bipartite_components(ctx)]
    return _set_compare("atom", fast_atoms, components)
