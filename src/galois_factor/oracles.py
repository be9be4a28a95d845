"""Brute-force reference implementations.

Everything here re-derives results straight from the definitions —
quantifier loops over the incidence, full scans of the candidate space,
residua recomputed from the conjunctor by the exhaustive search of
``residua_by_adjointness``, the twin of the derivation ``AdjointTriple``
runs, and checked by the O(m^3) ``brute_adjointness_witness`` — so the
fast paths can be validated against an independent route.  Deliberately
naive; imported only by the tests and by ``cli`` under its ``--oracle``
flag, never on the default path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .contexts import AttributeSubset, BooleanContext, FormalConcept, ObjectSubset
from .errors import AdjointnessError, BudgetExceededError
from .factorization import NecessityPair
from .fuzzy import (
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
)
from .grades import Grade, GradeChain, Table
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
    "residua_by_adjointness",
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
            found.append((_to_bits(xs), _to_bits(ys)))
    found.sort()
    extents, intents = map(list, zip(*found))
    return Lattice(ctx, FormalConcept, (extents, intents))


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


def brute_rstar(ctx: BooleanContext) -> BooleanContext:
    """The block relation R* in its literal form, as the context (A, B, R*).

    The intersection, over every necessity-closed pair (X, Y) of
    ``brute_cn``, of (X x Y) union (X^c x Y^c): cell (a, b) stays when a
    and b fall on the same side of every pair.
    """
    pairs, objs = brute_cn(ctx), range(len(ctx.objects))
    rows = tuple(
        _to_bits({b for b in objs if all((a in p.attrs) == (b in p.objects) for p in pairs)})
        for a in range(len(ctx.attributes))
    )
    return BooleanContext(ctx.attributes, ctx.objects, rows)


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
    conj(x, y) <= z iff y <= res_right(z, x), or None: the adjoint
    property checked by its definition on raw tables, in O(m^3)."""
    grid = product(range(len(conj)), range(len(conj[0])), range(len(res_left)))
    for x, y, z in grid:
        if not (x <= res_left[z][y]) == (conj[x][y] <= z) == (y <= res_right[z][x]):
            return (x, y, z)
    return None


def residua_by_adjointness(
    conj: Callable[[Grade, Grade], Grade],
    domains: tuple[GradeChain, GradeChain, GradeChain],
) -> tuple[Table, Table]:
    """Derive both residua of a conjunctor by exhaustive search: the naive
    twin of the derivation ``AdjointTriple`` runs.

    res_left(z, y) = max{x | conj(x, y) <= z} and symmetrically for
    res_right.  If a maximum does not exist, or the conjunctor is not
    monotone so that the maxima fail the adjoint property (as
    ``brute_adjointness_witness`` finds, not the monotonicity and zero
    checks of ``AdjointTriple``), an AdjointnessError names the offending
    grades.
    """
    p1, p2, p3 = domains
    table = tuple(
        tuple(conj(Grade(i, p1), Grade(j, p2)).num for j in range(p2.m + 1))
        for i in range(p1.m + 1)
    )

    res_left = []
    for k in range(p3.m + 1):
        row = []
        for j in range(p2.m + 1):
            xs = [i for i in range(p1.m + 1) if table[i][j] <= k]
            if not xs:
                raise AdjointnessError(
                    f"no x with conj(x, {Fraction(j, p2.m)}) <= {Fraction(k, p3.m)}: "
                    "the conjunctor admits no left residuum",
                    witness=(None, Grade(j, p2), Grade(k, p3)),
                )
            row.append(max(xs))
        res_left.append(tuple(row))

    res_right = []
    for k in range(p3.m + 1):
        row = []
        for i in range(p1.m + 1):
            ys = [j for j in range(p2.m + 1) if table[i][j] <= k]
            if not ys:
                raise AdjointnessError(
                    f"no y with conj({Fraction(i, p1.m)}, y) <= {Fraction(k, p3.m)}: "
                    "the conjunctor admits no right residuum",
                    witness=(Grade(i, p1), None, Grade(k, p3)),
                )
            row.append(max(ys))
        res_right.append(tuple(row))

    witness = brute_adjointness_witness(table, res_left, res_right)
    if witness is not None:
        x, y, z = (Grade(n, c) for n, c in zip(witness, domains))
        raise AdjointnessError(
            f"the adjoint property fails at x={x}, y={y}, z={z}", witness=(x, y, z)
        )
    return tuple(res_left), tuple(res_right)


def _residua(ctx: FuzzyContext) -> list[tuple[Table, Table]]:
    """Per triple, its residua recomputed from the conjunctor alone; the
    stored residuum tables are deliberately not consulted."""
    return [residua_by_adjointness(t.conj, t.domains) for t in ctx.triples]


# naive twins of the six graded operators of ``fuzzy``, on numerators: each
# is the formula of its ``f_*`` docstring, reading the residua recomputed by
# ``_residua`` or the conjunctor through ``t.conj``


def _graded_up(ctx: FuzzyContext, g, residua) -> tuple[int, ...]:
    """a -> inf over b of res_left(R(a,b), g(b))."""
    return tuple(min(residua[ctx.sigma_at(a, b)][0][r][g[b]] for b, r in enumerate(row))
                 for a, row in enumerate(ctx.relation))


def _graded_down(ctx: FuzzyContext, f, residua) -> tuple[int, ...]:
    """b -> inf over a of res_right(R(a,b), f(a))."""
    return tuple(min(residua[ctx.sigma_at(a, b)][1][r][f[a]] for a, r in enumerate(col))
                 for b, col in enumerate(zip(*ctx.relation)))


def _graded_up_pi(ctx: FuzzyContext, g) -> tuple[int, ...]:
    """a -> sup over b of conj(R(a,b), g(b))."""
    conj = [t.conj for t in ctx.triples]
    return tuple(max(conj[ctx.sigma_at(a, b)](Grade(r, ctx.p), Grade(g[b], ctx.l2)).num
                     for b, r in enumerate(row)) for a, row in enumerate(ctx.relation))


def _graded_down_n(ctx: FuzzyContext, f, residua) -> tuple[int, ...]:
    """b -> inf over a of res_right(f(a), R(a,b))."""
    return tuple(min(residua[ctx.sigma_at(a, b)][1][f[a]][r] for a, r in enumerate(col))
                 for b, col in enumerate(zip(*ctx.relation)))


def _graded_up_n(ctx: FuzzyContext, g, residua) -> tuple[int, ...]:
    """a -> inf over b of res_left(g(b), R(a,b))."""
    return tuple(min(residua[ctx.sigma_at(a, b)][0][g[b]][r] for b, r in enumerate(row))
                 for a, row in enumerate(ctx.relation))


def _graded_down_pi(ctx: FuzzyContext, f) -> tuple[int, ...]:
    """b -> sup over a of conj(f(a), R(a,b))."""
    conj = [t.conj for t in ctx.triples]
    return tuple(max(conj[ctx.sigma_at(a, b)](Grade(f[a], ctx.l1), Grade(r, ctx.p)).num
                     for a, r in enumerate(col)) for b, col in enumerate(zip(*ctx.relation)))


def _grid_fixpoints(ctx: FuzzyContext, up, down, make) -> list:
    """Scan the full grid of graded object sets: make(g, g-up) for g-up-down = g,
    with the twins ``up`` and ``down`` on the context's recomputed residua."""
    required = len(ctx.l2) ** len(ctx.objects)
    if required > BRUTE_GRID_LIMIT:
        raise BudgetExceededError(required, BRUTE_GRID_LIMIT, "grid points")
    residua, found = _residua(ctx), []
    for g in product(range(ctx.l2.m + 1), repeat=len(ctx.objects)):
        f = up(ctx, g, residua)
        if down(ctx, f, residua) == g:
            found.append(
                make(GradedObjectSet(g, ctx.l2), GradedAttributeSet(f, ctx.l1))
            )
    return found


def brute_fn(ctx: FuzzyContext) -> list[FuzzyNecessityPair]:
    """Scan the full grid of graded object sets for necessity-closed pairs."""
    return _grid_fixpoints(ctx, _graded_up_n, _graded_down_n, FuzzyNecessityPair)


def brute_fuzzy_concepts(ctx: FuzzyContext) -> list[MultiAdjointConcept]:
    """Scan the full grid of graded object sets for the fixpoints of down o up."""
    return _grid_fixpoints(ctx, _graded_up, _graded_down, MultiAdjointConcept)


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
