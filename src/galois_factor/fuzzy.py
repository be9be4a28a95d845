"""Multi-adjoint fuzzy contexts and the graded necessity closures.

A fuzzy context carries three grade chains L1 (attribute grades), L2
(object grades) and P (relation grades), one or more adjoint triples, and
a per-cell triple selector.  The three operator families need the triple
domains arranged differently:

    concept-forming   up / down       triple on (L1, L2, P)
    property-oriented up_pi / down_n  triple on (P, L2, L1)
    object-oriented   up_n / down_pi  triple on (L1, P, L2)

A context is constructed from its triples for one arrangement, and takes
its chains from them: all its triples share one set of domains (else
FrameArrangementError), which the arrangement names.  Each arrangement
swaps at most two chains, so ``_arrangement`` maps the domains back to
(L1, L2, P) as well.  An operator whose arrangement the triple does not
satisfy raises FrameArrangementError.  When all three chains coincide
(the usual case in examples) one triple satisfies every arrangement and
all six operators are available.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import order
from .errors import FrameArrangementError
from .grades import AdjointTriple, Grade, GradeChain

__all__ = [
    "FrameKind",
    "FuzzyContext",
    "GradedObjectSet",
    "GradedAttributeSet",
    "FuzzyNecessityPair",
    "MultiAdjointConcept",
    "Fp4Report",
    "ConceptInterval",
    "f_up",
    "f_down",
    "f_up_pi",
    "f_down_n",
    "f_up_n",
    "f_down_pi",
    "in_fn",
    "fn_enumerate",
    "fn_meet",
    "fuzzy_concepts",
    "is_fuzzy_normalized",
    "is_top_normalized",
    "check_fp1",
    "check_fp2",
    "check_fp3",
    "check_fp4",
    "interval_from_pair",
]


class FrameKind(enum.Enum):
    CONCEPT_FORMING = "concept-forming"
    PROPERTY_ORIENTED = "property-oriented"
    OBJECT_ORIENTED = "object-oriented"


def _arrangement(
    kind: FrameKind, l1: GradeChain, l2: GradeChain, p: GradeChain
) -> tuple[GradeChain, GradeChain, GradeChain]:
    """The domains a triple needs under ``kind``, from (L1, L2, P); each such
    permutation is its own inverse, so it also maps domains to (L1, L2, P)."""
    if kind is FrameKind.CONCEPT_FORMING:
        return (l1, l2, p)
    if kind is FrameKind.PROPERTY_ORIENTED:
        return (p, l2, l1)
    return (l1, p, l2)


@dataclass(frozen=True)
class FuzzyContext:
    """A P-valued relation over a multi-adjoint frame.

    ``relation[i][j]`` is the numerator on P of the grade relating
    attribute i to object j; ``sigma`` picks the triple per cell (None
    means the first triple everywhere).  The chains ``l1``, ``l2``, ``p``
    are the triples' shared domains, read in the ``kind`` arrangement.
    """

    attributes: tuple[str, ...]
    objects: tuple[str, ...]
    triples: tuple[AdjointTriple, ...]
    relation: tuple[tuple[int, ...], ...]
    sigma: tuple[tuple[int, ...], ...] | None = None
    kind: FrameKind = FrameKind.CONCEPT_FORMING
    l1: GradeChain = field(init=False, repr=False, compare=False)
    l2: GradeChain = field(init=False, repr=False, compare=False)
    p: GradeChain = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "triples", tuple(self.triples))
        object.__setattr__(self, "relation", tuple(tuple(r) for r in self.relation))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", tuple(tuple(r) for r in self.sigma))
        if not self.attributes or not self.objects:
            raise ValueError("attribute and object sets must be non-empty")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        if not self.triples:
            raise ValueError("a context needs at least one adjoint triple")
        first = self.triples[0]
        for t in self.triples:
            if t.domains != first.domains:
                raise FrameArrangementError(
                    f"triple {t.name} has domains {tuple(map(str, t.domains))} but "
                    f"{first.name} has {tuple(map(str, first.domains))}"
                )
        for name, chain in zip(("l1", "l2", "p"), _arrangement(self.kind, *first.domains)):
            object.__setattr__(self, name, chain)
        if len(self.relation) != len(self.attributes):
            raise ValueError("relation must have one row per attribute")
        for row in self.relation:
            if len(row) != len(self.objects):
                raise ValueError("relation row length must equal the number of objects")
            for v in row:
                if not 0 <= v <= self.p.m:
                    raise ValueError(f"relation numerator {v} is off the chain {self.p}")
        if self.sigma is not None:
            if len(self.sigma) != len(self.attributes) or any(
                len(r) != len(self.objects) for r in self.sigma
            ):
                raise ValueError("sigma must match the relation shape")
            for row in self.sigma:
                for s in row:
                    if not 0 <= s < len(self.triples):
                        raise ValueError(f"sigma index {s} out of range")
        # per-operator lookup rows of the kernel, filled on first use
        object.__setattr__(self, "_lookup", {})

    @classmethod
    def from_values(
        cls,
        attributes: Sequence[str],
        objects: Sequence[str],
        triple: AdjointTriple | Sequence[AdjointTriple],
        values: Iterable[Iterable],
        sigma: Iterable[Iterable[int]] | None = None,
        kind: FrameKind = FrameKind.CONCEPT_FORMING,
    ) -> "FuzzyContext":
        """Build a context from grade values on the relation chain P."""
        triples = (triple,) if isinstance(triple, AdjointTriple) else tuple(triple)
        p = _arrangement(kind, *triples[0].domains)[2]
        relation = tuple(tuple(p.numerator_of(v) for v in row) for row in values)
        return cls(attributes, objects, triples, relation, sigma, kind)

    def sigma_at(self, i: int, j: int) -> int:
        return 0 if self.sigma is None else self.sigma[i][j]

    def relation_grade(self, attribute: str, obj: str) -> Grade:
        i = self.attributes.index(attribute)
        j = self.objects.index(obj)
        return Grade(self.relation[i][j], self.p)

    def graded_objects(self, values) -> "GradedObjectSet":
        return GradedObjectSet(self._parse_values(values, self.objects, self.l2), self.l2)

    def graded_attributes(self, values) -> "GradedAttributeSet":
        return GradedAttributeSet(
            self._parse_values(values, self.attributes, self.l1), self.l1
        )

    @staticmethod
    def _parse_values(values, names: tuple[str, ...], chain: GradeChain) -> tuple[int, ...]:
        if isinstance(values, Mapping):
            missing = [n for n in names if n not in values]
            if missing:
                raise ValueError(f"missing grades for {missing}")
            seq = [values[n] for n in names]
        else:
            seq = list(values)
            if len(seq) != len(names):
                raise ValueError(f"expected {len(names)} grades, got {len(seq)}")
        return tuple(chain.numerator_of(v) for v in seq)

    @property
    def g_top(self) -> "GradedObjectSet":
        return GradedObjectSet((self.l2.m,) * len(self.objects), self.l2)

    @property
    def g_bottom(self) -> "GradedObjectSet":
        return GradedObjectSet((0,) * len(self.objects), self.l2)

    @property
    def f_top(self) -> "GradedAttributeSet":
        return GradedAttributeSet((self.l1.m,) * len(self.attributes), self.l1)

    @property
    def f_bottom(self) -> "GradedAttributeSet":
        return GradedAttributeSet((0,) * len(self.attributes), self.l1)


class _GradedSet:
    values: tuple[int, ...]
    chain: GradeChain

    def _mate(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.chain != self.chain or len(other.values) != len(self.values):
            raise ValueError("graded sets live on different chains or universes")

    def __le__(self, other) -> bool:
        self._mate(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __lt__(self, other) -> bool:
        self._mate(other)
        return self.values != other.values and self <= other

    def meet(self, other):
        self._mate(other)
        return type(self)(tuple(map(min, self.values, other.values)), self.chain)

    def join(self, other):
        self._mate(other)
        return type(self)(tuple(map(max, self.values, other.values)), self.chain)

    def grade(self, index: int) -> Grade:
        return Grade(self.values[index], self.chain)

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.chain.m) for v in self.values)

    def __repr__(self) -> str:
        body = ", ".join(str(Fraction(v, self.chain.m)) for v in self.values)
        return f"{type(self).__name__}({body})"


@dataclass(frozen=True, repr=False)
class GradedObjectSet(_GradedSet):
    """A fuzzy subset of objects: one L2 grade per object, in object order."""

    values: tuple[int, ...]
    chain: GradeChain


@dataclass(frozen=True, repr=False)
class GradedAttributeSet(_GradedSet):
    """A fuzzy subset of attributes: one L1 grade per attribute."""

    values: tuple[int, ...]
    chain: GradeChain


def _claim_g(ctx: FuzzyContext, g: GradedObjectSet) -> tuple[int, ...]:
    if g.chain != ctx.l2 or len(g.values) != len(ctx.objects):
        raise ValueError("graded object set does not fit this context")
    return g.values


def _claim_f(ctx: FuzzyContext, f: GradedAttributeSet) -> tuple[int, ...]:
    if f.chain != ctx.l1 or len(f.values) != len(ctx.attributes):
        raise ValueError("graded attribute set does not fit this context")
    return f.values


def _require_arrangement(ctx: FuzzyContext, kind: FrameKind, op: str) -> None:
    wanted = _arrangement(kind, ctx.l1, ctx.l2, ctx.p)
    if ctx.triples[0].domains != wanted:
        raise FrameArrangementError(
            f"operator {op} needs an adjoint triple on "
            f"{tuple(map(str, wanted))} ({kind.value} arrangement); this frame "
            f"provides {tuple(map(str, ctx.triples[0].domains))}"
        )


# numerator-level operator kernel
#
# Each graded operator is an inf or a sup, over one axis of the relation, of
# a per-cell lookup: the cell's triple table read at the relation grade and
# the input grade, in the order the operator's formula names them.  The rows
# of lookups are built once per context and operator, so evaluating an
# operator is only indexing and min/max.

_OPERATORS = {
    # name: (triple table, relation grade first, output axis, aggregate)
    "up": ("res_left_table", True, "attributes", min),
    "down": ("res_right_table", True, "objects", min),
    "up_pi": ("conj_table", True, "attributes", max),
    "down_n": ("res_right_table", False, "objects", min),
    "up_n": ("res_left_table", False, "attributes", min),
    "down_pi": ("conj_table", False, "objects", max),
}

_at = tuple.__getitem__


def _lookup_rows(ctx: FuzzyContext, op: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per output position, the lookup row of every input cell, by input order."""
    table_name, relation_first, axis, _ = _OPERATORS[op]
    by_triple = []
    for t in ctx.triples:
        table = getattr(t, table_name)
        # indexed by relation grade, each entry a row over the input grades
        by_triple.append(table if relation_first else tuple(zip(*table)))

    def cell(i: int, j: int) -> tuple[int, ...]:
        return by_triple[ctx.sigma_at(i, j)][ctx.relation[i][j]]

    attrs, objs = range(len(ctx.attributes)), range(len(ctx.objects))
    if axis == "attributes":
        return tuple(tuple(cell(i, j) for j in objs) for i in attrs)
    return tuple(tuple(cell(i, j) for i in attrs) for j in objs)


def _apply(ctx: FuzzyContext, op: str, x: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate operator ``op`` on the numerators ``x``."""
    rows = ctx._lookup.get(op)
    if rows is None:
        rows = ctx._lookup[op] = _lookup_rows(ctx, op)
    aggregate = _OPERATORS[op][3]
    return tuple([aggregate(map(_at, row, x)) for row in rows])


def f_up(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Derivation: a -> inf over b of res_left(R(a,b), g(b))."""
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "up")
    return GradedAttributeSet(_apply(ctx, "up", _claim_g(ctx, g)), ctx.l1)


def f_down(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Derivation: b -> inf over a of res_right(R(a,b), f(a))."""
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "down")
    return GradedObjectSet(_apply(ctx, "down", _claim_f(ctx, f)), ctx.l2)


def f_up_pi(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Possibility: a -> sup over b of conj(R(a,b), g(b))."""
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "up_pi")
    return GradedAttributeSet(_apply(ctx, "up_pi", _claim_g(ctx, g)), ctx.l1)


def f_down_n(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Necessity: b -> inf over a of res_right(f(a), R(a,b))."""
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "down_n")
    return GradedObjectSet(_apply(ctx, "down_n", _claim_f(ctx, f)), ctx.l2)


def f_up_n(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Necessity: a -> inf over b of res_left(g(b), R(a,b))."""
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "up_n")
    return GradedAttributeSet(_apply(ctx, "up_n", _claim_g(ctx, g)), ctx.l1)


def f_down_pi(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Possibility: b -> sup over a of conj(f(a), R(a,b))."""
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "down_pi")
    return GradedObjectSet(_apply(ctx, "down_pi", _claim_f(ctx, f)), ctx.l2)


@dataclass(frozen=True)
class FuzzyNecessityPair:
    """A pair (g, f) with g-up-N = f and f-down-N = g."""

    g: GradedObjectSet
    f: GradedAttributeSet

    @property
    def order_key(self) -> tuple[int, ...]:
        return self.g.values

    def __repr__(self) -> str:
        return f"({self.g!r}, {self.f!r})"


@dataclass(frozen=True)
class MultiAdjointConcept:
    """An extent/intent pair closed under the fuzzy derivation operators."""

    extent: GradedObjectSet
    intent: GradedAttributeSet

    @property
    def order_key(self) -> tuple[int, ...]:
        return self.extent.values

    def __repr__(self) -> str:
        return f"<{self.extent!r}, {self.intent!r}>"


def _require_fn_operators(ctx: FuzzyContext) -> None:
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "up_n")
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "down_n")


def in_fn(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Membership test for the graded necessity closure system."""
    _require_fn_operators(ctx)
    g = _claim_g(ctx, pair.g)
    f = _claim_f(ctx, pair.f)
    return _apply(ctx, "up_n", g) == f and _apply(ctx, "down_n", f) == g


def _claim_member(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> None:
    if not in_fn(ctx, pair):
        raise ValueError(f"{pair!r} is not a necessity-closed pair of this context")


def _claiming(body):
    """A checker that claims its pair, then runs ``body`` (its ``__wrapped__``)."""

    @functools.wraps(body)
    def checker(ctx: FuzzyContext, pair: FuzzyNecessityPair):
        _claim_member(ctx, pair)
        return body(ctx, pair)

    return checker


def fn_enumerate(ctx: FuzzyContext, budget: int = order.DEFAULT_ENUM_BUDGET) -> order.Lattice:
    """All necessity-closed pairs, sorted lexicographically on the object grades.

    The composite down-N o up-N is meet-preserving but not a closure
    operator, so its fixpoints are searched among those of the closure
    down-N o up-pi, enumerated by ``order.graded_closed_sets``; a fixpoint g
    is kept when g-up-N-down-N = g, with f = g-up-N.

    Nothing is missed.  up-pi and down-N form an isotone Galois connection
    (up-pi g <= f iff g <= down-N f, cell by cell from the adjoint property),
    so down-N o up-pi is extensive: g <= g-up-pi-down-N.  For a member g,
    fp1 gives g-up-pi <= g-up-N, and down-N is monotone, so
    g-up-pi-down-N <= g-up-N-down-N = g.  Hence every member is a fixpoint
    of down-N o up-pi.  ``budget`` caps the closures the scan evaluates.
    """
    _require_fn_operators(ctx)

    def close(g: tuple[int, ...]) -> tuple[int, ...]:
        return _apply(ctx, "down_n", _apply(ctx, "up_pi", g))

    pairs = []
    for g in order.graded_closed_sets(len(ctx.objects), ctx.l2.m, close, budget):
        f = _apply(ctx, "up_n", g)
        if _apply(ctx, "down_n", f) == g:
            pairs.append(
                FuzzyNecessityPair(
                    GradedObjectSet(g, ctx.l2), GradedAttributeSet(f, ctx.l1)
                )
            )
    return order.Lattice(ctx, tuple(pairs))


def fn_meet(
    ctx: FuzzyContext, p1: FuzzyNecessityPair, p2: FuzzyNecessityPair
) -> FuzzyNecessityPair:
    """Componentwise infimum of two pairs; stays in the closure system."""
    _claim_member(ctx, p1)
    _claim_member(ctx, p2)
    met = FuzzyNecessityPair(p1.g.meet(p2.g), p1.f.meet(p2.f))
    if not in_fn(ctx, met):
        raise RuntimeError(f"meet {met!r} escaped the closure system")
    return met


def fuzzy_concepts(ctx: FuzzyContext, budget: int = order.DEFAULT_ENUM_BUDGET) -> order.Lattice:
    """All concepts <g, g-up>, sorted lexicographically on the extents.

    The extents are exactly the fixpoints of the closure operator down o up
    (up and down form an antitone Galois connection), enumerated by
    ``order.graded_closed_sets``; ``budget`` caps the closures it evaluates.
    """
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "up")

    def close(g: tuple[int, ...]) -> tuple[int, ...]:
        return _apply(ctx, "down", _apply(ctx, "up", g))

    found = tuple(
        MultiAdjointConcept(
            GradedObjectSet(extent, ctx.l2),
            GradedAttributeSet(_apply(ctx, "up", extent), ctx.l1),
        )
        for extent in order.graded_closed_sets(len(ctx.objects), ctx.l2.m, close, budget)
    )
    return order.Lattice(ctx, found)


def is_fuzzy_normalized(ctx: FuzzyContext) -> bool:
    """No relation row or column all-bottom or all non-bottom."""
    for row in ctx.relation:
        if all(v == 0 for v in row) or all(v != 0 for v in row):
            return False
    for j in range(len(ctx.objects)):
        col = [ctx.relation[i][j] for i in range(len(ctx.attributes))]
        if all(v == 0 for v in col) or all(v != 0 for v in col):
            return False
    return True


def is_top_normalized(ctx: FuzzyContext, axis: str = "rows") -> bool:
    """Normalized, and every row (or column) attains the top grade of P.

    ``axis="rows"`` asks each attribute row for a top cell; ``"columns"``
    is the dual, for contexts normal by columns.
    """
    if axis not in ("rows", "columns"):
        raise ValueError(f"axis must be 'rows' or 'columns', got {axis!r}")
    if not is_fuzzy_normalized(ctx):
        return False
    top = ctx.p.m
    if axis == "rows":
        return all(any(v == top for v in row) for row in ctx.relation)
    return all(
        any(ctx.relation[i][j] == top for i in range(len(ctx.attributes)))
        for j in range(len(ctx.objects))
    )


@_claiming
def check_fp1(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Possibility below necessity: g-up-pi <= g-up-N pointwise."""
    g = pair.g.values
    return all(a <= b for a, b in zip(_apply(ctx, "up_pi", g), _apply(ctx, "up_n", g)))


@_claiming
def check_fp2(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """<g, g-up-pi> is a property-oriented concept: g-up-pi-down-N = g."""
    g = pair.g.values
    return _apply(ctx, "down_n", _apply(ctx, "up_pi", g)) == g


@_claiming
def check_fp3(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Necessity below possibility: g-up-N <= g-up-pi pointwise.

    Guaranteed on top-normalized contexts over the Goedel frame; runnable
    as a probe on any frame where both operators exist.
    """
    g = pair.g.values
    return all(a <= b for a, b in zip(_apply(ctx, "up_n", g), _apply(ctx, "up_pi", g)))


@dataclass(frozen=True)
class Fp4Report:
    """Per-attribute hypothesis status for the derivation/possibility bound.

    ``strict_hypothesis[a]``: some object has g(b) not below R(a,b).
    ``top_hypothesis[a]``: some object has R(a,b) = g(b) = top.
    When every attribute satisfies one of the two, g-up <= g-up-pi.
    """

    strict_hypothesis: tuple[bool, ...]
    top_hypothesis: tuple[bool, ...]
    hypothesis_holds_per_attribute: tuple[bool, ...]
    all_hypotheses_hold: bool
    inequality_holds: bool
    g_up: GradedAttributeSet
    g_up_pi: GradedAttributeSet


@_claiming
def check_fp4(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> Fp4Report:
    """Check the hypotheses relating g-up to g-up-pi, attribute by attribute."""
    if ctx.l2 != ctx.p:
        raise FrameArrangementError(
            "the hypotheses compare object grades with relation grades; "
            f"they need L2 = P, got {ctx.l2} and {ctx.p}"
        )
    g = pair.g.values
    strict = []
    top = []
    for i in range(len(ctx.attributes)):
        strict.append(any(g[j] > ctx.relation[i][j] for j in range(len(ctx.objects))))
        top.append(
            any(
                g[j] == ctx.l2.m and ctx.relation[i][j] == ctx.p.m
                for j in range(len(ctx.objects))
            )
        )
    either = tuple(s or t for s, t in zip(strict, top))
    g_up = _apply(ctx, "up", g)
    g_up_pi = _apply(ctx, "up_pi", g)
    return Fp4Report(
        strict_hypothesis=tuple(strict),
        top_hypothesis=tuple(top),
        hypothesis_holds_per_attribute=either,
        all_hypotheses_hold=all(either),
        inequality_holds=all(a <= b for a, b in zip(g_up, g_up_pi)),
        g_up=GradedAttributeSet(g_up, ctx.l1),
        g_up_pi=GradedAttributeSet(g_up_pi, ctx.l1),
    )


@dataclass(frozen=True)
class ConceptInterval:
    """The concept block a necessity-closed pair delimits.

    lower = <f-down, f-down-up>, upper = <g-up-down, g-up>; ``ordered``
    reports whether lower's extent is below upper's, which the
    top-normalized Goedel propositions guarantee under their hypotheses.
    """

    lower: MultiAdjointConcept
    upper: MultiAdjointConcept
    ordered: bool


@_claiming
def interval_from_pair(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> ConceptInterval:
    f_down_vals = _apply(ctx, "down", pair.f.values)
    lower = MultiAdjointConcept(
        GradedObjectSet(f_down_vals, ctx.l2),
        GradedAttributeSet(_apply(ctx, "up", f_down_vals), ctx.l1),
    )
    g_up = _apply(ctx, "up", pair.g.values)
    upper_extent = _apply(ctx, "down", g_up)
    upper = MultiAdjointConcept(
        GradedObjectSet(upper_extent, ctx.l2), GradedAttributeSet(g_up, ctx.l1)
    )
    ordered = all(a <= b for a, b in zip(f_down_vals, upper_extent))
    return ConceptInterval(lower=lower, upper=upper, ordered=ordered)
