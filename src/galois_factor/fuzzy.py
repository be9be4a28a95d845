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
all six operators are available.  An operator claims its input with
``_claim``: a graded set of the other side raises ``TypeError``, and one on
another chain or of another length ``ValueError``.

The checkers ``check_fp1``-``check_fp4`` and ``interval_from_pair`` claim
their pair with ``in_fn`` and make one ``_checks`` evaluation; the ``check``
report makes it per pair unclaimed, as ``fn_enumerate``'s pairs are members.
``_checks`` returns bools and numerator tuples: only the public checkers
build ``Fp4Report`` and ``ConceptInterval`` records from them.

Each graded operator is kept in one form (see the kernel comment): a
threshold family, keyed by object for the up operators and by attribute
for the down operators.  The down families are bitmask rows over the
objects' threshold bits.  One walk, ``_walk``, lists both graded lattices
over those bits, each by its own closure read off the rows by bit tests:
down o up on the down rows for ``fuzzy_concepts``, fn's closure on the
down_n and down_pi rows for ``fn_enumerate``.  Neither evaluates a graded
operator, and both read their keys off the bits: a concept's intent counts
the leading down rows that its extent bits hold, a member's f the leading
down_pi rows, and only the closed sets are decoded.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from . import order
from .contexts import _check_names
from .errors import BudgetExceededError, FrameArrangementError
from .grades import AdjointTriple, GradeChain

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
    "fuzzy_concepts",
    "is_fuzzy_normalized",
    "is_top_normalized",
    "check_fp1",
    "check_fp2",
    "check_fp3",
    "check_fp4",
    "interval_from_pair",
    "CHECKS",
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
    if kind is FrameKind.OBJECT_ORIENTED:
        return (l1, p, l2)
    raise TypeError(f"kind must be a FrameKind, got {kind!r}")


@dataclass(frozen=True)
class FuzzyContext:
    """A P-valued relation over a multi-adjoint frame.

    ``relation[i][j]`` is the numerator on P of the grade relating
    attribute i to object j; ``sigma`` picks the triple per cell (None
    means the first triple everywhere).  The chains ``l1``, ``l2``, ``p``
    are the triples' shared domains, read in the ``kind`` arrangement.
    Names follow the rule of ``BooleanContext``.
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
        _check_names("attribute", self.attributes)
        _check_names("object", self.objects)
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
            if not self.p.holds(row):
                raise ValueError(f"relation row {row} is not int numerators on {self.p}")
        if self.sigma is not None:
            if len(self.sigma) != len(self.attributes):
                raise ValueError("sigma must have one row per attribute")
            for i, row in enumerate(self.sigma):
                if len(row) != len(self.objects):
                    raise ValueError(f"sigma[{i}] must have one entry per object")
                for j, s in enumerate(row):
                    if type(s) is not int or not 0 <= s < len(self.triples):
                        raise ValueError(
                            f"sigma[{i}][{j}]: index {s!r} is not an int in range "
                            f"0..{len(self.triples) - 1}"
                        )
        # per-operator threshold families, filled on first use
        object.__setattr__(self, "_families", {})

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
        if not triples:  # the constructor's own refusal, before triples[0] is read
            return cls(attributes, objects, triples, (), sigma, kind)
        p = _arrangement(kind, *triples[0].domains)[2]
        relation = tuple(tuple(p.numerator_of(v) for v in row) for row in values)
        return cls(attributes, objects, triples, relation, sigma, kind)

    def sigma_at(self, i: int, j: int) -> int:
        return 0 if self.sigma is None else self.sigma[i][j]

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
            unknown = [n for n in values if n not in names]
            if unknown:
                raise ValueError(f"grades for unknown names {unknown}")
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

    def __post_init__(self):
        # a negative numerator would index the kernel's rows from the end
        if not self.chain.holds(self.values):
            raise ValueError(f"grades {self.values} are not int numerators on {self.chain}")

    def _mate(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.chain != self.chain or len(other.values) != len(self.values):
            raise ValueError("graded sets live on different chains or universes")

    def __le__(self, other) -> bool:
        self._mate(other)
        return order.key_le(self.values, other.values)

    def __lt__(self, other) -> bool:
        self._mate(other)
        return self.values != other.values and self <= other

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


def _claim(ctx: FuzzyContext, x: _GradedSet, kind: type) -> tuple[int, ...]:
    """The numerators of ``x`` once it is a ``kind`` on this context's chain
    and side: a set of the other side raises ``TypeError``, one on another
    chain or of another size ``ValueError``."""
    if type(x) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(x).__name__}")
    objects = kind is GradedObjectSet
    chain, names = (ctx.l2, ctx.objects) if objects else (ctx.l1, ctx.attributes)
    if x.chain != chain or len(x.values) != len(names):
        raise ValueError(f"{kind.__name__} does not fit this context")
    return x.values


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
# Each graded operator is an inf or a sup of the per-cell lookups T(i, j)(v):
# cell (i, j)'s triple table read at the relation grade and the input grade
# v, in the order its formula names them.  Each is kept as a threshold
# family, built on first use, with one row per input position and grade.  A
# down operator's row F[i][c], c = 0..m1, holds object bit j*m2 + a - 1 iff
# a <= T(i, j)(c); an up operator's row F[j][a], a = 0..m2, holds attribute
# bit i*m1 + c - 1 iff c <= T(i, j)(a).  Thresholds turn min into meet and
# max into join, so the image of x is the meet (the residuum operators up,
# down, up_n, down_n) or the join (the conjunctor operators up_pi, down_pi)
# of the rows (y, x(y)), decoded by block bit counts.  For X the threshold
# set of g, with D, N and P the families of down, down_n and down_pi,
# adjointness gives
#
#     X <= D[i][c]  iff  c <= g-up(i)      (conj(c, a) <= R iff a <= res_right(R, c))
#     X <= N[i][c]  iff  g-up-pi(i) <= c   (conj(R, a) <= c iff a <= res_right(c, R))
#     P[i][c] <= X  iff  c <= g-up-N(i)    (conj(c, R) <= a iff c <= res_left(a, R))
#
# so D shrinks and N and P grow in c, D[i][0] and N[i][m1] hold every object
# bit, and P[i][0] none.

_OPERATORS = {
    # name: (triple table, relation grade first, fold)
    "up": ("res_left_table", True, int.__and__),
    "down": ("res_right_table", True, int.__and__),
    "up_pi": ("conj_table", True, int.__or__),
    "down_n": ("res_right_table", False, int.__and__),
    "up_n": ("res_left_table", False, int.__and__),
    "down_pi": ("conj_table", False, int.__or__),
}

_at = tuple.__getitem__


def _family(ctx: FuzzyContext, op: str) -> tuple[tuple[int, ...], ...]:
    """The threshold family of operator ``op``, kept on the context: per
    input position and grade, the threshold set over the output side."""
    if op not in ctx._families:
        table_name, relation_first, _ = _OPERATORS[op]
        tables = [getattr(t, table_name) for t in ctx.triples]
        if not relation_first:  # index by relation grade
            tables = [tuple(zip(*table)) for table in tables]
        cells = [  # per attribute i, per object j, the lookups T(i, j)
            [tables[ctx.sigma_at(i, j)][r] for j, r in enumerate(row)]
            for i, row in enumerate(ctx.relation)
        ]
        m = ctx.l2.m
        if op.startswith("up"):  # keyed by object, over the attributes
            cells, m = zip(*cells), ctx.l1.m
        ctx._families[op] = tuple(
            tuple(order.thresholds(grades, m) for grades in zip(*lookups))
            for lookups in cells
        )
    return ctx._families[op]


def _apply(ctx: FuzzyContext, op: str, x: tuple[int, ...]) -> tuple[int, ...]:
    """Evaluate operator ``op`` on the numerators ``x``."""
    bits = functools.reduce(_OPERATORS[op][2], map(_at, _family(ctx, op), x))
    if op.startswith("up"):
        return _grades(bits, ctx.l1.m, len(ctx.attributes))
    return _grades(bits, ctx.l2.m, len(ctx.objects))


def f_up(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Derivation: a -> inf over b of res_left(R(a,b), g(b))."""
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "up")
    return GradedAttributeSet(_apply(ctx, "up", _claim(ctx, g, GradedObjectSet)), ctx.l1)


def f_down(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Derivation: b -> inf over a of res_right(R(a,b), f(a))."""
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "down")
    return GradedObjectSet(_apply(ctx, "down", _claim(ctx, f, GradedAttributeSet)), ctx.l2)


def f_up_pi(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Possibility: a -> sup over b of conj(R(a,b), g(b))."""
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "up_pi")
    return GradedAttributeSet(_apply(ctx, "up_pi", _claim(ctx, g, GradedObjectSet)), ctx.l1)


def f_down_n(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Necessity: b -> inf over a of res_right(f(a), R(a,b))."""
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "down_n")
    return GradedObjectSet(_apply(ctx, "down_n", _claim(ctx, f, GradedAttributeSet)), ctx.l2)


def f_up_n(ctx: FuzzyContext, g: GradedObjectSet) -> GradedAttributeSet:
    """Necessity: a -> inf over b of res_left(g(b), R(a,b))."""
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "up_n")
    return GradedAttributeSet(_apply(ctx, "up_n", _claim(ctx, g, GradedObjectSet)), ctx.l1)


def f_down_pi(ctx: FuzzyContext, f: GradedAttributeSet) -> GradedObjectSet:
    """Possibility: b -> sup over a of conj(f(a), R(a,b))."""
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "down_pi")
    return GradedObjectSet(_apply(ctx, "down_pi", _claim(ctx, f, GradedAttributeSet)), ctx.l2)


@dataclass(frozen=True)
class FuzzyNecessityPair:
    """A pair (g, f) with g-up-N = f and f-down-N = g."""

    g: GradedObjectSet
    f: GradedAttributeSet

    @classmethod
    def from_keys(cls, ctx: FuzzyContext, g: tuple, f: tuple) -> "FuzzyNecessityPair":
        return cls(GradedObjectSet(g, ctx.l2), GradedAttributeSet(f, ctx.l1))

    def __repr__(self) -> str:
        return f"({self.g!r}, {self.f!r})"


@dataclass(frozen=True)
class MultiAdjointConcept:
    """An extent/intent pair closed under the fuzzy derivation operators."""

    extent: GradedObjectSet
    intent: GradedAttributeSet

    @classmethod
    def from_keys(cls, ctx: FuzzyContext, extent: tuple, intent: tuple) -> "MultiAdjointConcept":
        return cls(GradedObjectSet(extent, ctx.l2), GradedAttributeSet(intent, ctx.l1))

    def __repr__(self) -> str:
        return f"<{self.extent!r}, {self.intent!r}>"


def _require_fn_operators(ctx: FuzzyContext) -> None:
    _require_arrangement(ctx, FrameKind.OBJECT_ORIENTED, "up_n")
    _require_arrangement(ctx, FrameKind.PROPERTY_ORIENTED, "down_n")


def in_fn(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Membership test for the graded necessity closure system."""
    _require_fn_operators(ctx)
    g = _claim(ctx, pair.g, GradedObjectSet)
    f = _claim(ctx, pair.f, GradedAttributeSet)
    return _apply(ctx, "up_n", g) == f and _apply(ctx, "down_n", f) == g


def _grades(bits: int, m: int, n: int) -> tuple[int, ...]:
    """The grade vector of the threshold set ``bits``: block bit counts."""
    block = (1 << m) - 1
    return tuple([(bits >> x * m & block).bit_count() for x in range(n)])


def _fn_closure(ctx: FuzzyContext):
    """fn's closure cl on threshold bits (see ``fn_enumerate``): ``close(X)``
    is (the bits of the least member above X, that member's f = up-N).

    With N and P the down_n and down_pi families, by the kernel comment,
    up-N(i) counts the leading rows P[i][1], P[i][2], ... that X holds, h(X)
    is the meet of the rows N[i][up-N(i)], up-pi(i) is the least c with
    X <= N[i][c], and l(X) is the join of the rows P[i][up-pi(i)].  Both
    families grow in c, so P[i][up-pi(i)] <= X iff up-pi(i) <= up-N(i) iff
    X <= N[i][up-N(i)]: up-pi(i) is sought past up-N(i), and only where l
    adds bits.
    """
    m1 = ctx.l1.m
    rows = [
        (necessity, tuple(~row for row in necessity), possibility)
        for necessity, possibility in zip(_family(ctx, "down_n"), _family(ctx, "down_pi"))
    ]

    def close(x: int) -> tuple[int, tuple[int, ...]]:
        while True:
            outside, grown, meet, f = ~x, x, -1, []  # -1 holds every bit
            for necessity, beyond, possibility in rows:
                c = 0
                while c < m1 and not possibility[c + 1] & outside:
                    c += 1
                f.append(c)
                meet &= necessity[c]
                if x & beyond[c]:  # up-pi(i) > up-N(i); N[i][m1] holds every bit
                    c += 1
                    while x & beyond[c]:
                        c += 1
                    grown |= possibility[c]
            grown |= meet
            if grown == x:
                return x, tuple(f)
            x = grown

    return close


def _concept_closure(ctx: FuzzyContext):
    """The closure down o up on threshold bits, by bit tests on the down
    rows (see ``fuzzy_concepts``): ``close(X)`` is (X-up-down's bits, X-up)."""
    m1 = ctx.l1.m
    rows = [(down, tuple(~row for row in down)) for down in _family(ctx, "down")]

    def close(x: int) -> tuple[int, tuple[int, ...]]:
        meet, up = -1, []  # -1 holds every bit
        for down, beyond in rows:
            c = 0
            while c < m1 and not x & beyond[c + 1]:
                c += 1
            up.append(c)
            meet &= down[c]
        return meet, tuple(up)

    return close


def _walk(ctx: FuzzyContext, close, budget: int | order.Budget) -> Iterator[tuple[int, tuple]]:
    """The (bits, key) that ``close`` returns for each of its closed sets, all
    threshold sets, once each, by the walk of ``fn_enumerate``."""
    m2, n = ctx.l2.m, len(ctx.objects)
    full, lowest = (1 << n * m2) - 1, order.thresholds((1,) * n, m2)
    pool = budget if isinstance(budget, order.Budget) else order.Budget(budget)
    limit, spent, found = pool.limit, pool.spent, pool.found
    try:
        if spent >= limit:
            raise BudgetExceededError(spent, limit, found=found)
        spent += 1
        x, key = close(0)
        found += 1
        yield x, key
        stack = [(x, 0, [0] * (n * m2))]
        while stack:
            x, start, failures = stack.pop()
            inherited, children = failures, []
            free = ~x & (x << 1 | lowest) & full >> start << start
            while free:
                bit = free & -free
                free ^= bit
                lower, j = bit - 1, bit.bit_length() - 1
                if inherited[j] & lower & ~x:
                    continue
                if spent >= limit:
                    raise BudgetExceededError(spent, limit, found=found)
                spent += 1
                y, key = close(x | bit)
                if (y ^ x) & lower == 0:
                    found += 1
                    yield y, key
                    children.append((y, j + 1))
                else:
                    if failures is inherited:
                        failures = failures.copy()
                    failures[j] = y
            stack += [(*child, failures) for child in reversed(children)]
    finally:
        pool.spent, pool.found = spent, found


def fn_enumerate(
    ctx: FuzzyContext, budget: int | order.Budget = order.DEFAULT_ENUM_BUDGET
) -> order.Lattice:
    """All necessity-closed pairs, sorted lexicographically on the object grades.

    The members are the g with h(g) = g, h = down-N o up-N, each with
    f = g-up-N.  h is monotone but not extensive, so the walk runs on fn's
    own closure: with l = down-pi o up-pi, cl(g) iterates
    g <- g v h(g) v l(g) until nothing changes, which it does, as the
    iterates grow in a finite lattice.

    The limit is the least member above g.  Cell by cell from the adjoint
    property, up-pi g <= f iff g <= down-N f, and down-pi f <= g iff
    f <= up-N g; so l is left adjoint to h: l(g) <= g' iff
    up-pi g <= up-N g' iff g <= h(g').  At the limit h(g) <= g and
    l(g) <= g, that is g <= h(g), so h(g) = g: a member.  And every iterate
    stays below any member g' above the start: if g <= g', then
    h(g) <= h(g') = g', h being monotone, and l(g) <= g' since
    g <= g' = h(g').  So every closed set of cl is a member and every
    member is closed.

    The walk (``_walk``) is CbO (Kuznetsov & Obiedkov, JETAI 2002) on the
    threshold bits X of g, object bit j*m2 + a - 1 reading g(j) >= a, with
    cl taken by bit tests on the down_n and down_pi rows (``_fn_closure``).
    A node tries, from its start bit on, each object's next grade bit, the
    bits of ~X & (X << 1 | lowest), ``lowest`` holding every object's first,
    and keeps Y = cl(X | bit) as a child starting past the bit when
    (Y ^ X) & (bit - 1) == 0, the canonicity test.  CbO would also try an
    object's higher bits, but cl's closed sets are threshold sets, so such
    a Y holds the next bit, below the one tried and not in X, and fails.
    So each member is listed once and tries at most n closures: at most
    1 + n |fn| closures in all, the first one of the empty set.  A Y that
    fails is recorded at its bit, and the node's children inherit the
    records, as in FCbO (Outrata & Vychodil, Inf. Sci. 2012): a child X'
    skips a bit whose record holds a bit below it outside X'.  cl is
    monotone and X' holds X, so cl(X' | bit) holds the record and fails the
    same way.  A record whose bit X' already holds lies inside cl(X') = X',
    so it never causes a skip.

    ``budget`` caps the closure evaluations, the first one included: an
    ``order.Budget`` is shared with other scans, and before evaluation
    budget + 1 ``BudgetExceededError`` reports the members found so far.
    """
    _require_fn_operators(ctx)
    m2, n = ctx.l2.m, len(ctx.objects)
    members = [(_grades(x, m2, n), f) for x, f in _walk(ctx, _fn_closure(ctx), budget)]
    return order.sorted_lattice(ctx, FuzzyNecessityPair, members)


def fuzzy_concepts(
    ctx: FuzzyContext, budget: int | order.Budget = order.DEFAULT_ENUM_BUDGET
) -> order.Lattice:
    """All concepts <g, g-up>, sorted lexicographically on the extents.

    The extents are the closed sets of down o up, which ``_walk`` lists as
    it lists fn's members (see ``fn_enumerate``): each once, in at most
    1 + n |L| closures.  With D the down family and X the threshold bits of
    g, X <= D[i][c] iff c <= g-up(i) (the kernel comment), and D shrinks in
    c, so g-up(i) counts the leading rows D[i][1], D[i][2], ... that hold X,
    and X-up-down is the meet of the rows D[i][g-up(i)], a threshold set
    (``_concept_closure``).  ``budget`` is as in ``fn_enumerate``.
    """
    _require_arrangement(ctx, FrameKind.CONCEPT_FORMING, "up")
    m2, n = ctx.l2.m, len(ctx.objects)
    pairs = [(_grades(x, m2, n), up) for x, up in _walk(ctx, _concept_closure(ctx), budget)]
    return order.sorted_lattice(ctx, MultiAdjointConcept, pairs)


def is_fuzzy_normalized(ctx: FuzzyContext) -> bool:
    """No relation row or column all-bottom or all non-bottom."""
    # a numerator is 0 exactly at the bottom grade
    lines = (*ctx.relation, *zip(*ctx.relation))
    return all(any(line) and not all(line) for line in lines)


def is_top_normalized(ctx: FuzzyContext, axis: str = "rows") -> bool:
    """Normalized, and every row (or column) attains the top grade of P.

    ``axis="rows"`` asks each attribute row for a top cell; ``"columns"``
    is the dual, for contexts normal by columns.
    """
    if axis not in ("rows", "columns"):
        raise ValueError(f"axis must be 'rows' or 'columns', got {axis!r}")
    lines = ctx.relation if axis == "rows" else zip(*ctx.relation)
    return is_fuzzy_normalized(ctx) and all(ctx.p.m in line for line in lines)


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


# the propositions of the ``check`` report, in row order
CHECKS = ("fp1", "fp2", "fp3", "fp4", "fp5")


def _checks(ctx: FuzzyContext, g: tuple[int, ...], f: tuple[int, ...], props) -> dict:
    """The propositions named in ``props`` of the member with numerators
    (g, f), by name in ``CHECKS`` order.  A member has f = g-up-N, so fp1
    and fp3 compare g-up-pi with f.  Each operator image is evaluated at
    most once, and only when a requested proposition reads it: g-up-pi
    (fp1-fp4), its down-N (fp2), g-up (fp4, fp5), g-up-down, f-down and
    f-down-up (fp5).  fp4 needs L2 = P, as ``check_fp4`` shows members have.

    fp1-fp3 are bools.  fp4 is (strict, tops, either, all, inequality,
    g_up, g_up_pi), the fields of ``Fp4Report``, and fp5 is (f_down,
    f_down_up, upper_extent, g_up, ordered), the lower and upper concepts
    of ``ConceptInterval`` then ``ordered``: bools, tuples of bools and
    numerator tuples, from which only the public checkers build records.
    """
    props = set(props)
    g_up_pi = _apply(ctx, "up_pi", g) if props & {"fp1", "fp2", "fp3", "fp4"} else None
    g_up = _apply(ctx, "up", g) if props & {"fp4", "fp5"} else None
    out = {}
    if "fp1" in props:
        out["fp1"] = order.key_le(g_up_pi, f)
    if "fp2" in props:
        out["fp2"] = _apply(ctx, "down_n", g_up_pi) == g
    if "fp3" in props:
        out["fp3"] = order.key_le(f, g_up_pi)
    if "fp4" in props:
        top = ctx.p.m
        strict = tuple([any(map(operator.gt, g, row)) for row in ctx.relation])
        tops = tuple([(top, top) in zip(g, row) for row in ctx.relation])
        either = tuple(map(operator.or_, strict, tops))
        inequality = order.key_le(g_up, g_up_pi)
        out["fp4"] = (strict, tops, either, all(either), inequality, g_up, g_up_pi)
    if "fp5" in props:
        f_down = _apply(ctx, "down", f)
        upper_extent = _apply(ctx, "down", g_up)
        ordered = order.key_le(f_down, upper_extent)
        out["fp5"] = (f_down, _apply(ctx, "up", f_down), upper_extent, g_up, ordered)
    return out


def _claimed(ctx: FuzzyContext, pair: FuzzyNecessityPair, name: str):
    """Proposition ``name`` of ``pair``, once ``in_fn`` claims it (else ``ValueError``)."""
    if not in_fn(ctx, pair):
        raise ValueError(f"{pair!r} is not a necessity-closed pair of this context")
    return _checks(ctx, pair.g.values, pair.f.values, (name,))[name]


def check_fp1(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Possibility below necessity: g-up-pi <= g-up-N pointwise."""
    return _claimed(ctx, pair, "fp1")


def check_fp2(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """<g, g-up-pi> is a property-oriented concept: g-up-pi-down-N = g."""
    return _claimed(ctx, pair, "fp2")


def check_fp3(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> bool:
    """Necessity below possibility: g-up-N <= g-up-pi pointwise.

    Guaranteed on top-normalized contexts over the Goedel frame; runnable
    as a probe on any frame where both operators exist.
    """
    return _claimed(ctx, pair, "fp3")


def check_fp4(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> Fp4Report:
    """Check the hypotheses relating g-up to g-up-pi, attribute by attribute.

    They compare object grades with relation grades, so they need L2 = P,
    which the claim ensures: up-N and down-N need the triples' domains to be
    both (L1, P, L2) and (P, L2, L1), so L1 = L2 = P.
    """
    *hypotheses, g_up, g_up_pi = _claimed(ctx, pair, "fp4")
    return Fp4Report(
        *hypotheses, GradedAttributeSet(g_up, ctx.l1), GradedAttributeSet(g_up_pi, ctx.l1)
    )


def interval_from_pair(ctx: FuzzyContext, pair: FuzzyNecessityPair) -> ConceptInterval:
    """The concept interval of the pair: <f-down, f-down-up> to <g-up-down, g-up>."""
    f_down, f_down_up, upper_extent, g_up, ordered = _claimed(ctx, pair, "fp5")
    return ConceptInterval(
        MultiAdjointConcept.from_keys(ctx, f_down, f_down_up),
        MultiAdjointConcept.from_keys(ctx, upper_extent, g_up),
        ordered,
    )
