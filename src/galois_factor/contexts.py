"""Boolean formal contexts, modal operators and concept lattices.

A context holds attribute names, object names and an attribute-major
incidence matrix.  Subsets of either side are bitmasks tied to their owning
context; using a subset against a different context raises, even when the
two contexts happen to be equal as values.  Everything is immutable and
every operation is a pure function, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import order
from .errors import CrossContextError
from .order import atoms, is_join_irreducible, join_irreducibles  # re-exported ops

__all__ = [
    "BooleanContext",
    "ObjectSubset",
    "AttributeSubset",
    "FormalConcept",
    "NormalizationReport",
    "up",
    "down",
    "up_n",
    "down_n",
    "up_pi",
    "down_pi",
    "normalize",
    "is_normalized",
    "restrict",
    "concepts",
    "property_oriented_concepts",
    "is_join_irreducible",
    "join_irreducibles",
    "atoms",
]


@dataclass(frozen=True)
class BooleanContext:
    """A triple of attributes, objects and an incidence relation.

    ``incidence[i][j]`` is True when attribute i relates to object j.
    """

    attributes: tuple[str, ...]
    objects: tuple[str, ...]
    incidence: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(
            self, "incidence", tuple(tuple(bool(v) for v in row) for row in self.incidence)
        )
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        if len(self.incidence) != len(self.attributes):
            raise ValueError(
                f"incidence has {len(self.incidence)} rows for {len(self.attributes)} attributes"
            )
        for row in self.incidence:
            if len(row) != len(self.objects):
                raise ValueError(
                    f"incidence row of length {len(row)} for {len(self.objects)} objects"
                )

    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        objects: Sequence[str],
        rows: Iterable[Iterable[int]],
    ) -> "BooleanContext":
        """Build from 0/1 rows, one per attribute."""
        return cls(tuple(attributes), tuple(objects), tuple(tuple(rows_) for rows_ in rows))

    # bitmask caches; objects are bit i of row masks, attributes bit i of column masks
    @cached_property
    def _row_bits(self) -> tuple[int, ...]:
        out = []
        for row in self.incidence:
            bits = 0
            for j, v in enumerate(row):
                if v:
                    bits |= 1 << j
            out.append(bits)
        return tuple(out)

    @cached_property
    def _col_bits(self) -> tuple[int, ...]:
        out = []
        for j in range(len(self.objects)):
            bits = 0
            for i in range(len(self.attributes)):
                if self.incidence[i][j]:
                    bits |= 1 << i
            out.append(bits)
        return tuple(out)

    @cached_property
    def _attr_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.attributes)}

    @cached_property
    def _obj_index(self) -> dict[str, int]:
        return {b: i for i, b in enumerate(self.objects)}

    @property
    def _full_objects(self) -> int:
        return (1 << len(self.objects)) - 1

    @property
    def _full_attrs(self) -> int:
        return (1 << len(self.attributes)) - 1

    def has(self, attribute: str, obj: str) -> bool:
        return self.incidence[self._attr_index[attribute]][self._obj_index[obj]]

    def object_set(self, members: Iterable[str | int] = ()) -> "ObjectSubset":
        bits = 0
        for m in members:
            i = m if isinstance(m, int) else self._obj_index.get(m, -1)
            if not 0 <= i < len(self.objects):
                raise ValueError(f"unknown object {m!r}")
            bits |= 1 << i
        return ObjectSubset(self, bits)

    def attribute_set(self, members: Iterable[str | int] = ()) -> "AttributeSubset":
        bits = 0
        for m in members:
            i = m if isinstance(m, int) else self._attr_index.get(m, -1)
            if not 0 <= i < len(self.attributes):
                raise ValueError(f"unknown attribute {m!r}")
            bits |= 1 << i
        return AttributeSubset(self, bits)

    @property
    def all_objects(self) -> "ObjectSubset":
        return ObjectSubset(self, self._full_objects)

    @property
    def all_attributes(self) -> "AttributeSubset":
        return AttributeSubset(self, self._full_attrs)

    def incidence_count(self) -> int:
        return sum(bits.bit_count() for bits in self._row_bits)


class _Subset:
    """Shared behaviour of the two bit-indexed subset types."""

    context: BooleanContext
    bits: int

    _names_attr = ""  # "objects" or "attributes"

    def _universe(self) -> tuple[str, ...]:
        return getattr(self.context, self._names_attr)

    def _check_bits(self) -> None:
        if self.bits < 0 or self.bits >> len(self._universe()):
            raise ValueError(f"subset bits {self.bits:#x} out of range")

    def _mate(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.context is not self.context:
            raise CrossContextError(
                f"{type(self).__name__} built against a different context"
            )

    @property
    def names(self) -> tuple[str, ...]:
        universe = self._universe()
        return tuple(universe[i] for i in self.indices)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(order.set_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, member: str | int) -> bool:
        if isinstance(member, str):
            try:
                member = self._universe().index(member)
            except ValueError:
                return False
        return bool(self.bits >> member & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __or__(self, other):
        self._mate(other)
        return type(self)(self.context, self.bits | other.bits)

    def __and__(self, other):
        self._mate(other)
        return type(self)(self.context, self.bits & other.bits)

    def __sub__(self, other):
        self._mate(other)
        return type(self)(self.context, self.bits & ~other.bits)

    def __le__(self, other) -> bool:
        self._mate(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other) -> bool:
        self._mate(other)
        return self.bits != other.bits and self.bits & ~other.bits == 0

    def complement(self):
        full = (1 << len(self._universe())) - 1
        return type(self)(self.context, ~self.bits & full)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({{{', '.join(self.names)}}})"


@dataclass(frozen=True, repr=False)
class ObjectSubset(_Subset):
    """A subset of the objects of one particular context."""

    context: BooleanContext = field(compare=False)
    bits: int

    _names_attr = "objects"

    def __post_init__(self):
        self._check_bits()


@dataclass(frozen=True, repr=False)
class AttributeSubset(_Subset):
    """A subset of the attributes of one particular context."""

    context: BooleanContext = field(compare=False)
    bits: int

    _names_attr = "attributes"

    def __post_init__(self):
        self._check_bits()


def _claim_objects(ctx: BooleanContext, xs: ObjectSubset) -> int:
    if xs.context is not ctx:
        raise CrossContextError("object subset belongs to a different context")
    return xs.bits


def _claim_attrs(ctx: BooleanContext, ys: AttributeSubset) -> int:
    if ys.context is not ctx:
        raise CrossContextError("attribute subset belongs to a different context")
    return ys.bits


# raw-bits operator cores, shared with the enumeration routines


def _and_over(masks: tuple[int, ...], bits: int, out: int) -> int:
    """``out`` ANDed with ``masks[i]`` for every set bit i of ``bits``."""
    # inlined bit walk: a generator here makes concepts() about 20% slower
    while bits:
        low = bits & -bits
        out &= masks[low.bit_length() - 1]
        bits ^= low
    return out


def _up_bits(ctx: BooleanContext, xbits: int) -> int:
    # the columns of the objects in X: O(|X|) ANDs, not an O(|A|) scan
    return _and_over(ctx._col_bits, xbits, ctx._full_attrs)


def _down_bits(ctx: BooleanContext, ybits: int) -> int:
    # the rows of the attributes in Y: O(|Y|) ANDs, not an O(|B|) scan
    return _and_over(ctx._row_bits, ybits, ctx._full_objects)


def _up_n_bits(ctx: BooleanContext, xbits: int) -> int:
    return sum(1 << i for i, row in enumerate(ctx._row_bits) if row & ~xbits == 0)


def _down_n_bits(ctx: BooleanContext, ybits: int) -> int:
    return sum(1 << j for j, col in enumerate(ctx._col_bits) if col & ~ybits == 0)


def _up_pi_bits(ctx: BooleanContext, xbits: int) -> int:
    return sum(1 << i for i, row in enumerate(ctx._row_bits) if row & xbits)


def _down_pi_bits(ctx: BooleanContext, ybits: int) -> int:
    return sum(1 << j for j, col in enumerate(ctx._col_bits) if col & ybits)


def up(ctx: BooleanContext, xs: ObjectSubset) -> AttributeSubset:
    """Attributes shared by every object of X (derivation operator)."""
    return AttributeSubset(ctx, _up_bits(ctx, _claim_objects(ctx, xs)))


def down(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Objects possessing every attribute of Y (derivation operator)."""
    return ObjectSubset(ctx, _down_bits(ctx, _claim_attrs(ctx, ys)))


def up_n(ctx: BooleanContext, xs: ObjectSubset) -> AttributeSubset:
    """Necessity: attributes whose whole support lies inside X."""
    return AttributeSubset(ctx, _up_n_bits(ctx, _claim_objects(ctx, xs)))


def down_n(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Necessity: objects whose whole support lies inside Y."""
    return ObjectSubset(ctx, _down_n_bits(ctx, _claim_attrs(ctx, ys)))


def up_pi(ctx: BooleanContext, xs: ObjectSubset) -> AttributeSubset:
    """Possibility: attributes held by at least one object of X."""
    return AttributeSubset(ctx, _up_pi_bits(ctx, _claim_objects(ctx, xs)))


def down_pi(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Possibility: objects holding at least one attribute of Y."""
    return ObjectSubset(ctx, _down_pi_bits(ctx, _claim_attrs(ctx, ys)))


@dataclass(frozen=True)
class FormalConcept:
    """An extent/intent pair closed under the derivation operators."""

    extent: ObjectSubset
    intent: AttributeSubset

    @property
    def order_key(self) -> int:
        return self.extent.bits

    def __repr__(self) -> str:
        return f"<{{{', '.join(self.extent.names)}}}, {{{', '.join(self.intent.names)}}}>"


def concepts(ctx: BooleanContext) -> order.Lattice:
    """Enumerate the concept lattice.

    Intents are generated as the closed sets of Y -> Y-down-up by the
    canonical lectic scan, then paired with their extents and sorted by
    extent bit-pattern for a deterministic result.
    """
    n = len(ctx.attributes)
    close = lambda ybits: _up_bits(ctx, _down_bits(ctx, ybits))
    found = []
    for intent_bits in order.closed_sets(n, close):
        extent_bits = _down_bits(ctx, intent_bits)
        found.append(
            FormalConcept(ObjectSubset(ctx, extent_bits), AttributeSubset(ctx, intent_bits))
        )
    found.sort(key=lambda c: c.extent.bits)
    return order.Lattice(ctx, tuple(found))


def property_oriented_concepts(
    ctx: BooleanContext,
) -> list[tuple[ObjectSubset, AttributeSubset]]:
    """All pairs (X, X-up-pi) where X is a fixpoint of down-N o up-pi."""
    n = len(ctx.objects)
    close = lambda xbits: _down_n_bits(ctx, _up_pi_bits(ctx, xbits))
    pairs = []
    for xbits in order.closed_sets(n, close):
        pairs.append(
            (ObjectSubset(ctx, xbits), AttributeSubset(ctx, _up_pi_bits(ctx, xbits)))
        )
    pairs.sort(key=lambda p: p[0].bits)
    return pairs


@dataclass(frozen=True)
class NormalizationReport:
    """Rows/columns stripped to reach a normalized core.

    The core has no attribute row and no object column that is entirely
    full or entirely empty.  Removal is iterated until stable because
    deleting a column can empty a row; a row or column that becomes
    vacuous (no cells left) counts as empty.
    """

    removed_full_rows: tuple[str, ...]
    removed_empty_rows: tuple[str, ...]
    removed_full_cols: tuple[str, ...]
    removed_empty_cols: tuple[str, ...]
    core: BooleanContext

    @property
    def unchanged(self) -> bool:
        return not (
            self.removed_full_rows
            or self.removed_empty_rows
            or self.removed_full_cols
            or self.removed_empty_cols
        )


def _offending_lines(ctx: BooleanContext) -> list[str]:
    problems = []
    full_objs = ctx._full_objects
    full_attrs = ctx._full_attrs
    for i, row in enumerate(ctx._row_bits):
        if full_objs and row == full_objs:
            problems.append(f"attribute row {ctx.attributes[i]!r} is full")
        elif row == 0:
            problems.append(f"attribute row {ctx.attributes[i]!r} is empty")
    for j, col in enumerate(ctx._col_bits):
        if full_attrs and col == full_attrs:
            problems.append(f"object column {ctx.objects[j]!r} is full")
        elif col == 0:
            problems.append(f"object column {ctx.objects[j]!r} is empty")
    return problems


def is_normalized(ctx: BooleanContext) -> bool:
    """No attribute row or object column entirely full or entirely empty."""
    return not _offending_lines(ctx)


def restrict(ctx: BooleanContext, xs: ObjectSubset, ys: AttributeSubset) -> BooleanContext:
    """The subcontext on the given objects and attributes, in input order."""
    _claim_objects(ctx, xs)
    _claim_attrs(ctx, ys)
    rows = tuple(
        tuple(ctx.incidence[i][j] for j in xs.indices) for i in ys.indices
    )
    return BooleanContext(ys.names, xs.names, rows)


def normalize(ctx: BooleanContext) -> NormalizationReport:
    """Strip full/empty rows and columns until the remainder is normalized.

    A context may collapse to 0x0; that is reported, not an error.
    """
    attrs = list(range(len(ctx.attributes)))
    objs = list(range(len(ctx.objects)))
    full_rows: list[str] = []
    empty_rows: list[str] = []
    full_cols: list[str] = []
    empty_cols: list[str] = []

    while True:
        drop_rows = {}
        for i in attrs:
            cells = [ctx.incidence[i][j] for j in objs]
            if cells and all(cells):
                drop_rows[i] = full_rows
            elif not any(cells):
                drop_rows[i] = empty_rows
        drop_cols = {}
        for j in objs:
            cells = [ctx.incidence[i][j] for i in attrs]
            if cells and all(cells):
                drop_cols[j] = full_cols
            elif not any(cells):
                drop_cols[j] = empty_cols
        if not drop_rows and not drop_cols:
            break
        for i, bucket in drop_rows.items():
            bucket.append(ctx.attributes[i])
        for j, bucket in drop_cols.items():
            bucket.append(ctx.objects[j])
        attrs = [i for i in attrs if i not in drop_rows]
        objs = [j for j in objs if j not in drop_cols]

    core = BooleanContext(
        tuple(ctx.attributes[i] for i in attrs),
        tuple(ctx.objects[j] for j in objs),
        tuple(tuple(ctx.incidence[i][j] for j in objs) for i in attrs),
    )
    return NormalizationReport(
        tuple(full_rows), tuple(empty_rows), tuple(full_cols), tuple(empty_cols), core
    )
