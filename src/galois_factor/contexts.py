"""Boolean formal contexts, modal operators and concept lattices.

A context holds attribute names, object names and its relation as one
bitmask per attribute: bit j of ``rows[i]`` is set when attribute i relates
to object j.  The column masks ``cols`` and the bool grid ``incidence`` are
views derived from those rows.  Subsets of either side are bitmasks tied to
their owning context; using a subset against a different context raises,
even when the two contexts happen to be equal as values.  Everything is
immutable and every operation is a pure function, so values can be shared
freely.
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


def _bool_grid(rows: Sequence[int], width: int) -> tuple[tuple[bool, ...], ...]:
    """Bitmask rows as a grid of bools, ``width`` cells per row."""
    return tuple(tuple(bool(row >> j & 1) for j in range(width)) for row in rows)


@dataclass(frozen=True)
class BooleanContext:
    """A triple of attributes, objects and an incidence relation.

    ``rows[i]`` has bit j set when attribute i relates to object j.  Names
    are non-empty single lines without surrounding whitespace, the names a
    ``.cxt`` file can carry.
    """

    attributes: tuple[str, ...]
    objects: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "rows", tuple(self.rows))
        for kind, names in (("attribute", self.attributes), ("object", self.objects)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {kind} names")
            for name in names:
                one_line = isinstance(name, str) and name.splitlines() == [name]
                if not one_line or name.strip() != name:
                    raise ValueError(f"{kind} name {name!r} is not one unpadded non-empty line")
        if len(self.rows) != len(self.attributes):
            raise ValueError(
                f"incidence has {len(self.rows)} rows for {len(self.attributes)} attributes"
            )
        for row in self.rows:
            if not isinstance(row, int) or row < 0 or row >> len(self.objects):
                raise ValueError(f"row {row!r} is not a bitmask over {len(self.objects)} objects")

    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        objects: Sequence[str],
        rows: Iterable[Iterable[int]],
    ) -> "BooleanContext":
        """Build from 0/1 rows, one per attribute."""
        objects = tuple(objects)
        packed = []
        for row in map(tuple, rows):
            if len(row) != len(objects):
                raise ValueError(f"incidence row of length {len(row)} for {len(objects)} objects")
            packed.append(sum(1 << j for j, v in enumerate(row) if v))
        return cls(tuple(attributes), objects, tuple(packed))

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Per object j, the attribute bits of its column: bit i when i relates to j."""
        cols = [0] * len(self.objects)
        for i, row in enumerate(self.rows):
            for j in order.set_bits(row):
                cols[j] |= 1 << i
        return tuple(cols)

    @cached_property
    def incidence(self) -> tuple[tuple[bool, ...], ...]:
        """The relation as a bool grid: row i for attribute i, cell j for object j."""
        return _bool_grid(self.rows, len(self.objects))

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
        return bool(self.rows[self._attr_index[attribute]] >> self._obj_index[obj] & 1)

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
        return sum(row.bit_count() for row in self.rows)


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
    return _and_over(ctx.cols, xbits, ctx._full_attrs)


def _down_bits(ctx: BooleanContext, ybits: int) -> int:
    # the rows of the attributes in Y: O(|Y|) ANDs, not an O(|B|) scan
    return _and_over(ctx.rows, ybits, ctx._full_objects)


def _up_n_bits(ctx: BooleanContext, xbits: int) -> int:
    return sum(1 << i for i, row in enumerate(ctx.rows) if row & ~xbits == 0)


def _down_n_bits(ctx: BooleanContext, ybits: int) -> int:
    return sum(1 << j for j, col in enumerate(ctx.cols) if col & ~ybits == 0)


def _up_pi_bits(ctx: BooleanContext, xbits: int) -> int:
    return sum(1 << i for i, row in enumerate(ctx.rows) if row & xbits)


def _down_pi_bits(ctx: BooleanContext, ybits: int) -> int:
    return sum(1 << j for j, col in enumerate(ctx.cols) if col & ybits)


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


def concepts(
    ctx: BooleanContext, budget: int | order.Budget = order.DEFAULT_ENUM_BUDGET
) -> order.Lattice:
    """Enumerate the concept lattice.

    Intents are the closed sets of Y -> Y-down-up, found by the canonical
    lectic scan within ``budget`` closures, then paired with their extents
    and sorted by extent bit-pattern for a deterministic result.
    """
    n = len(ctx.attributes)
    close = lambda ybits: _up_bits(ctx, _down_bits(ctx, ybits))
    found = []
    for intent_bits in order.closed_sets(n, close, budget):
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
    for kind, names, lines, full in (
        ("attribute row", ctx.attributes, ctx.rows, ctx._full_objects),
        ("object column", ctx.objects, ctx.cols, ctx._full_attrs),
    ):
        for name, line in zip(names, lines):
            if full and line == full:
                problems.append(f"{kind} {name!r} is full")
            elif line == 0:
                problems.append(f"{kind} {name!r} is empty")
    return problems


def is_normalized(ctx: BooleanContext) -> bool:
    """No attribute row or object column entirely full or entirely empty."""
    return not _offending_lines(ctx)


def _subcontext(ctx: BooleanContext, xbits: int, ybits: int) -> BooleanContext:
    """The subcontext on the objects at ``xbits`` and attributes at ``ybits``."""
    objs = tuple(order.set_bits(xbits))
    attrs = tuple(order.set_bits(ybits))
    packed = {j: 1 << k for k, j in enumerate(objs)}  # old object -> its new bit
    rows = tuple(sum(packed[j] for j in order.set_bits(ctx.rows[i] & xbits)) for i in attrs)
    return BooleanContext(
        tuple(ctx.attributes[i] for i in attrs), tuple(ctx.objects[j] for j in objs), rows
    )


def restrict(ctx: BooleanContext, xs: ObjectSubset, ys: AttributeSubset) -> BooleanContext:
    """The subcontext on the given objects and attributes, in input order."""
    return _subcontext(ctx, _claim_objects(ctx, xs), _claim_attrs(ctx, ys))


def _strip(lines, live: int, across: int, names, full: list, empty: list) -> int:
    """The live ``lines`` full or empty on the live ``across`` lines, named in
    ``full`` or ``empty``; a line with no live cells left counts as empty."""
    dropped = 0
    for i in order.set_bits(live):
        cells = lines[i] & across
        if across and cells == across:
            full.append(names[i])
        elif not cells:
            empty.append(names[i])
        else:
            continue
        dropped |= 1 << i
    return dropped


def normalize(ctx: BooleanContext) -> NormalizationReport:
    """Strip full/empty rows and columns until the remainder is normalized.

    A context may collapse to 0x0; that is reported, not an error.
    """
    attrs, objs = ctx._full_attrs, ctx._full_objects  # the live lines
    full_rows, empty_rows, full_cols, empty_cols = [], [], [], []
    while True:
        # rows and columns are judged against the same live lines, then dropped
        drop_attrs = _strip(ctx.rows, attrs, objs, ctx.attributes, full_rows, empty_rows)
        drop_objs = _strip(ctx.cols, objs, attrs, ctx.objects, full_cols, empty_cols)
        if not drop_attrs | drop_objs:
            break
        attrs &= ~drop_attrs
        objs &= ~drop_objs
    removed = map(tuple, (full_rows, empty_rows, full_cols, empty_cols))
    return NormalizationReport(*removed, _subcontext(ctx, objs, attrs))
