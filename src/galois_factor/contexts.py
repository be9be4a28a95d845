"""Boolean formal contexts, modal operators and concept lattices.

A context holds attribute names, object names and its relation as one
bitmask per attribute: bit j of ``rows[i]`` is set when attribute i relates
to object j.  The column masks ``cols`` and the bool grid ``incidence`` are
views derived from those rows.  Subsets of either side are bitmasks tied to
their owning context.  Each operator claims its input with ``_claim``: a
subset of the other side raises ``TypeError``, and one built against a
different context ``CrossContextError``, even when the two contexts happen
to be equal as values.  Everything is immutable and every operation is a
pure function, so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import order
from .errors import CrossContextError

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
]


def _check_names(kind: str, names: Sequence) -> None:
    """``ValueError`` unless ``names`` are distinct, non-empty single lines
    without surrounding whitespace: the names a ``.cxt`` file can carry and
    a DOT label or JSON document shows as they are."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {kind} names")
    for name in names:
        one_line = isinstance(name, str) and name.splitlines() == [name]
        if not one_line or name.strip() != name:
            raise ValueError(f"{kind} name {name!r} is not one unpadded non-empty line")


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
        _check_names("attribute", self.attributes)
        _check_names("object", self.objects)
        if len(self.rows) != len(self.attributes):
            raise ValueError(
                f"incidence has {len(self.rows)} rows for {len(self.attributes)} attributes"
            )
        for row in self.rows:
            if type(row) is not int or row < 0 or row >> len(self.objects):
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
        return order.transpose(self.rows, len(self.objects))

    @cached_property
    def components(self) -> tuple[tuple[int, int], ...]:
        """The (object bits, attribute bits) of each connected component of
        the incidence graph, sorted by object bits: each grows from the
        lowest object not yet placed until it takes in nothing more."""
        found, free = [], self._full_objects
        while free:
            xbits, grown = 0, free & -free
            while grown != xbits:
                xbits = grown
                ybits = _up_pi_bits(self, xbits)
                grown = xbits | _down_pi_bits(self, ybits)
            free &= ~xbits
            found.append((xbits, ybits))
        return tuple(sorted(found))

    @cached_property
    def incidence(self) -> tuple[tuple[bool, ...], ...]:
        """The relation as a bool grid: row i for attribute i, cell j for object j."""
        width = len(self.objects)
        return tuple(tuple(bool(row >> j & 1) for j in range(width)) for row in self.rows)

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
        return ObjectSubset(self, _member_bits(members, self._obj_index, "object"))

    def attribute_set(self, members: Iterable[str | int] = ()) -> "AttributeSubset":
        return AttributeSubset(self, _member_bits(members, self._attr_index, "attribute"))

    @property
    def all_objects(self) -> "ObjectSubset":
        return ObjectSubset(self, self._full_objects)

    @property
    def all_attributes(self) -> "AttributeSubset":
        return AttributeSubset(self, self._full_attrs)

    def incidence_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)


def _member_bits(members: Iterable[str | int], index: dict[str, int], kind: str) -> int:
    """The bits of ``members``, each a name in ``index`` or a position below its size."""
    bits = 0
    for m in members:
        i = m if type(m) is int else index.get(m, -1)
        if not 0 <= i < len(index):
            raise ValueError(f"unknown {kind} {m!r}")
        bits |= 1 << i
    return bits


class _Subset:
    """Shared behaviour of the two bit-indexed subset types."""

    context: BooleanContext
    bits: int

    _names_attr = ""  # "objects" or "attributes"

    def _universe(self) -> tuple[str, ...]:
        return getattr(self.context, self._names_attr)

    def __post_init__(self):
        if type(self.bits) is not int:
            raise ValueError(f"subset bits {self.bits!r} are not an int")
        if self.bits < 0 or self.bits >> len(self._universe()):
            raise ValueError(f"subset bits {self.bits:#x} out of range")

    def _bits_of(self, other) -> int:
        return _claim(self.context, other, type(self))

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
        return type(member) is int and member >= 0 and bool(self.bits >> member & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __or__(self, other):
        return type(self)(self.context, self.bits | self._bits_of(other))

    def __and__(self, other):
        return type(self)(self.context, self.bits & self._bits_of(other))

    def __sub__(self, other):
        return type(self)(self.context, self.bits & ~self._bits_of(other))

    def __le__(self, other) -> bool:
        return self.bits & ~self._bits_of(other) == 0

    def __lt__(self, other) -> bool:
        bits = self._bits_of(other)
        return self.bits != bits and self.bits & ~bits == 0

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


@dataclass(frozen=True, repr=False)
class AttributeSubset(_Subset):
    """A subset of the attributes of one particular context."""

    context: BooleanContext = field(compare=False)
    bits: int

    _names_attr = "attributes"


def _claim(ctx: BooleanContext, subset: _Subset, kind: type) -> int:
    """The bits of ``subset`` once it is a ``kind`` of ``ctx``: a set of the
    other side raises ``TypeError``, one of another context ``CrossContextError``."""
    if type(subset) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(subset).__name__}")
    if subset.context is not ctx:
        raise CrossContextError(f"{kind.__name__} built against a different context")
    return subset.bits


# raw-bits operator cores, shared with factorization


def _up_bits(ctx: BooleanContext, xbits: int) -> int:
    # the columns of the objects in X: O(|X|) ANDs, not an O(|A|) scan
    return order._and_over(ctx.cols, xbits, ctx._full_attrs)


def _down_bits(ctx: BooleanContext, ybits: int) -> int:
    # the rows of the attributes in Y: O(|Y|) ANDs, not an O(|B|) scan
    return order._and_over(ctx.rows, ybits, ctx._full_objects)


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
    return AttributeSubset(ctx, _up_bits(ctx, _claim(ctx, xs, ObjectSubset)))


def down(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Objects possessing every attribute of Y (derivation operator)."""
    return ObjectSubset(ctx, _down_bits(ctx, _claim(ctx, ys, AttributeSubset)))


def up_n(ctx: BooleanContext, xs: ObjectSubset) -> AttributeSubset:
    """Necessity: attributes whose whole support lies inside X."""
    return AttributeSubset(ctx, _up_n_bits(ctx, _claim(ctx, xs, ObjectSubset)))


def down_n(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Necessity: objects whose whole support lies inside Y."""
    return ObjectSubset(ctx, _down_n_bits(ctx, _claim(ctx, ys, AttributeSubset)))


def up_pi(ctx: BooleanContext, xs: ObjectSubset) -> AttributeSubset:
    """Possibility: attributes held by at least one object of X."""
    return AttributeSubset(ctx, _up_pi_bits(ctx, _claim(ctx, xs, ObjectSubset)))


def down_pi(ctx: BooleanContext, ys: AttributeSubset) -> ObjectSubset:
    """Possibility: objects holding at least one attribute of Y."""
    return ObjectSubset(ctx, _down_pi_bits(ctx, _claim(ctx, ys, AttributeSubset)))


@dataclass(frozen=True)
class FormalConcept:
    """An extent/intent pair closed under the derivation operators."""

    extent: ObjectSubset
    intent: AttributeSubset

    @classmethod
    def from_keys(cls, ctx: BooleanContext, xbits: int, ybits: int) -> "FormalConcept":
        return cls(ObjectSubset(ctx, xbits), AttributeSubset(ctx, ybits))

    def __repr__(self) -> str:
        return f"<{{{', '.join(self.extent.names)}}}, {{{', '.join(self.intent.names)}}}>"


def concepts(
    ctx: BooleanContext, budget: int | order.Budget = order.DEFAULT_ENUM_BUDGET
) -> order.Lattice:
    """Enumerate the concept lattice.

    ``order.closed_sets`` finds the concepts by FCbO within ``budget``
    closures; ``order.sorted_lattice`` lists them by extent bits, a linear
    extension of the order and a deterministic result.
    """
    scan = order.closed_sets(ctx.rows, ctx.cols, budget)
    return order.sorted_lattice(ctx, FormalConcept, scan)


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
    return _subcontext(ctx, _claim(ctx, xs, ObjectSubset), _claim(ctx, ys, AttributeSubset))


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
