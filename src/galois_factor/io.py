"""File formats and exporters.

Boolean contexts travel as Burmeister ``.cxt`` files, fuzzy contexts as
CSV grids with a frame descriptor (``godel:4``, ``lukasiewicz:4``,
``dprod:4,8,10``; plain ``godel`` auto-detects the granularity from the
values).  Contexts are also JSON documents, and a document is read back as
the ``BooleanContext`` or ``FuzzyContext`` itself: ``document_from_json``
inverts ``emit_json`` on every context it writes, and refuses a document
whose list fields are not JSON arrays.  A Boolean document's incidence
rows are strings of ``X``, ``x`` or ``.`` cells, one per object, read as
strictly as the rows of a ``.cxt`` file.  A fuzzy document names its frame
by its triples' names, so writing a triple whose name is not a descriptor
that rebuilds it raises ``ValueError``.  Each grade cell is read once, and
a CSV grid reads each distinct spelling once.

``emit_json`` writes every document, a lattice's too, as one dict through
one small recursive writer, with the text ``json.dumps(data, indent=2,
ensure_ascii=False)`` would give.  The writer takes only str, int, bool,
None, list and dict with str keys and raises ``TypeError`` on anything
else (a float, tuple, set, bytes or a non-str key); strings go through
``json.encoder.encode_basestring``.  A ``_Text``, a list of pre-rendered
fragments, is copied in as it stands: a lattice's element lists and covers
are ``_Text``, so no element is built.  All four lattice kinds share one
element path, which reads ``Lattice.keys``, the elements' two key lists.
An element is appended as fragments, each of its two sides one join of
pre-encoded fragments.  A Boolean side (concept and cn lattices)
is a subset's bits: each name is encoded once per document, with its
newline and indent, into a table per byte of the bits, whose entry b joins
the names at the set bits of b; an entry is made the first time it is
looked up, so the tables hold only the entries the document uses.  A
graded side (fn and fuzzy concept lattices) is a row of grades on fixed
names: each name has a table of its fragment, name and grade, at every
grade of the side's chain, so a side is one lookup per name.  DOT labels
join escaped fragments through tables of the same two kinds.  A cn
lattice is written from its atoms alone: its keys are doubled from the
atoms' bits, and its ``atom_pairs`` member is written from those bits.
Hasse edges, in JSON and in DOT, come from ``Lattice.cover_lists`` (for a
cn lattice the cube's, made by doubling, so the edge tuples of ``covers``
are not built) and are one join per element over pre-built index strings.
An oracle report is the last member, read off its two fields.  A ``check``
report's rows are ``_Text`` too.  The skeleton of a row, every leaf a NUL
marker, is written once per report by ``_write`` at the row's level and
made a ``%`` template, so each row is one ``template % leaves``: its pair
index, ``true``/``false`` and grade strings encoded once per report, read
off its pair's keys and one ``fuzzy._checks`` evaluation, which takes each
operator image once and trusts ``fn_enumerate``'s pairs to be members.
Keys come in a fixed order, so identical inputs produce byte-identical
output; grades serialize as exact fraction strings, never as floats.  DOT
digraphs draw the Hasse covers.
"""

from __future__ import annotations

import csv
import functools
import io as _stdio
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import compress, repeat
from typing import Callable, Sequence

from . import _lazy_submodule, order
from .contexts import (
    AttributeSubset,
    BooleanContext,
    NormalizationReport,
    ObjectSubset,
    _check_names,
    concepts,
)
from .errors import BudgetExceededError, ContextFormatError
from .order import DEFAULT_ENUM_BUDGET, Budget, Lattice, atoms, read_natural, transpose

# loaded on first use: Boolean contexts and concept lattices run none of their bodies
fz = _lazy_submodule("factorization")
fy = _lazy_submodule("fuzzy")
grades = _lazy_submodule("grades")

SCHEMA = "galois-factor/1"

__all__ = [
    "SCHEMA",
    "parse_cxt",
    "format_cxt",
    "parse_fuzzy_csv",
    "emit_json",
    "emit_dot",
    "document_from_json",
    "removals_dict",
    "check_report",
]


# ---------------------------------------------------------------- Burmeister


def parse_cxt(text: str) -> BooleanContext:
    """Parse a Burmeister .cxt file: header B, name line, counts, names, X/. rows."""
    lines = text.splitlines()
    pos = 0

    def next_content(expect: str) -> tuple[str, int]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ContextFormatError(f"unexpected end of file, expected {expect}", len(lines))
        line = lines[pos]
        pos += 1
        return line.strip(), pos

    header, line_no = next_content("header 'B'")
    if header != "B":
        raise ContextFormatError(f"malformed header {header!r}, expected 'B'", line_no)
    pos += 1  # the line after B names the context; the name is not kept
    counts = []
    for kind in ("object", "attribute"):
        count_text, line_no = next_content(f"{kind} count")
        try:
            counts.append(read_natural(count_text))
        except ValueError:
            raise ContextFormatError(f"bad {kind} count {count_text!r}", line_no) from None
        if not counts[-1]:
            raise ContextFormatError(f"empty {kind} set", line_no)
    n_attributes = counts[1]

    objects, attributes = [], []
    for kind, names, count in zip(("object", "attribute"), (objects, attributes), counts):
        for _ in range(count):
            name, line_no = next_content(f"an {kind} name")
            if name in names:
                raise ContextFormatError(f"duplicate {kind} name {name!r}", line_no)
            names.append(name)

    cols = []  # the file lists one object per row, its attribute bits
    for obj in objects:
        row_text, line_no = next_content(f"incidence row for {obj!r}")
        try:
            cols.append(_row_bits(row_text, n_attributes))
        except ValueError as exc:
            raise ContextFormatError(str(exc), line_no) from None
    return BooleanContext(tuple(attributes), tuple(objects), transpose(cols, n_attributes))


_CELL_BITS = str.maketrans("Xx.", "110")


def _row_bits(row: str, width: int) -> int:
    """The bits of a row of ``width`` cells, lowest first: ``X`` or ``x`` is
    an incidence and ``.`` none; ``ValueError`` for any other row."""
    if len(row) != width:
        raise ValueError(f"row has {len(row)} cells, expected {width}")
    if row.strip("Xx."):  # what is left holds every other character
        bad = next(ch for ch in row if ch not in "Xx.")
        raise ValueError(f"bad incidence character {bad!r}")
    return int("0" + row[::-1].translate(_CELL_BITS), 2)


def format_cxt(ctx: BooleanContext) -> str:
    """Render a context back to Burmeister form (objects as file rows).

    A ``.cxt`` file has at least one object and one attribute, so a context
    with an empty side raises ``ValueError``.
    """
    empty = [side for side in ("objects", "attributes") if not getattr(ctx, side)]
    if empty:
        raise ValueError(f"a .cxt file cannot hold a context with no {' and no '.join(empty)}")
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    out.extend(_cell_rows(ctx.cols, len(ctx.attributes)))
    return "\n".join(out) + "\n"


_CELL_CHARS = str.maketrans("01", ".X")


def _cell_rows(rows, width: int) -> list[str]:
    """Bitmask rows as ``X``/``.`` strings of ``width`` cells, lowest bit first."""
    # the leading 1 keeps the high zero cells; [:2:-1] reverses and drops "0b1"
    top = 1 << width
    return [bin(row | top)[:2:-1].translate(_CELL_CHARS) for row in rows]


# ----------------------------------------------------------------- fuzzy CSV


def read_grade(value) -> Fraction:
    """``grades.read_grade`` under io's own name, which the CSV parser calls."""
    return grades.read_grade(value)


def _read(read: Callable, value, where: str, line: int | None = None):
    """``read(value)``, or ``ContextFormatError`` naming ``where``, the cell or field."""
    try:
        return read(value)
    except ValueError as exc:
        raise ContextFormatError(f"{where}: {exc}", line) from None


def _read_cells(read: Callable, seen: dict, name: str, objects, values, line: int) -> list:
    """``read`` of each of attribute ``name``'s cell ``values``, remembered
    in ``seen`` per value: only successes are kept, so each value that fails
    fails at its first cell, which the ``ContextFormatError`` names."""
    row = []
    for obj, v in zip(objects, values):
        if v not in seen:
            seen[v] = _read(read, v, f"cell ({name}, {obj})", line)
        row.append(seen[v])
    return row


def _csv_names(kind: str, names, line: int) -> None:
    """The context name check, as a ``ContextFormatError`` at ``line``."""
    try:
        _check_names(kind, names)
    except ValueError as exc:
        raise ContextFormatError(str(exc), line) from None


def parse_fuzzy_csv(text: str, frame: str) -> fy.FuzzyContext:
    """Parse a fuzzy relation grid.

    First row: corner label then object names; each further row: an
    attribute name then grades (decimals or fractions) on the frame's
    relation chain.  A grid repeats a few spellings, so each spelling is
    read once per parse, and each grade's numerator taken once.
    """
    reader = csv.reader(_stdio.StringIO(text))
    table = []  # the non-blank rows, each with the line it starts on
    start = 1
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                table.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ContextFormatError(f"unreadable CSV: {exc}", reader.line_num) from None
    if not table:
        raise ContextFormatError("empty fuzzy context document", 1)
    top, header = table[0]
    objects = [cell.strip() for cell in header[1:]]
    if not objects:
        raise ContextFormatError("empty object set", top)
    _csv_names("object", objects, top)

    attributes = []
    cells: list[list[Fraction]] = []
    seen: dict[str, Fraction] = {}
    for k, row in table[1:]:
        row = [cell.strip() for cell in row]
        if len(row) != len(objects) + 1:
            raise ContextFormatError(
                f"row has {len(row) - 1} cells, expected {len(objects)}", k
            )
        name = row[0]
        _csv_names("attribute", (name,), k)
        if name in attributes:
            raise ContextFormatError(f"duplicate attribute name {name!r}", k)
        attributes.append(name)
        cells.append(_read_cells(read_grade, seen, name, objects, row[1:], k))
    if not attributes:
        raise ContextFormatError("empty attribute set", top)

    try:
        triple = grades.triple_from_descriptor(frame, [v for row in cells for v in row])
    except ValueError as exc:  # an unknown frame, or too fine a chain for the grades
        raise ContextFormatError(str(exc)) from None
    numerator = triple.p3.numerator_of_fraction  # concept-forming: relation lives on P
    numerators: dict[Fraction, int] = {}
    relation = [
        _read_cells(numerator, numerators, name, objects, row, k)
        for (k, _), name, row in zip(table[1:], attributes, cells)
    ]
    return fy.FuzzyContext(attributes, objects, (triple,), relation)


# ---------------------------------------------------------------------- JSON


@functools.cache
def _grade_strings(m: int) -> tuple[str, ...]:
    """Exact fraction strings of the grades 0/m, 1/m, .., m/m."""
    return tuple(str(Fraction(v, m)) for v in range(m + 1))


def _boolean_context_dict(ctx: BooleanContext) -> dict:
    return {
        "attributes": list(ctx.attributes),
        "objects": list(ctx.objects),
        "incidence": _cell_rows(ctx.rows, len(ctx.objects)),
    }


def _frame_names(ctx: fy.FuzzyContext) -> list[str]:
    """The triples' names, the only record of the frame a document keeps;
    ``ValueError`` unless each name is a descriptor that rebuilds its triple."""
    for t in ctx.triples:
        try:
            faithful = grades.triple_from_descriptor(t.name) == t
        except ValueError:
            faithful = False
        if not faithful:
            raise ValueError(
                f"triple {t.name!r} cannot be written: its name is not a frame "
                "descriptor that rebuilds it"
            )
    return [t.name for t in ctx.triples]


def _fuzzy_context_dict(ctx: fy.FuzzyContext) -> dict:
    out = {
        "frames": _frame_names(ctx),
        "arrangement": ctx.kind.value,
        "attributes": list(ctx.attributes),
        "objects": list(ctx.objects),
        "relation": [
            [_grade_strings(ctx.p.m)[v] for v in row] for row in ctx.relation
        ],
    }
    if ctx.sigma is not None:
        out["sigma"] = [list(row) for row in ctx.sigma]
    return out


def _plain(value):
    """A ``BlockBounds`` record as JSON data: its dataclass fields in order,
    recursively; subsets become their member names."""
    if isinstance(value, (ObjectSubset, AttributeSubset)):
        return list(value.names)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


# per element type, by name so that no lookup loads the fuzzy modules: the
# lattice's JSON "type" (its DOT graph name with underscores) and the key of
# its element list
_LATTICE_KINDS = {
    "FormalConcept": ("concept-lattice", "concepts"),
    "NecessityPair": ("cn-lattice", "pairs"),
    "FuzzyNecessityPair": ("fn-lattice", "pairs"),
    "MultiAdjointConcept": ("fuzzy-concept-lattice", "concepts"),
}


def removals_dict(report: NormalizationReport) -> dict:
    """The lines ``normalize`` stripped: a factorization's ``removed``."""
    return {
        "full_rows": list(report.removed_full_rows),
        "empty_rows": list(report.removed_empty_rows),
        "full_cols": list(report.removed_full_cols),
        "empty_cols": list(report.removed_empty_cols),
    }


def check_report(ctx: fy.FuzzyContext, lattice: Lattice, selected, props) -> dict:
    """The ``check`` report: the context's preconditions, then per selected
    pair index a row with the pair and the propositions named in ``props``,
    in ``fuzzy.CHECKS`` order, from one ``fuzzy._checks`` evaluation.  The
    pairs are ``fn_enumerate``'s, members by its proof, so a row claims
    nothing and builds no pair; only the public checkers claim.  More rows
    than ``order.MAX_ELEMENTS`` raise ``BudgetExceededError`` first.

    The rows are one ``_Text``: each row is ``_row_template``'s text with
    its leaves in place, the pair index, ``true``/``false`` and grade
    strings encoded once per report.  fn's operators need L1 = L2 = P, so
    one table encodes every grade."""
    if len(selected) > order.MAX_ELEMENTS:
        raise BudgetExceededError(len(selected), order.MAX_ELEMENTS, "check rows")
    props = [p for p in fy.CHECKS if p in props]
    template = _row_template(ctx, props)
    grade = [_encode_str(text) for text in _grade_strings(ctx.p.m)].__getitem__
    flag = ("false", "true").__getitem__
    gs, fs = lattice.keys
    first, between, close = _separators(2)  # rows sit in the document's list
    rows, sep = _Text(), "[" + first
    for i in selected:
        g, f = gs[i], fs[i]
        leaves = [int.__repr__(i), *map(grade, g + f)]
        for name, value in fy._checks(ctx, g, f, props).items():
            if name == "fp4":
                strict, tops, either, holds, inequality, g_up, g_up_pi = value
                leaves += map(flag, (*strict, *tops, *either, holds, inequality))
                leaves += map(grade, g_up + g_up_pi)
            elif name == "fp5":  # two concepts, extent then intent, then ordered
                f_down, f_down_up, upper_extent, g_up, ordered = value
                leaves += map(grade, f_down + f_down_up + upper_extent + g_up)
                leaves.append(flag(ordered))
            else:
                leaves.append(flag(value))
        rows += sep, template % tuple(leaves)
        sep = between
    rows.append(close + "]" if rows else "[]")
    return {
        "type": "check",
        "preconditions": {
            "normalized": fy.is_fuzzy_normalized(ctx),
            "top_normalized_rows": fy.is_top_normalized(ctx, "rows"),
            "top_normalized_columns": fy.is_top_normalized(ctx, "columns"),
            "godel_frame": all(t.is_godel for t in ctx.triples),
        },
        "pair_count": len(lattice),
        "rows": rows,
    }


# a leaf of a row skeleton: NUL, which ``_encode_str`` escapes in every name
_LEAF = "\0"


def _row_template(ctx: fy.FuzzyContext, props: list[str]) -> str:
    """A ``check`` row of ``ctx`` with the propositions ``props`` as a ``%``
    template: the row's skeleton written by ``_write`` at the row's level,
    every other ``%`` doubled and each leaf a ``%s``, in the order
    ``check_report`` lists the leaves."""
    leaf = _Text([_LEAF])
    objects, attributes = dict.fromkeys(ctx.objects, leaf), dict.fromkeys(ctx.attributes, leaf)
    flags = [leaf] * len(ctx.attributes)
    members = {
        "fp1": leaf,
        "fp2": leaf,
        "fp3": leaf,
        "fp4": {
            "strict_hypothesis": flags,
            "top_hypothesis": flags,
            "hypothesis_holds_per_attribute": flags,
            "all_hypotheses_hold": leaf,
            "inequality_holds": leaf,
            "g_up": attributes,
            "g_up_pi": attributes,
        },
        "fp5": {
            "lower": {"extent": objects, "intent": attributes},
            "upper": {"extent": objects, "intent": attributes},
            "ordered": leaf,
        },
    }
    row = {"pair": leaf, "g": objects, "f": attributes, **{p: members[p] for p in props}}
    out: list[str] = []
    _write(row, out, 2)
    return "".join(out).replace("%", "%%").replace(_LEAF, "%s")


def to_jsonable(obj) -> dict:
    """A result other than a lattice as plain JSON data with a stable key
    order; ``emit_json`` writes lattices without building such a tree."""
    if isinstance(obj, dict):
        return {"schema": SCHEMA, **obj} if "schema" not in obj else obj
    if isinstance(obj, BooleanContext):
        return {"schema": SCHEMA, "kind": "boolean", **_boolean_context_dict(obj)}
    if isinstance(obj, fz.Factorization):
        return {
            "schema": SCHEMA,
            "type": "factorization",
            "removed": removals_dict(obj.reattached),
            "core": _boolean_context_dict(obj.core),
            "blocks": [
                {
                    "objects": list(b.objects.names),
                    "attributes": list(b.attrs.names),
                    "incidence": _cell_rows(b.context.rows, len(b.objects)),
                }
                for b in obj.blocks
            ],
        }
    if isinstance(obj, fz.BlockBounds):
        return {"schema": SCHEMA, "type": "block-bounds", **_plain(obj)}
    if isinstance(obj, fy.FuzzyContext):
        return {"schema": SCHEMA, "kind": "fuzzy", **_fuzzy_context_dict(obj)}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


# ------------------------------------------------------------------- writer

_encode_str = json.encoder.encode_basestring  # the C encoder when there is one


@functools.cache
def _separators(level: int) -> tuple[str, str, str]:
    """Before the first item at ``level``, between items, before the bracket."""
    indent = "\n" + "  " * level
    return indent, "," + indent, indent[:-2]


def _scalar(value) -> str:
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
    return _encode_str(key) + ": "


class _Text(list):
    """Pre-rendered JSON text as fragments, which ``_write`` copies as they stand."""


def _write(value, out: list[str], level: int = 0) -> None:
    """Append ``json.dumps(value, indent=2, ensure_ascii=False)`` to ``out``,
    ``level`` levels deep; only str, int, bool, None, list and dict with
    str keys have a JSON form, anything else raises ``TypeError``.  A
    ``_Text`` is appended as it stands, already rendered at its level.  A
    scalar in a container shares one string with its separator and key."""
    if isinstance(value, _Text):
        out += value
        return
    if isinstance(value, list):
        keys, items, brackets = repeat(""), value, "[]"
    elif isinstance(value, dict):
        keys, items, brackets = map(_key, value), value.values(), "{}"
    else:
        out.append(_scalar(value))
        return
    if not value:
        out.append(brackets)
        return
    first, between, close = _separators(level + 1)
    sep = brackets[0] + first
    for key, item in zip(keys, items):
        if isinstance(item, (list, dict)):
            out.append(sep + key)
            _write(item, out, level + 1)
        else:
            out.append(sep + key + _scalar(item))
        sep = between
    out.append(close + brackets[1])


# per byte b, its bits lowest first as 0/1 bytes: a selector for compress
_BYTE_FLAGS = [bytes(b >> i & 1 for i in range(8)) for b in range(256)]


class _ByteTable(dict):
    """The joins of up to 8 fragments, keyed by a byte: entry b is the
    fragments at the set bits of b, in index order.  An entry other than
    the empty one is made the first time it is looked up, so a table holds
    only the bytes in use and a zero byte costs nothing."""

    __slots__ = ("fragments",)

    def __init__(self, fragments: list[str]):
        super().__init__({0: ""})
        self.fragments = fragments

    def __missing__(self, b: int) -> str:
        entry = self[b] = "".join(compress(self.fragments, _BYTE_FLAGS[b]))
        return entry


def _joiner(names: Sequence[str], encode: Callable[[str], str]) -> Callable[[int], str]:
    """A function from a subset's bits to the ``encode``d names of its
    members, in index order, joined by commas.

    Each name is encoded once, into the ``_ByteTable`` of its byte of the
    bits, with a comma before it; a subset costs one lookup per byte.
    """
    tables = [
        _ByteTable(["," + encode(name) for name in names[start:start + 8]])
        for start in range(0, len(names), 8)
    ]
    size = len(tables)
    lookup = dict.__getitem__  # calls __missing__, as a subscript does

    def joined(bits: int) -> str:
        # the byte order is given: Python 3.10's to_bytes has no default
        return "".join(map(lookup, tables, bits.to_bytes(size, "little")))[1:]

    return joined


def _sides(ctx, name, grade, sep: str):
    """Per side of an element of ``ctx``'s lattices, a function from the
    side's key to its members joined; and the JSON brackets of a side.

    This is the one place that tells Boolean from graded elements.  A
    Boolean side's key is its bits, joined by commas through ``_joiner``
    from ``name`` of each member.  A graded side's key is its numerators;
    position i looks up table i, which holds ``sep + name(n_i) + grade(g)``
    for every grade g of the side's chain: ``l2`` for objects, ``l1`` for
    attributes.
    """
    if isinstance(ctx, BooleanContext):
        return [_joiner(ctx.objects, name), _joiner(ctx.attributes, name)], "[]"
    sides = (ctx.objects, ctx.l2.m), (ctx.attributes, ctx.l1.m)
    return [_graded_joiner(names, m, name, grade, sep) for names, m in sides], "{}"


def _graded_joiner(names, m: int, name, grade, sep: str) -> Callable[[tuple], str]:
    encoded = [grade(text) for text in _grade_strings(m)]
    leads = [sep + name(n) for n in names]
    tables = [[lead + g for g in encoded] for lead in leads]
    return lambda values: "".join(map(list.__getitem__, tables, values))[len(sep):]


def _edges(lattice: Lattice, edge: str, sep: str) -> str:
    """The Hasse edges in the order of ``covers``, each ``edge`` with its
    lower and upper index in place of its two ``%s``, joined by ``sep``.

    The edges come from ``cover_lists``.  Each index is printed once, and
    each element's edges are one join of the pre-built texts of its upper
    covers.
    """
    head, mid, tail = edge.split("%s")
    ups = lattice.cover_lists
    numbers = list(map(str, range(len(ups))))
    upper = [number + tail for number in numbers].__getitem__
    leads = [sep + head + number + mid for number in numbers]
    edges = [lead + lead.join(map(upper, above)) for lead, above in zip(leads, ups) if above]
    return "".join(edges)[len(sep):]


# names sit four levels deep: document, element list, element, subset
_NAME_INDENT = "\n" + "  " * 4


def _elements_json(lattice: Lattice, keys: tuple[list, list]) -> _Text:
    """The elements of ``lattice``'s kind with the two key lists ``keys``
    as a JSON list one level deep, appended as fragments: each element's
    constant text and its two sides, each one join of pre-encoded names (or
    names and grades), so ``emit_json``'s final join is their only copy."""
    first, second = (_encode_str(f.name) for f in fields(lattice.kind))
    (objects, attributes), brackets = _sides(
        lattice.context, lambda n: _NAME_INDENT + _encode_str(n),
        lambda text: ": " + _encode_str(text), ",",
    )
    opened, closed = brackets[0], "\n      " + brackets[1]
    head, middle, end = "{\n      " + first + ": ", ",\n      " + second + ": ", "\n    }"
    sep, lead = "[\n    " + head, ",\n    " + head
    out = _Text()
    xs, ys = keys
    for x, y in zip(xs, ys):
        names, attrs = objects(x), attributes(y)
        out += (sep, opened, names, closed, middle) if names else (sep, brackets, middle)
        out += (opened, attrs, closed, end) if attrs else (brackets, end)
        sep = lead
    out.append("\n  ]" if xs else "[]")
    return out


def _lattice_dict(lattice: Lattice) -> dict:
    """A lattice document, its element lists and covers rendered as ``_Text``."""
    kind, key = _LATTICE_KINDS[lattice.kind.__name__]
    doc = {"schema": SCHEMA, "type": kind}
    if kind == "cn-lattice":
        pairs = lattice.atom_pairs
        doc.update(pair_count=lattice.pair_count, materialized=lattice.materialized)
        bits = [p.objects.bits for p in pairs], [p.attrs.bits for p in pairs]
        doc["atom_pairs"] = _elements_json(lattice, bits)
        if not lattice.materialized:
            return doc
    doc[key] = _elements_json(lattice, lattice.keys)
    edges = _edges(lattice, "\n    [\n      %s,\n      %s\n    ]", ",")
    doc["covers"] = _Text(["[" + edges + "\n  ]" if edges else "[]"])
    if kind == "cn-lattice":
        doc["atoms"] = atoms(lattice)
    return doc


def emit_json(result, oracle=None) -> str:
    """``result`` as an indented JSON document, the text ``json.dumps(...,
    indent=2, ensure_ascii=False)`` gives on its JSON data; ``oracle``, an
    ``oracles.OracleReport``, is its last member."""
    data = _lattice_dict(result) if isinstance(result, Lattice) else to_jsonable(result)
    if oracle is not None:  # a new dict: to_jsonable returns a caller's own
        mismatches = [list(w) for w in oracle.mismatches]
        data = {**data, "oracle": {"checked": oracle.checked, "mismatches": mismatches}}
    out: list[str] = []
    _write(data, out)
    out.append("\n")
    return "".join(out)


def _array(value, field: str) -> list:
    """``value``, the document's ``field``, if it is a JSON array."""
    if not isinstance(value, list):
        raise ContextFormatError(f"bad context document: {field} is not a JSON array")
    return value


def _field(data: dict, field: str) -> list:
    """The document's array ``field``, which it must have."""
    if field not in data:
        raise ContextFormatError(f"bad context document: {field} is missing")
    return _array(data[field], field)


def document_from_json(text: str) -> BooleanContext | fy.FuzzyContext:
    """The context a document holds: the inverse of ``emit_json`` on contexts."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ContextFormatError("a context document is a JSON object")
        if data.get("schema") != SCHEMA:
            raise ContextFormatError(f"unknown schema {data.get('schema')!r}")
        kind = data.get("kind")
        if kind not in ("boolean", "fuzzy"):
            raise ContextFormatError(f"unknown document kind {kind!r}")
        attributes = _field(data, "attributes")
        objects = _field(data, "objects")
        if kind == "boolean":
            rows = []
            for i, row in enumerate(_field(data, "incidence")):
                if not isinstance(row, str):
                    raise ContextFormatError(
                        f"bad context document: incidence[{i}] is not a string"
                    )
                try:
                    rows.append(_row_bits(row, len(objects)))
                except ValueError as exc:
                    raise ContextFormatError(
                        f"bad context document: incidence[{i}]: {exc}"
                    ) from None
            return BooleanContext(attributes, objects, rows)
        triples = []
        for k, descriptor in enumerate(_field(data, "frames")):
            if not isinstance(descriptor, str):
                raise ContextFormatError(f"bad context document: frames[{k}] is not a string")
            triples.append(
                _read(grades.triple_from_descriptor, descriptor,
                      f"bad context document: frames[{k}]")
            )
        if not triples:
            raise ContextFormatError("bad context document: frames is empty")
        arrangement = data.get("arrangement", fy.FrameKind.CONCEPT_FORMING.value)
        arrangement = _read(fy.FrameKind, arrangement, "bad context document: arrangement")
        p_chain = fy._arrangement(arrangement, *triples[0].domains)[2]
        relation = [
            [
                _read(p_chain.numerator_of, v, f"relation[{i}][{j}]")
                for j, v in enumerate(_array(row, f"relation[{i}]"))
            ]
            for i, row in enumerate(_field(data, "relation"))
        ]
        sigma = data.get("sigma")
        if sigma is not None:
            sigma = [_array(row, f"sigma[{i}]") for i, row in enumerate(_array(sigma, "sigma"))]
        try:  # the constructor checks sigma and names its rows and cells
            return fy.FuzzyContext(attributes, objects, triples, relation, sigma, arrangement)
        except ValueError as exc:
            raise ContextFormatError(f"bad context document: {exc}") from None
    except ContextFormatError:
        raise
    except (
        ValueError, TypeError, LookupError, AttributeError, ArithmeticError, RecursionError
    ) as exc:
        # JSONDecodeError is a ValueError, and nesting too deep for the
        # decoder a RecursionError; the rest come from fields of the wrong
        # shape or type
        raise ContextFormatError(f"bad context document: {exc!r}") from None


# ----------------------------------------------------------------------- DOT


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _lattice_dot_lines(lattice: Lattice, prefix="n", indent="  ") -> list[str]:
    """A node per element, labelled by its two sides, and an edge per cover."""
    xs, ys = lattice.keys
    (objects, attributes), _ = _sides(lattice.context, _escape, ":".__add__, ", ")
    labels = ("{%s} | {%s}" % (objects(x), attributes(y)) for x, y in zip(xs, ys))
    node = indent + prefix + '%d [label="%s"];'
    lines = [node % item for item in enumerate(labels)]
    edges = _edges(lattice, indent + prefix + "%s -> " + prefix + "%s;", "\n")
    if edges:
        lines.append(edges)
    return lines


def emit_dot(result, budget: int = DEFAULT_ENUM_BUDGET) -> str:
    """Render a lattice (or a factorization, one cluster per block) as DOT.

    Edges point from each element to its upper covers, so the transitive
    closure of the digraph is exactly the lattice order.  A factorization's
    clusters draw the concept lattice of each block, enumerated here by
    scans that share ``budget`` closure evaluations.
    """
    lines = []
    if isinstance(result, Lattice):
        kind, _ = _LATTICE_KINDS[result.kind.__name__]
        lines.append(f"digraph {kind.replace('-', '_')} {{")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(result)
    elif isinstance(result, fz.Factorization):
        lines.append("digraph factorization {")
        lines.append("  rankdir=BT;")
        shared = Budget(budget)
        for k, block in enumerate(result.blocks):
            lattice = concepts(block.context, shared)
            lines.append(f"  subgraph cluster_{k} {{")
            label = "objects {%s} x attributes {%s}" % (
                ",".join(block.objects.names),
                ",".join(block.attrs.names),
            )
            lines.append(f'    label="{_escape(label)}";')
            lines += _lattice_dot_lines(lattice, prefix=f"b{k}_n", indent="    ")
            lines.append("  }")
    else:
        raise TypeError(f"no DOT form for {type(result).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"
