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
that rebuilds it raises ``ValueError``.  Each grade cell is read once.

``emit_json`` writes the text ``json.dumps(data, indent=2,
ensure_ascii=False)`` would give, with one small recursive writer instead.
The writer takes only str, int, bool, None, list and dict with str keys
and raises ``TypeError`` on anything else (a float, tuple, set, bytes or
a non-str key); strings go through ``json.encoder.encode_basestring``.
Concept and cn lattices build no tree: each object and attribute name is
encoded once per document, with its newline and indent, into a table per
byte of a subset's bits, whose entry b joins the names at the set bits of
b; an entry is made the first time it is looked up, so the tables hold
only the entries the document uses.  Each element is one string, one table
lookup per byte of each of its two subsets.  DOT labels join the escaped
names through the same tables.  A cn lattice is written from its atoms
alone: its element bits come from ``CnLattice.element_bits``, so no
``NecessityPair`` is built.  Hasse edges, in JSON and in DOT, come from
``Lattice.cover_lists`` (for a cn lattice the cube's, made by doubling,
so the edge tuples of ``covers`` are not built) and are one join per
element over pre-built index strings.  Fuzzy lattices and the other
results go through the generic writer.  Keys come in a fixed order, so
identical inputs produce byte-identical output; grades serialize as exact
fraction strings, never as floats.  DOT digraphs draw the Hasse covers.
"""

from __future__ import annotations

import csv
import functools
import io as _stdio
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from .contexts import (
    AttributeSubset,
    BooleanContext,
    FormalConcept,
    NormalizationReport,
    ObjectSubset,
    concepts,
)
from .errors import ContextFormatError
from .factorization import BlockBounds, CnLattice, Factorization, NecessityPair
from .fuzzy import (
    FrameKind,
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
    _arrangement,
    _claim_member,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    interval_from_pair,
    is_fuzzy_normalized,
    is_top_normalized,
)
from .grades import read_grade, triple_from_descriptor
from .oracles import OracleReport
from .order import DEFAULT_ENUM_BUDGET, Budget, Lattice, set_bits

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
    "CHECKERS",
    "check_report",
]


# ---------------------------------------------------------------- Burmeister


def parse_cxt(text: str) -> BooleanContext:
    """Parse a Burmeister .cxt file: header B, counts, names, X/. rows."""
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
    counts = []
    for kind in ("object", "attribute"):
        count_text, line_no = next_content(f"{kind} count")
        try:
            counts.append(int(count_text))
        except ValueError:
            raise ContextFormatError(f"bad {kind} count {count_text!r}", line_no) from None
    n_objects, n_attributes = counts
    if n_objects <= 0:
        raise ContextFormatError("empty object set", line_no)
    if n_attributes <= 0:
        raise ContextFormatError("empty attribute set", line_no)

    objects, attributes = [], []
    for kind, names, count in zip(("object", "attribute"), (objects, attributes), counts):
        for _ in range(count):
            name, line_no = next_content(f"an {kind} name")
            if name in names:
                raise ContextFormatError(f"duplicate {kind} name {name!r}", line_no)
            names.append(name)

    rows = [0] * n_attributes  # per attribute, the bits of its objects
    for j, obj in enumerate(objects):  # the file lists one object per row
        row_text, line_no = next_content(f"incidence row for {obj!r}")
        try:
            col = _row_bits(row_text, n_attributes)
        except ValueError as exc:
            raise ContextFormatError(str(exc), line_no) from None
        for i in set_bits(col):
            rows[i] |= 1 << j
    return BooleanContext(tuple(attributes), tuple(objects), tuple(rows))


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


def _grade(cell, where: str, line: int | None = None) -> Fraction:
    """A grade cell as a ``Fraction``, or ``ContextFormatError`` naming ``where``."""
    try:
        return read_grade(cell)
    except ValueError as exc:
        raise ContextFormatError(f"{where}: {exc}", line) from None


def parse_fuzzy_csv(text: str, frame: str) -> FuzzyContext:
    """Parse a fuzzy relation grid.

    First row: corner label then object names; each further row: an
    attribute name then grades (decimals or fractions) on the frame's
    relation chain.
    """
    reader = csv.reader(_stdio.StringIO(text))
    try:
        table = [row for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ContextFormatError(f"unreadable CSV: {exc}", reader.line_num) from None
    if not table:
        raise ContextFormatError("empty fuzzy context document", 1)
    header = [cell.strip() for cell in table[0]]
    objects = header[1:]
    if not objects:
        raise ContextFormatError("empty object set", 1)
    if len(set(objects)) != len(objects):
        raise ContextFormatError("duplicate object name in header", 1)

    attributes = []
    cells: list[list[Fraction]] = []
    for k, row in enumerate(table[1:], start=2):
        row = [cell.strip() for cell in row]
        if len(row) != len(objects) + 1:
            raise ContextFormatError(
                f"row has {len(row) - 1} cells, expected {len(objects)}", k
            )
        name = row[0]
        if name in attributes:
            raise ContextFormatError(f"duplicate attribute name {name!r}", k)
        attributes.append(name)
        cells.append(
            [_grade(cell, f"cell ({name}, {obj})", k) for obj, cell in zip(objects, row[1:])]
        )
    if not attributes:
        raise ContextFormatError("empty attribute set", 1)

    try:
        triple = triple_from_descriptor(frame, [v for row in cells for v in row])
    except ValueError as exc:  # an unknown frame, or too fine a chain for the grades
        raise ContextFormatError(str(exc)) from None
    p_chain = triple.p3  # concept-forming arrangement: relation lives on P
    relation = []
    for k, (name, row) in enumerate(zip(attributes, cells), start=2):
        numerators = []
        for obj, value in zip(objects, row):
            try:
                numerators.append(p_chain.numerator_of_fraction(value))
            except ValueError as exc:
                raise ContextFormatError(f"cell ({name}, {obj}): {exc}", k) from None
        relation.append(numerators)
    return FuzzyContext(attributes, objects, (triple,), relation)


# ---------------------------------------------------------------------- JSON


@functools.cache
def _grade_strings(m: int) -> tuple[str, ...]:
    """Exact fraction strings of the grades 0/m, 1/m, .., m/m."""
    return tuple(str(Fraction(v, m)) for v in range(m + 1))


def _graded_dict(names, values, m) -> dict:
    strings = _grade_strings(m)
    return {name: strings[v] for name, v in zip(names, values)}


def _boolean_context_dict(ctx: BooleanContext) -> dict:
    return {
        "attributes": list(ctx.attributes),
        "objects": list(ctx.objects),
        "incidence": _cell_rows(ctx.rows, len(ctx.objects)),
    }


def _frame_names(ctx: FuzzyContext) -> list[str]:
    """The triples' names, the only record of the frame a document keeps;
    ``ValueError`` unless each name is a descriptor that rebuilds its triple."""
    for t in ctx.triples:
        try:
            faithful = triple_from_descriptor(t.name) == t
        except ValueError:
            faithful = False
        if not faithful:
            raise ValueError(
                f"triple {t.name!r} cannot be written: its name is not a frame "
                "descriptor that rebuilds it"
            )
    return [t.name for t in ctx.triples]


def _fuzzy_context_dict(ctx: FuzzyContext) -> dict:
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


def _plain(value, ctx=None):
    """A result record as JSON data: its dataclass fields in order, recursively.

    Subsets become their member names and graded sets their grades by name
    (``ctx`` names the positions of graded sets); tuples become lists.  So
    a lattice element's keys are its field names: extent/intent,
    objects/attrs or g/f.
    """
    if isinstance(value, GradedObjectSet):
        return _graded_dict(ctx.objects, value.values, value.chain.m)
    if isinstance(value, GradedAttributeSet):
        return _graded_dict(ctx.attributes, value.values, value.chain.m)
    if isinstance(value, (ObjectSubset, AttributeSubset)):
        return list(value.names)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name), ctx) for f in fields(value)}
    if isinstance(value, tuple):
        return list(value)
    return value


# per element type: the lattice's JSON "type" (its DOT graph name with
# underscores) and the key of its element list
_LATTICE_KINDS = {
    FormalConcept: ("concept-lattice", "concepts"),
    NecessityPair: ("cn-lattice", "pairs"),
    FuzzyNecessityPair: ("fn-lattice", "pairs"),
    MultiAdjointConcept: ("fuzzy-concept-lattice", "concepts"),
}
# element types that are an object subset then an attribute subset
_SUBSET_PAIRS = (FormalConcept, NecessityPair)


def _element_type(lattice: Lattice) -> type:
    # a cn lattice beyond its atom cutoff has no elements to look at
    return NecessityPair if isinstance(lattice, CnLattice) else type(lattice[0])


def removals_dict(report: NormalizationReport) -> dict:
    """The lines ``normalize`` stripped: a factorization's ``removed``."""
    return {
        "full_rows": list(report.removed_full_rows),
        "empty_rows": list(report.removed_empty_rows),
        "full_cols": list(report.removed_full_cols),
        "empty_cols": list(report.removed_empty_cols),
    }


# the proposition checkers of the ``check`` report, in row order; their
# unchecked bodies, as ``check_report`` claims each pair once
CHECKERS = {
    "fp1": check_fp1.__wrapped__,
    "fp2": check_fp2.__wrapped__,
    "fp3": check_fp3.__wrapped__,
    "fp4": check_fp4.__wrapped__,
    "fp5": interval_from_pair.__wrapped__,
}


def check_report(ctx: FuzzyContext, lattice: Lattice, selected, props) -> dict:
    """The ``check`` report: the context's preconditions, then per selected
    pair index a row with the pair and the checkers named in ``props``."""
    rows = []
    for i in selected:
        pair = lattice[i]
        _claim_member(ctx, pair)
        row = {"pair": i, **_plain(pair, ctx)}
        for name, checker in CHECKERS.items():
            if name in props:
                row[name] = _plain(checker(ctx, pair), ctx)
        rows.append(row)
    return {
        "type": "check",
        "preconditions": {
            "normalized": is_fuzzy_normalized(ctx),
            "top_normalized_rows": is_top_normalized(ctx, "rows"),
            "top_normalized_columns": is_top_normalized(ctx, "columns"),
            "godel_frame": all(t.is_godel for t in ctx.triples),
        },
        "pair_count": len(lattice),
        "rows": rows,
    }


def to_jsonable(obj) -> dict:
    """A result other than a lattice as plain JSON data with a stable key
    order; ``emit_json`` writes lattices without building such a tree."""
    if isinstance(obj, dict):
        return {"schema": SCHEMA, **obj} if "schema" not in obj else obj
    if isinstance(obj, BooleanContext):
        return {"schema": SCHEMA, "kind": "boolean", **_boolean_context_dict(obj)}
    if isinstance(obj, FuzzyContext):
        return {"schema": SCHEMA, "kind": "fuzzy", **_fuzzy_context_dict(obj)}
    if isinstance(obj, Factorization):
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
    if isinstance(obj, BlockBounds):
        return {"schema": SCHEMA, "type": "block-bounds", **_plain(obj)}
    if isinstance(obj, OracleReport):
        return {
            "checked": obj.checked,
            "mismatches": [list(w) for w in obj.mismatches],
        }
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


def _write(value, out: list[str], level: int = 0) -> None:
    """Append ``json.dumps(value, indent=2, ensure_ascii=False)`` to ``out``,
    ``level`` levels deep; only str, int, bool, None, list and dict with
    str keys have a JSON form, anything else raises ``TypeError``.  A
    scalar in a container shares one string with its separator and key."""
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


def _side_joiners(lattice: Lattice, encode) -> tuple[Callable, Callable]:
    """Name joiners for the objects and the attributes of a lattice's context."""
    ctx = lattice.context
    return _joiner(ctx.objects, encode), _joiner(ctx.attributes, encode)


def _element_bits(elements, element_type: type) -> tuple[list[int], list[int]]:
    """The object bits and the attribute bits of concepts or necessity
    pairs; a cn lattice has them without building its elements."""
    if isinstance(elements, CnLattice):
        return elements.element_bits
    first, second = (attrgetter(f.name + ".bits") for f in fields(element_type))
    return list(map(first, elements)), list(map(second, elements))


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


def _elements_json(lattice: Lattice) -> Callable[[Iterable, list[str]], None]:
    """A writer of lattice elements to ``out`` as a JSON list one level deep.

    Concept and cn lattice elements are one string each, joined from one
    pre-encoded fragment per name; graded elements go through ``_plain``.
    """
    element_type = _element_type(lattice)
    if element_type not in _SUBSET_PAIRS:
        return lambda elements, out: _write([_plain(e, lattice.context) for e in elements], out, 1)
    first, second = (_encode_str(f.name) for f in fields(element_type))
    element = "%s{\n      " + first + ": %s,\n      " + second + ": %s\n    }"
    objects, attributes = _side_joiners(lattice, lambda name: _NAME_INDENT + _encode_str(name))

    def write(elements, out):
        xs, ys = _element_bits(elements, element_type)
        sep = "[\n    "
        for xbits, ybits in zip(xs, ys):
            names, attrs = objects(xbits), attributes(ybits)
            out.append(element % (
                sep,
                "[%s\n      ]" % names if names else "[]",
                "[%s\n      ]" % attrs if attrs else "[]",
            ))
            sep = ",\n    "
        out.append("\n  ]" if xs else "[]")

    return write


def _write_covers(lattice: Lattice, out: list[str]) -> None:
    edges = _edges(lattice, "\n    [\n      %s,\n      %s\n    ]", ",")
    out.append("[" + edges + "\n  ]" if edges else "[]")


def _member(value) -> Callable[[list[str]], None]:
    """A writer of the JSON value ``value`` one level deep."""
    return functools.partial(_write, value, level=1)


def _lattice_members(lattice: Lattice) -> Iterator[tuple[str, Callable[[list[str]], None]]]:
    """A lattice document's members, each a key and a writer of its value."""
    kind, key = _LATTICE_KINDS[_element_type(lattice)]
    elements = _elements_json(lattice)
    yield "schema", _member(SCHEMA)
    yield "type", _member(kind)
    if isinstance(lattice, CnLattice):
        yield "pair_count", _member(lattice.pair_count)
        yield "materialized", _member(lattice.materialized)
        yield "atom_pairs", functools.partial(elements, lattice.atom_pairs)
        if not lattice.materialized:
            return
    yield key, functools.partial(elements, lattice)
    yield "covers", functools.partial(_write_covers, lattice)
    if isinstance(lattice, CnLattice):
        yield "atoms", _member(list(lattice.atoms))


def emit_json(result, oracle: OracleReport | None = None) -> str:
    """``result`` as an indented JSON document; ``oracle`` is its last member.

    The text is that of ``json.dumps(..., indent=2, ensure_ascii=False)``
    on the result's JSON data, but no tree is built for a lattice.
    """
    if isinstance(result, Lattice):
        members = _lattice_members(result)
    else:
        members = ((key, _member(value)) for key, value in to_jsonable(result).items())
    if oracle is not None:
        members = chain(members, [("oracle", _member(to_jsonable(oracle)))])
    out: list[str] = []
    sep = "{\n  "
    for key, write in members:
        out.append(sep + _key(key))
        write(out)
        sep = ",\n  "
    out.append("\n}\n")
    return "".join(out)


def _array(value, field: str) -> list:
    """``value``, the document's ``field``, if it is a JSON array."""
    if not isinstance(value, list):
        raise ContextFormatError(f"bad context document: {field} is not a JSON array")
    return value


def document_from_json(text: str) -> BooleanContext | FuzzyContext:
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
        attributes = _array(data["attributes"], "attributes")
        objects = _array(data["objects"], "objects")
        if kind == "boolean":
            rows = []
            for i, row in enumerate(_array(data["incidence"], "incidence")):
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
        triples = tuple(triple_from_descriptor(d) for d in _array(data["frames"], "frames"))
        kind_map = {k.value: k for k in FrameKind}
        arrangement = kind_map[data.get("arrangement", FrameKind.CONCEPT_FORMING.value)]
        p_chain = _arrangement(arrangement, *triples[0].domains)[2]
        relation = [
            [
                p_chain.numerator_of_fraction(_grade(v, f"relation[{i}][{j}]"))
                for j, v in enumerate(_array(row, f"relation[{i}]"))
            ]
            for i, row in enumerate(_array(data["relation"], "relation"))
        ]
        sigma = data.get("sigma")
        if sigma is not None:
            sigma = [_array(row, f"sigma[{i}]") for i, row in enumerate(_array(sigma, "sigma"))]
        return FuzzyContext(attributes, objects, triples, relation, sigma, arrangement)
    except ContextFormatError:
        raise
    except (ValueError, TypeError, LookupError, AttributeError, ArithmeticError) as exc:
        # JSONDecodeError is a ValueError; the rest come from fields of the
        # wrong shape or type
        raise ContextFormatError(f"bad context document: {exc!r}") from None


# ----------------------------------------------------------------------- DOT


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _graded_label(element, ctx) -> str:
    """A graded lattice element as a DOT label: its name:grade pairs per
    side in braces, the sides joined by ' | '."""
    return " | ".join(
        "{%s}" % ", ".join(f"{n}:{v}" for n, v in side.items())
        for side in _plain(element, ctx).values()
    )


def _lattice_dot_lines(lattice: Lattice, prefix="n", indent="  ") -> list[str]:
    """A node per element, labelled by its two sides, and an edge per cover."""
    len(lattice)  # raises for a cn lattice that is not materialized
    element_type = _element_type(lattice)
    if element_type in _SUBSET_PAIRS:
        objects, attributes = _side_joiners(lattice, _escape)
        labels = (
            "{%s} | {%s}" % (objects(xbits), attributes(ybits))
            for xbits, ybits in zip(*_element_bits(lattice, element_type))
        )
    else:
        labels = (_escape(_graded_label(e, lattice.context)) for e in lattice)
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
        kind, _ = _LATTICE_KINDS[_element_type(result)]
        lines.append(f"digraph {kind.replace('-', '_')} {{")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(result)
    elif isinstance(result, Factorization):
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
