"""File formats and exporters.

Boolean contexts travel as Burmeister ``.cxt`` files, fuzzy contexts as
CSV grids with a frame descriptor (``godel:4``, ``lukasiewicz:4``,
``dprod:4,8,10``; plain ``godel`` auto-detects the granularity from the
values).  Results serialize to JSON with a fixed key order and to DOT
digraphs of the Hasse covers; identical inputs produce byte-identical
output.  Grades serialize as exact fraction strings, never as floats.
"""

from __future__ import annotations

import csv
import functools
import io as _stdio
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .contexts import (
    AttributeSubset,
    BooleanContext,
    FormalConcept,
    NormalizationReport,
    ObjectSubset,
    concepts,
)
from .errors import ContextFormatError
from .factorization import BlockBounds, BlockMask, CnLattice, Factorization, NecessityPair
from .fuzzy import (
    FrameKind,
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
    _claim_member,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    interval_from_pair,
    is_fuzzy_normalized,
    is_top_normalized,
)
from .grades import (
    MAX_GRANULARITY, AdjointTriple, GradeChain, godel_triple, read_grade,
    triple_from_descriptor,
)
from .oracles import OracleReport
from .order import DEFAULT_ENUM_BUDGET, Budget, Lattice

SCHEMA = "galois-factor/1"

__all__ = [
    "SCHEMA",
    "ContextDocument",
    "parse_cxt",
    "format_cxt",
    "parse_fuzzy_csv",
    "resolve_frame",
    "emit_json",
    "emit_dot",
    "document_from_json",
    "removals_dict",
    "CHECKERS",
    "check_report",
]


@dataclass(frozen=True)
class ContextDocument:
    """A parsed input: either a Boolean context or a fuzzy one with its frame."""

    kind: str  # "boolean" | "fuzzy"
    payload: BooleanContext | FuzzyContext
    frames: tuple[str, ...] | None = None  # descriptors, fuzzy only


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
        if len(row_text) != n_attributes:
            raise ContextFormatError(
                f"row has {len(row_text)} cells, expected {n_attributes}", line_no
            )
        for i, ch in enumerate(row_text):
            if ch in "Xx":
                rows[i] |= 1 << j
            elif ch != ".":
                raise ContextFormatError(f"bad incidence character {ch!r}", line_no)
    return BooleanContext(tuple(attributes), tuple(objects), tuple(rows))


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


def resolve_frame(descriptor: str, values=None) -> AdjointTriple:
    """Turn a frame descriptor into a triple.

    A bare ``godel`` picks the smallest chain containing all the given
    relation values (Goedel operations never leave such a grid); a chain
    finer than ``MAX_GRANULARITY`` raises ``ValueError``.
    """
    if ":" not in descriptor:
        if descriptor.strip().lower() == "godel" and values is not None:
            m = 1
            for v in values:
                m = math.lcm(m, Fraction(v).denominator)
                if m > MAX_GRANULARITY:
                    break  # GradeChain refuses it; stop before the lcm grows
            return godel_triple(GradeChain(m))
        raise ValueError(
            f"frame descriptor {descriptor!r} needs a granularity, e.g. 'godel:4'"
        )
    return triple_from_descriptor(descriptor)


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
        triple = resolve_frame(frame, [v for row in cells for v in row])
    except ValueError as exc:  # an unknown frame, or too fine a chain for the grades
        raise ContextFormatError(str(exc)) from None
    p_chain = triple.domains[2]  # concept-forming arrangement: relation lives on P
    for k, (name, row) in enumerate(zip(attributes, cells), start=2):
        for obj, value in zip(objects, row):
            try:
                p_chain.numerator_of(value)
            except ValueError as exc:
                raise ContextFormatError(f"cell ({name}, {obj}): {exc}", k) from None
    return FuzzyContext.from_values(attributes, objects, triple, cells)


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


def _fuzzy_context_dict(ctx: FuzzyContext, frames: tuple[str, ...] | None) -> dict:
    out = {
        "frames": list(frames) if frames else [t.name for t in ctx.triples],
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


def _lattice_kind(lattice: Lattice) -> tuple[str, str]:
    # a cn lattice beyond its atom cutoff has no elements to look at
    element_type = NecessityPair if isinstance(lattice, CnLattice) else type(lattice[0])
    return _LATTICE_KINDS[element_type]


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
            "godel_frame": all(t.name.startswith("godel") for t in ctx.triples),
        },
        "pair_count": len(lattice),
        "rows": rows,
    }


def to_jsonable(obj) -> dict:
    """Convert a result object to plain JSON data with a stable key order."""
    if isinstance(obj, dict):
        return {"schema": SCHEMA, **obj} if "schema" not in obj else obj
    if isinstance(obj, ContextDocument):
        body = (
            _boolean_context_dict(obj.payload)
            if obj.kind == "boolean"
            else _fuzzy_context_dict(obj.payload, obj.frames)
        )
        return {"schema": SCHEMA, "kind": obj.kind, **body}
    if isinstance(obj, BooleanContext):
        return {"schema": SCHEMA, "kind": "boolean", **_boolean_context_dict(obj)}
    if isinstance(obj, FuzzyContext):
        return {"schema": SCHEMA, "kind": "fuzzy", **_fuzzy_context_dict(obj, None)}
    if isinstance(obj, Lattice):
        kind, key = _lattice_kind(obj)
        out = {"schema": SCHEMA, "type": kind}
        if isinstance(obj, CnLattice):
            out["pair_count"] = obj.pair_count
            out["materialized"] = obj.materialized
            out["atom_pairs"] = [_plain(p) for p in obj.atom_pairs]
            if not obj.materialized:
                return out
        out[key] = [_plain(e, obj.context) for e in obj]
        out["covers"] = [list(e) for e in obj.covers]
        if isinstance(obj, CnLattice):
            out["atoms"] = list(obj.atoms)
        return out
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
    if isinstance(obj, BlockMask):
        return {
            "schema": SCHEMA,
            "type": "block-mask",
            "mask": _cell_rows(obj.rows, len(obj.context.objects)),
        }
    if isinstance(obj, BlockBounds):
        return {"schema": SCHEMA, "type": "block-bounds", **_plain(obj)}
    if isinstance(obj, OracleReport):
        return {
            "checked": obj.checked,
            "mismatches": [list(w) for w in obj.mismatches],
        }
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def emit_json(result) -> str:
    return json.dumps(to_jsonable(result), indent=2, ensure_ascii=False) + "\n"


def document_from_json(text: str) -> ContextDocument:
    """Inverse of ``emit_json`` on documents."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ContextFormatError("a context document is a JSON object")
        if data.get("schema") != SCHEMA:
            raise ContextFormatError(f"unknown schema {data.get('schema')!r}")
        kind = data.get("kind")
        if kind == "boolean":
            ctx = BooleanContext.from_rows(
                data["attributes"],
                data["objects"],
                [[ch in "Xx" for ch in row] for row in data["incidence"]],
            )
            return ContextDocument("boolean", ctx)
        if kind == "fuzzy":
            frames = tuple(data["frames"])
            triples = tuple(triple_from_descriptor(d) for d in frames)
            kind_map = {k.value: k for k in FrameKind}
            arrangement = kind_map[data.get("arrangement", FrameKind.CONCEPT_FORMING.value)]
            ctx = FuzzyContext.from_values(
                tuple(data["attributes"]),
                tuple(data["objects"]),
                triples,
                [
                    [_grade(v, f"relation[{i}][{j}]") for j, v in enumerate(row)]
                    for i, row in enumerate(data["relation"])
                ],
                sigma=data.get("sigma"),
                kind=arrangement,
            )
            return ContextDocument("fuzzy", ctx, frames)
    except ContextFormatError:
        raise
    except (ValueError, TypeError, LookupError, AttributeError, ArithmeticError) as exc:
        # JSONDecodeError is a ValueError; the rest come from fields of the
        # wrong shape or type
        raise ContextFormatError(f"bad context document: {exc!r}") from None
    raise ContextFormatError(f"unknown document kind {kind!r}")


# ----------------------------------------------------------------------- DOT


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _label(element, ctx=None) -> str:
    """A lattice element as a DOT label: each side in braces, joined by ' | '."""
    sides = []
    for side in _plain(element, ctx).values():
        if isinstance(side, dict):  # graded: name:grade pairs
            sides.append("{%s}" % ", ".join(f"{n}:{v}" for n, v in side.items()))
        else:
            sides.append("{%s}" % ",".join(side))
    return " | ".join(sides)


def _lattice_dot_lines(name_of, count, covers, prefix="n", indent="  ") -> list[str]:
    lines = []
    for i in range(count):
        lines.append(f"{indent}{prefix}{i} [label={_quote(name_of(i))}];")
    for lower, upper in sorted(covers):
        lines.append(f"{indent}{prefix}{lower} -> {prefix}{upper};")
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
        kind, _ = _lattice_kind(result)
        lines.append(f"digraph {kind.replace('-', '_')} {{")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(
            lambda i: _label(result[i], result.context), len(result), result.covers
        )
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
            lines.append(f"    label={_quote(label)};")
            lines += _lattice_dot_lines(
                lambda i: _label(lattice[i]),
                len(lattice),
                lattice.covers,
                prefix=f"b{k}_n",
                indent="    ",
            )
            lines.append("  }")
    else:
        raise TypeError(f"no DOT form for {type(result).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"
