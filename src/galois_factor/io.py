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
import io as _stdio
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .contexts import BooleanContext, ConceptLattice, FormalConcept
from .errors import ContextFormatError
from .factorization import BlockBounds, BlockMask, CnLattice, Factorization, NecessityPair
from .fuzzy import (
    FnLattice,
    FrameKind,
    FuzzyConceptLattice,
    FuzzyContext,
    FuzzyNecessityPair,
    MultiAdjointConcept,
)
from .grades import AdjointTriple, GradeChain, godel_triple, triple_from_descriptor
from .oracles import OracleReport

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
    count_text, line_no = next_content("object count")
    try:
        n_objects = int(count_text)
    except ValueError:
        raise ContextFormatError(f"bad object count {count_text!r}", line_no) from None
    count_text, line_no = next_content("attribute count")
    try:
        n_attributes = int(count_text)
    except ValueError:
        raise ContextFormatError(f"bad attribute count {count_text!r}", line_no) from None
    if n_objects <= 0:
        raise ContextFormatError("empty object set", line_no)
    if n_attributes <= 0:
        raise ContextFormatError("empty attribute set", line_no)

    objects = []
    for _ in range(n_objects):
        name, line_no = next_content("an object name")
        if name in objects:
            raise ContextFormatError(f"duplicate object name {name!r}", line_no)
        objects.append(name)
    attributes = []
    for _ in range(n_attributes):
        name, line_no = next_content("an attribute name")
        if name in attributes:
            raise ContextFormatError(f"duplicate attribute name {name!r}", line_no)
        attributes.append(name)

    rows = []  # object-major, as in the file
    for k in range(n_objects):
        row_text, line_no = next_content(f"incidence row for {objects[k]!r}")
        if len(row_text) != n_attributes:
            raise ContextFormatError(
                f"row has {len(row_text)} cells, expected {n_attributes}", line_no
            )
        row = []
        for ch in row_text:
            if ch in "Xx":
                row.append(True)
            elif ch == ".":
                row.append(False)
            else:
                raise ContextFormatError(f"bad incidence character {ch!r}", line_no)
        rows.append(row)

    incidence = tuple(
        tuple(rows[j][i] for j in range(n_objects)) for i in range(n_attributes)
    )
    return BooleanContext(tuple(attributes), tuple(objects), incidence)


def format_cxt(ctx: BooleanContext) -> str:
    """Render a context back to Burmeister form (objects as file rows)."""
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for j in range(len(ctx.objects)):
        out.append("".join("X" if ctx.incidence[i][j] else "." for i in range(len(ctx.attributes))))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------- fuzzy CSV


def resolve_frame(descriptor: str, values=None) -> AdjointTriple:
    """Turn a frame descriptor into a triple.

    A bare ``godel`` picks the smallest chain containing all the given
    relation values (Goedel operations never leave such a grid).
    """
    if ":" not in descriptor:
        if descriptor.strip().lower() == "godel" and values is not None:
            m = 1
            for v in values:
                m = math.lcm(m, Fraction(v).denominator)
            return godel_triple(GradeChain(m))
        raise ValueError(
            f"frame descriptor {descriptor!r} needs a granularity, e.g. 'godel:4'"
        )
    return triple_from_descriptor(descriptor)


def parse_fuzzy_csv(text: str, frame: str) -> FuzzyContext:
    """Parse a fuzzy relation grid.

    First row: corner label then object names; each further row: an
    attribute name then grades (decimals or fractions) on the frame's
    relation chain.
    """
    reader = csv.reader(_stdio.StringIO(text))
    table = [row for row in reader if any(cell.strip() for cell in row)]
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
        parsed = []
        for obj, cell in zip(objects, row[1:]):
            try:
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError):
                raise ContextFormatError(
                    f"cell ({name}, {obj}): cannot read grade {cell!r}", k
                ) from None
        cells.append(parsed)
    if not attributes:
        raise ContextFormatError("empty attribute set", 1)

    triple = resolve_frame(frame, [v for row in cells for v in row])
    p_chain = triple.domains[2]  # concept-forming arrangement: relation lives on P
    for k, (name, row) in enumerate(zip(attributes, cells), start=2):
        for obj, value in zip(objects, row):
            try:
                p_chain.numerator_of(value)
            except ValueError as exc:
                raise ContextFormatError(f"cell ({name}, {obj}): {exc}", k) from None
    return FuzzyContext.from_values(attributes, objects, triple, cells)


# ---------------------------------------------------------------------- JSON


def _fraction_str(num: int, m: int) -> str:
    return str(Fraction(num, m))


def _graded_dict(names, values, m) -> dict:
    return {name: _fraction_str(v, m) for name, v in zip(names, values)}


def _boolean_context_dict(ctx: BooleanContext) -> dict:
    return {
        "attributes": list(ctx.attributes),
        "objects": list(ctx.objects),
        "incidence": ["".join("X" if v else "." for v in row) for row in ctx.incidence],
    }


def _fuzzy_context_dict(ctx: FuzzyContext, frames: tuple[str, ...] | None) -> dict:
    out = {
        "frames": list(frames) if frames else [t.name for t in ctx.triples],
        "arrangement": ctx.kind.value,
        "attributes": list(ctx.attributes),
        "objects": list(ctx.objects),
        "relation": [
            [_fraction_str(v, ctx.p.m) for v in row] for row in ctx.relation
        ],
    }
    if ctx.sigma is not None:
        out["sigma"] = [list(row) for row in ctx.sigma]
    return out


def _concept_dict(c: FormalConcept) -> dict:
    return {"extent": list(c.extent.names), "intent": list(c.intent.names)}


def _pair_dict(p: NecessityPair) -> dict:
    return {"objects": list(p.objects.names), "attrs": list(p.attrs.names)}


def _fuzzy_concept_dict(ctx: FuzzyContext, c: MultiAdjointConcept) -> dict:
    return {
        "extent": _graded_dict(ctx.objects, c.extent.values, ctx.l2.m),
        "intent": _graded_dict(ctx.attributes, c.intent.values, ctx.l1.m),
    }


def fn_pair_dict(ctx: FuzzyContext, p: FuzzyNecessityPair) -> dict:
    """One entry of an fn lattice's ``pairs``, without serialising the rest."""
    return {
        "g": _graded_dict(ctx.objects, p.g.values, ctx.l2.m),
        "f": _graded_dict(ctx.attributes, p.f.values, ctx.l1.m),
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
    if isinstance(obj, ConceptLattice):
        return {
            "schema": SCHEMA,
            "type": "concept-lattice",
            "concepts": [_concept_dict(c) for c in obj.concepts],
            "covers": [list(e) for e in obj.covers],
        }
    if isinstance(obj, CnLattice):
        out = {
            "schema": SCHEMA,
            "type": "cn-lattice",
            "pair_count": obj.pair_count,
            "materialized": obj.materialized,
            "atom_pairs": [_pair_dict(p) for p in obj.atom_pairs],
        }
        if obj.materialized:
            out["pairs"] = [_pair_dict(p) for p in obj.pairs]
            out["covers"] = [list(e) for e in obj.covers]
            out["atoms"] = list(obj.atoms)
        return out
    if isinstance(obj, Factorization):
        rep = obj.reattached
        return {
            "schema": SCHEMA,
            "type": "factorization",
            "removed": {
                "full_rows": list(rep.removed_full_rows),
                "empty_rows": list(rep.removed_empty_rows),
                "full_cols": list(rep.removed_full_cols),
                "empty_cols": list(rep.removed_empty_cols),
            },
            "core": _boolean_context_dict(obj.core),
            "blocks": [
                {
                    "objects": list(b.objects.names),
                    "attributes": list(b.attrs.names),
                    "incidence": [
                        "".join("X" if v else "." for v in row)
                        for row in b.context.incidence
                    ],
                }
                for b in obj.blocks
            ],
        }
    if isinstance(obj, BlockMask):
        return {
            "schema": SCHEMA,
            "type": "block-mask",
            "mask": ["".join("X" if v else "." for v in row) for row in obj.mask],
        }
    if isinstance(obj, BlockBounds):
        return {
            "schema": SCHEMA,
            "type": "block-bounds",
            "pair": _pair_dict(obj.pair),
            "upper": None if obj.upper is None else _concept_dict(obj.upper),
            "upper_identified_with_top": obj.upper_identified_with_top,
            "lower": None if obj.lower is None else _concept_dict(obj.lower),
            "lower_identified_with_bottom": obj.lower_identified_with_bottom,
            "upper_is_coatom": obj.upper_is_coatom,
            "lower_within_upper": obj.lower_within_upper,
        }
    if isinstance(obj, FnLattice):
        return {
            "schema": SCHEMA,
            "type": "fn-lattice",
            "pairs": [fn_pair_dict(obj.context, p) for p in obj.pairs],
            "covers": [list(e) for e in obj.covers],
        }
    if isinstance(obj, FuzzyConceptLattice):
        return {
            "schema": SCHEMA,
            "type": "fuzzy-concept-lattice",
            "concepts": [_fuzzy_concept_dict(obj.context, c) for c in obj.concepts],
            "covers": [list(e) for e in obj.covers],
        }
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
    data = json.loads(text)
    if data.get("schema") != SCHEMA:
        raise ContextFormatError(f"unknown schema {data.get('schema')!r}")
    kind = data.get("kind")
    if kind == "boolean":
        incidence = tuple(
            tuple(ch in "Xx" for ch in row) for row in data["incidence"]
        )
        return ContextDocument(
            "boolean",
            BooleanContext(tuple(data["attributes"]), tuple(data["objects"]), incidence),
        )
    if kind == "fuzzy":
        frames = tuple(data["frames"])
        triples = tuple(triple_from_descriptor(d) for d in frames)
        kind_map = {k.value: k for k in FrameKind}
        arrangement = kind_map[data.get("arrangement", FrameKind.CONCEPT_FORMING.value)]
        ctx = FuzzyContext.from_values(
            tuple(data["attributes"]),
            tuple(data["objects"]),
            triples,
            [[Fraction(v) for v in row] for row in data["relation"]],
            sigma=data.get("sigma"),
            kind=arrangement,
        )
        return ContextDocument("fuzzy", ctx, frames)
    raise ContextFormatError(f"unknown document kind {kind!r}")


# ----------------------------------------------------------------------- DOT


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _bool_label(extent_names, intent_names) -> str:
    return "{%s} | {%s}" % (",".join(extent_names), ",".join(intent_names))


def _graded_label(names, values, m) -> str:
    return "{%s}" % ", ".join(
        f"{n}:{_fraction_str(v, m)}" for n, v in zip(names, values)
    )


def _lattice_dot_lines(name_of, count, covers, prefix="n", indent="  ") -> list[str]:
    lines = []
    for i in range(count):
        lines.append(f"{indent}{prefix}{i} [label={_quote(name_of(i))}];")
    for lower, upper in sorted(covers):
        lines.append(f"{indent}{prefix}{lower} -> {prefix}{upper};")
    return lines


def emit_dot(result) -> str:
    """Render a lattice (or a factorization, one cluster per block) as DOT.

    Edges point from each element to its upper covers, so the transitive
    closure of the digraph is exactly the lattice order.
    """
    lines = []
    if isinstance(result, ConceptLattice):
        lines.append("digraph concept_lattice {")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(
            lambda i: _bool_label(result[i].extent.names, result[i].intent.names),
            len(result),
            result.covers,
        )
    elif isinstance(result, CnLattice):
        pairs = list(result)
        lines.append("digraph cn_lattice {")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(
            lambda i: _bool_label(pairs[i].objects.names, pairs[i].attrs.names),
            len(pairs),
            result.covers,
        )
    elif isinstance(result, FnLattice):
        ctx = result.context
        lines.append("digraph fn_lattice {")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(
            lambda i: _graded_label(ctx.objects, result[i].g.values, ctx.l2.m)
            + " | "
            + _graded_label(ctx.attributes, result[i].f.values, ctx.l1.m),
            len(result),
            result.covers,
        )
    elif isinstance(result, FuzzyConceptLattice):
        ctx = result.context
        lines.append("digraph fuzzy_concept_lattice {")
        lines.append("  rankdir=BT;")
        lines += _lattice_dot_lines(
            lambda i: _graded_label(ctx.objects, result[i].extent.values, ctx.l2.m)
            + " | "
            + _graded_label(ctx.attributes, result[i].intent.values, ctx.l1.m),
            len(result),
            result.covers,
        )
    elif isinstance(result, Factorization):
        from .contexts import concepts as _concepts

        lines.append("digraph factorization {")
        lines.append("  rankdir=BT;")
        for k, block in enumerate(result.blocks):
            lattice = _concepts(block.context)
            lines.append(f"  subgraph cluster_{k} {{")
            label = "objects {%s} x attributes {%s}" % (
                ",".join(block.objects.names),
                ",".join(block.attrs.names),
            )
            lines.append(f"    label={_quote(label)};")
            lines += _lattice_dot_lines(
                lambda i: _bool_label(lattice[i].extent.names, lattice[i].intent.names),
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
