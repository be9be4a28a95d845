"""The fuzzy formats, which ``io`` loads when one of their names is first read.

Fuzzy contexts travel as CSV grids with a frame descriptor (``godel:4``,
``lukasiewicz:4``, ``dprod:4,8,10``; plain ``godel`` auto-detects the
granularity from the values).  Contexts are also JSON documents, and a
document is read back as the ``BooleanContext`` or ``FuzzyContext`` itself:
``document_from_json`` inverts ``emit_json`` on every context it writes, and
refuses a document whose list fields are not JSON arrays.  A Boolean
document's incidence rows are strings of ``X``, ``x`` or ``.`` cells, one
per object, read as strictly as the rows of a ``.cxt`` file.  A fuzzy
document names its frame by its triples' names, so writing a triple whose
name is not a descriptor that rebuilds it raises ``ValueError``.  Each grade
cell is read once, and a CSV grid reads each distinct spelling once.

A ``check`` report's rows are ``_Text``.  The skeleton of a row, every leaf
a NUL marker, is written once per report by ``_write`` at the row's level
and made a ``%`` template, so each row is one ``template % leaves``: its
pair index, ``true``/``false`` and grade strings encoded once per report,
read off its pair's keys and one ``fuzzy._checks`` evaluation, which takes
each operator image once and trusts ``fn_enumerate``'s pairs to be members.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from fractions import Fraction
from typing import Callable

from . import fuzzy as fy, grades, order
from .contexts import BooleanContext, _check_names
from .errors import BudgetExceededError, ContextFormatError
from .io import SCHEMA, _encode_str, _grade_strings, _row_bits, _separators, _Text, _write


def read_grade(value) -> Fraction:
    """``grades.read_grade`` under this module's own name, which the CSV parser calls."""
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


def check_report(ctx: fy.FuzzyContext, lattice: order.Lattice, selected, props) -> dict:
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
