import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from galois_factor import (
    BooleanContext,
    ContextFormatError,
    FormalConcept,
    NecessityPair,
    concepts,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
    normalize,
    rstar,
)
from galois_factor import fuzzy_io, grades
from galois_factor import io as fio
from galois_factor.cli import main
from galois_factor.io import (
    document_from_json,
    emit_dot,
    emit_json,
    format_cxt,
    parse_cxt,
    parse_fuzzy_csv,
)
from galois_factor.order import key_le
from tables import (
    DIAG2,
    HUGE_EXPONENTS,
    LUKASIEWICZ_32_CSV,
    TABLE1,
    TABLE2,
    WIDE_GODEL_CSV,
    fraction_refusing,
    godel_r2,
    twin_check_tree,
)

# Transposed by hand from the 6x6 relation: file rows are objects
TABLE1_CXT = """B

6
6

b1
b2
b3
b4
b5
b6
a1
a2
a3
a4
a5
a6
..X...
X.....
X...X.
XX....
...X.X
...X..
"""

R2_GODEL_CSV = """R,b1,b2,b3
a1,1,0.25,0
a2,0.5,1,0
a3,0,0,1
"""

TABLE3_LUK_CSV = """R,b1,b2
a1,0.5,0
a2,0,0.75
"""


DIAG21 = BooleanContext.from_rows(
    [f"a{i}" for i in range(21)],
    [f"b{j}" for j in range(21)],
    [[int(i == j) for j in range(21)] for i in range(21)],
)


def refuse_tables(chain):
    raise AssertionError(f"a triple on {chain} was built")


# the options each subcommand reads; any other is refused
SUBCOMMAND_FLAGS = {
    "lattice": {"emit", "out", "oracle", "budget", "frame"},
    "cn": {"emit", "out", "oracle"},
    "factor": {"emit", "out", "oracle", "budget"},
    "fn": {"emit", "out", "oracle", "budget", "frame"},
    "check": {"out", "budget", "frame", "props", "pairs"},
    "reconstruct": {"out"},
}
FLAG_ARGV = {
    "emit": ["--emit", "dot"],
    "out": ["--out", "unused.json"],
    "oracle": ["--oracle"],
    "budget": ["--budget", "1"],
    "frame": ["--frame", "x:1"],
    "props": ["--props", "fp1"],
    "pairs": ["--pairs", "0"],
}


# not normalized: every necessity-closed pair holds the empty row a3
EMPTY_ROW = BooleanContext.from_rows(
    ["a1", "a2", "a3"], ["b1", "b2"], [[1, 0], [0, 1], [0, 0]]
)


def one_error(capsys) -> str:
    """The one ``error:`` line a refusal writes, with nothing on stdout."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# a Burmeister file whose second line names the context
NAMED_CXT = "B\nmyctx\n2\n2\n\nb1\nb2\na1\na2\nX.\n.X\n"


class TestCxtParsing:
    def test_table1_round_trip(self):
        ctx = parse_cxt(TABLE1_CXT)
        assert ctx == TABLE1
        assert ctx.incidence_count() == 9
        assert parse_cxt(format_cxt(ctx)) == ctx

    def test_table2_shape(self):
        ctx = parse_cxt(format_cxt(TABLE2))
        assert len(ctx.attributes) == 8 and len(ctx.objects) == 7
        assert ctx == TABLE2

    def test_malformed_header(self):
        with pytest.raises(ContextFormatError) as err:
            parse_cxt("Q\n\n1\n1\n\nb\na\nX\n")
        assert "line 1" in str(err.value)

    def test_zero_objects_rejected(self):
        with pytest.raises(ContextFormatError) as err:
            parse_cxt("B\n\n0\n2\n\na1\na2\n")
        assert "empty object set" in str(err.value)

    def test_row_length_mismatch_with_line_number(self):
        bad = "B\n\n2\n2\n\nb1\nb2\na1\na2\nX.\nX\n"
        with pytest.raises(ContextFormatError) as err:
            parse_cxt(bad)
        assert "line 11" in str(err.value)

    def test_duplicate_name_with_line_number(self):
        bad = "B\n\n2\n1\n\nb1\nb1\na1\nX\nX\n"
        with pytest.raises(ContextFormatError) as err:
            parse_cxt(bad)
        assert "duplicate object name" in str(err.value)

    def test_bad_incidence_character(self):
        bad = "B\n\n1\n1\n\nb1\na1\n?\n"
        with pytest.raises(ContextFormatError):
            parse_cxt(bad)

    def test_named_context(self):
        # the line after B is the context's name, read and ignored
        ctx = parse_cxt(NAMED_CXT)
        assert ctx == BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 0], [0, 1]])
        assert parse_cxt(NAMED_CXT.replace("myctx", "")) == ctx

    @pytest.mark.parametrize("count", ["+2", "1_0", "\u0662", "-1", " 2x"])
    def test_counts_in_ascii_digits_only(self, count):
        # int() reads "+2" and ARABIC-INDIC DIGIT TWO as 2, and "1_0" as 10
        for kind, text in (
            ("object", f"B\n\n{count}\n1\n"),
            ("attribute", f"B\n\n1\n{count}\n"),
        ):
            with pytest.raises(ContextFormatError) as err:
                parse_cxt(text)
            assert f"bad {kind} count {count.strip()!r}" in str(err.value)

    def test_empty_core_is_not_written(self):
        # the core of a full 1x1 context has neither objects nor attributes
        core = normalize(BooleanContext.from_rows(["a1"], ["b1"], [[1]])).core
        assert core.objects == () and core.attributes == ()
        with pytest.raises(ValueError, match="no objects and no attributes"):
            format_cxt(core)

    def test_context_without_attributes_is_not_written(self):
        with pytest.raises(ValueError, match="no attributes$"):
            format_cxt(BooleanContext((), ("b1",), ()))


GRID_CELLS = ["0", "1/4", "0.5", "3/4", "1"]
GRID_7X6_CSV = "R," + ",".join(f"b{j}" for j in range(6)) + "\n" + "".join(
    f"a{i}," + ",".join(GRID_CELLS[(i + j) % 5] for j in range(6)) + "\n" for i in range(7)
)


def count_grade_reads(monkeypatch) -> list:
    """Record every ``read_grade`` call; fuzzy_io holds its own name for it."""
    calls = []
    read_grade = grades.read_grade

    def counted(value):
        calls.append(value)
        return read_grade(value)

    monkeypatch.setattr(grades, "read_grade", counted)
    monkeypatch.setattr(fuzzy_io, "read_grade", counted)
    return calls


class TestFuzzyCsvParsing:
    def test_table6_with_godel_frame(self):
        ctx = parse_fuzzy_csv(R2_GODEL_CSV, "godel:4")
        assert ctx == godel_r2()

    def test_table3_with_lukasiewicz_frame(self):
        ctx = parse_fuzzy_csv(TABLE3_LUK_CSV, "lukasiewicz:4")
        assert len(ctx.attributes) == 2 and len(ctx.objects) == 2
        assert ctx.relation == ((2, 0), (0, 3))

    def test_off_grid_cell_names_neighbours(self):
        bad = "R,b1,b2\na1,0.3,0\na2,0,1\n"
        with pytest.raises(ContextFormatError) as err:
            parse_fuzzy_csv(bad, "godel:4")
        message = str(err.value)
        assert "a1" in message and "b1" in message
        assert "0.25" in message and "0.5" in message

    def test_unknown_frame(self):
        with pytest.raises(ValueError):
            parse_fuzzy_csv(R2_GODEL_CSV, "sillyframe:4")

    def test_godel_autodetects_granularity(self):
        ctx = parse_fuzzy_csv(R2_GODEL_CSV, "godel")
        assert ctx.p.m == 4
        assert ctx == godel_r2()

    def test_fractions_accepted(self):
        ctx = parse_fuzzy_csv("R,b1\na1,1/4\na2,1\n", "godel:4")
        assert ctx.relation == ((1,), (4,))

    def test_spellings_of_one_grade_read_alike(self):
        ctx = parse_fuzzy_csv("R,b1,b2\na1,0.5,1/2\na2,1,0.50\na3,1/2,0.5\n", "godel:2")
        assert ctx.relation == ((1, 1), (2, 1), (1, 1))

    # each spelling and each grade is read once per parse; a failure is not
    # remembered, so a value that repeats fails at its first cell
    def test_a_repeated_unreadable_spelling_names_its_first_cell(self):
        text = "R,b1,b2,b3\na1,1,0,1\na2,0,x,x\na3,x,1,0\n"
        with pytest.raises(ContextFormatError, match=r"^line 3: cell \(a2, b2\)") as err:
            parse_fuzzy_csv(text, "godel:4")
        assert err.value.line == 3

    def test_a_repeated_off_grid_value_names_its_first_cell(self):
        text = "R,b1,b2,b3\na1,1,0,1\na2,0,0.3,0.3\na3,3/10,1,0\n"
        with pytest.raises(ContextFormatError, match=r"^line 3: cell \(a2, b2\)") as err:
            parse_fuzzy_csv(text, "godel:4")
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("R,,b2\na1,1,0\na2,0,1\n", 1),  # an empty object name
            ('R,"b\n1",b2\na1,1,0\na2,0,1\n', 1),  # a two-line object name
            ("R,b1,b2\n,1,0\na2,0,1\n", 2),  # an empty attribute name
            ("R,b1,b2\na1,1,0\n\"a\r2\",0,1\n", 3),  # a two-line attribute name
        ],
    )
    def test_names_follow_the_context_rule(self, text, line):
        with pytest.raises(ContextFormatError, match="not one unpadded non-empty line") as err:
            parse_fuzzy_csv(text, "godel:1")
        assert err.value.line == line

    # an off-chain cell fails once the frame is built, an unreadable one
    # while the grades are read
    @pytest.mark.parametrize("cell", ["0.3", "x", "0.2_5", "1_0", "1_0/2_0", "1/ 2", "1 /2"])
    @pytest.mark.parametrize(
        "text",
        [
            "R,b1,b2\n\n\na1,{},1\na2,0,1\n",  # blank lines above the row
            'R,b1,b2\na0,"1\n",0\na1,{},1\n',  # a two-line cell in the row above
            "\r\nR,b1,b2\r\n\r\na1,{},1\r\n",  # blank lines above the header
        ],
    )
    def test_cell_errors_name_the_line_the_row_starts_on(self, text, cell):
        with pytest.raises(ContextFormatError, match=r"^line 4: cell \(a1, b1\)") as err:
            parse_fuzzy_csv(text.format(cell), "godel:4")
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("R,b1\n\na1,0,1\n", 3, "row has 2 cells"),
            ("\n\nR,b1,b1\na1,0,1\n", 3, "duplicate object names"),
            ("\n\nR\na1\n", 3, "empty object set"),
        ],
    )
    def test_row_errors_name_the_line_the_row_starts_on(self, text, line, message):
        with pytest.raises(ContextFormatError, match=message) as err:
            parse_fuzzy_csv(text, "godel:4")
        assert err.value.line == line

    def test_duplicate_attribute_name_with_line_number(self):
        text = "R,b1,b2\na1,0,1\n\na1,1,0\n"
        with pytest.raises(ContextFormatError, match="^line 4: duplicate attribute name") as err:
            parse_fuzzy_csv(text, "godel:4")
        assert err.value.line == 4

    @pytest.mark.parametrize("cell", HUGE_EXPONENTS)
    def test_huge_exponent_refused_before_fraction(self, cell, monkeypatch):
        monkeypatch.setattr(grades, "Fraction", fraction_refusing(cell))
        with pytest.raises(ContextFormatError, match=r"line 2: cell \(a1, b1\): .*exponent"):
            parse_fuzzy_csv(f"R,b1\na1,{cell}\n", "godel:4")

    def test_cell_length_bound(self):
        longest = "0.25" + "0" * 60
        assert parse_fuzzy_csv(f"R,b1\na1,{longest}\n", "godel:4").relation == ((1,),)
        with pytest.raises(ContextFormatError, match="grade of 65 characters"):
            parse_fuzzy_csv(f"R,b1\na1,{longest}0\n", "godel:4")

    @pytest.mark.parametrize("cell", ["1/257", "1/3000", "1/99999999"])
    def test_autodetected_granularity_is_capped(self, cell, monkeypatch):
        monkeypatch.setattr(grades, "godel_triple", refuse_tables)
        with pytest.raises(ContextFormatError, match="between 1 and 256"):
            parse_fuzzy_csv(f"R,b1\na1,{cell}\n", "godel")

    def test_autodetected_granularity_stops_at_the_first_lcm_over_the_cap(self):
        # 2 * 3 * 5 * 7 * 11 = 2310; the cells after 1/11 are not folded in
        cells = ",".join(f"1/{p}" for p in (2, 3, 5, 7, 11, 13, 17))
        header = ",".join(f"b{j}" for j in range(7))
        with pytest.raises(ContextFormatError, match="got 2310$"):
            parse_fuzzy_csv(f"R,{header}\na1,{cells}\n", "godel")

    def test_autodetected_granularity_at_the_cap(self):
        assert parse_fuzzy_csv("R,b1,b2\na1,1/256,1/2\n", "godel").p.m == 256

    def test_each_cell_is_read_once(self, monkeypatch):
        # at most once: the 42 cells share the one read of their spelling
        calls = count_grade_reads(monkeypatch)
        ctx = parse_fuzzy_csv(GRID_7X6_CSV, "dprod:4,4,4")
        assert ctx.relation[1] == (1, 2, 3, 4, 0, 1)
        assert calls == GRID_CELLS

    def test_off_chain_cell_messages(self):
        expected = (
            "value 1/3 is not on chain [0,1]_4; nearest grid points are 0.25 (1/4) and 0.5 (1/2)"
        )
        with pytest.raises(ContextFormatError) as csv_error:
            parse_fuzzy_csv("R,b1,b2\na1,1/3,1\n", "godel:4")
        assert str(csv_error.value) == f"line 2: cell (a1, b1): {expected}"
        doc = json.loads(emit_json(parse_fuzzy_csv("R,b1,b2\na1,1/4,1\n", "godel:4")))
        doc["relation"][0][0] = "1/3"
        with pytest.raises(ContextFormatError) as json_error:
            document_from_json(json.dumps(doc))
        assert str(json_error.value) == f"relation[0][0]: {expected}"

    def test_frame_granularity_is_capped(self, monkeypatch):
        monkeypatch.setattr(grades, "godel_triple", refuse_tables)
        with pytest.raises(ContextFormatError, match="between 1 and 256"):
            parse_fuzzy_csv(R2_GODEL_CSV, "godel:99999999")


class TestJson:
    def test_boolean_document_round_trip(self):
        text = emit_json(TABLE1)
        assert document_from_json(text) == TABLE1
        assert emit_json(TABLE1) == text  # byte-identical across runs

    def test_each_document_cell_is_read_once(self, monkeypatch):
        doc = json.loads(emit_json(parse_fuzzy_csv(GRID_7X6_CSV, "dprod:4,4,4")))
        doc["relation"] = [row.split(",")[1:] for row in GRID_7X6_CSV.splitlines()[1:]]
        calls = count_grade_reads(monkeypatch)
        ctx = document_from_json(json.dumps(doc))
        assert ctx.relation[1] == (1, 2, 3, 4, 0, 1)
        assert len(calls) == 42

    def test_fuzzy_document_round_trip(self):
        assert document_from_json(emit_json(godel_r2())) == godel_r2()

    def test_two_triple_document_round_trip(self):
        from galois_factor import FuzzyContext, GradeChain, godel_triple, lukasiewicz_triple

        chain = GradeChain(4)
        ctx = FuzzyContext.from_values(
            ["a1", "a2"],
            ["b1"],
            (godel_triple(chain), lukasiewicz_triple(chain)),
            [["0.75"], ["0.5"]],
            sigma=[[0], [1]],
        )
        rebuilt = document_from_json(emit_json(ctx))
        assert rebuilt == ctx
        assert rebuilt.sigma == ((0,), (1,))

    def test_rstar_document_reads_back_as_a_context(self):
        mask = rstar(TABLE1)
        payload = json.loads(emit_json(mask))
        assert payload["kind"] == "boolean"
        assert payload["incidence"][2] == "X....."  # a3 against its block b1
        assert document_from_json(emit_json(mask)) == mask

    @pytest.mark.parametrize("name", ["derived", "godel:4", "godel", "dprod:4,4,4"])
    def test_a_triple_its_name_does_not_rebuild_is_not_written(self, name):
        luk = grades.lukasiewicz_triple(grades.GradeChain(4))
        ctx = dataclasses.replace(godel_r2(), triples=(dataclasses.replace(luk, name=name),))
        with pytest.raises(ValueError, match="cannot be written"):
            emit_json(ctx)

    def test_descriptor_spelling_reads_back_and_writes_in_lower_case(self):
        doc = json.loads(emit_json(godel_r2()))
        doc["frames"] = ["GODEL:4"]
        ctx = document_from_json(json.dumps(doc))
        assert ctx == godel_r2()
        assert json.loads(emit_json(ctx))["frames"] == ["godel:4"]

    def test_grades_serialize_as_fractions(self):
        payload = json.loads(emit_json(godel_r2()))
        assert payload["relation"][0] == ["1", "1/4", "0"]
        assert payload["schema"] == "galois-factor/1"

    def test_lattice_payload_shape(self):
        payload = json.loads(emit_json(concepts(TABLE1)))
        assert payload["type"] == "concept-lattice"
        assert len(payload["concepts"]) == 8
        assert len(payload["covers"]) == 10

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"schema": "galois-factor/1", "kind": "boolean", "attributes": [], "objects": []}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b"], "incidence": ["X."]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": [" a"], "objects": ["b"], "incidence": ["X"]}',
            # a fuzzy document's names follow the same rule
            '{"schema": "galois-factor/1", "kind": "fuzzy", "frames": ["godel:1"],'
            ' "attributes": [""], "objects": ["b"], "relation": [["1"]]}',
            '{"schema": "galois-factor/1", "kind": "fuzzy", "frames": ["godel:1"],'
            ' "attributes": [" a "], "objects": ["b"], "relation": [["1"]]}',
            '{"schema": "galois-factor/1", "kind": "fuzzy", "frames": ["godel:1"],'
            ' "attributes": ["a"], "objects": ["b\\n1"], "relation": [["1"]]}',
            # each row is a string of X, x or . cells, one per object
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": ["X?"]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": [["X", ""]]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": [["Xx", "X"]]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": ["X"]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": ["X.x"]}',
            '{"schema": "galois-factor/1", "kind": "boolean",'
            ' "attributes": ["a"], "objects": ["b", "c"], "incidence": ["1."]}',
            # nesting too deep for the JSON decoder
            "[" * 100_000,
            '{"a":' * 100_000,
            '{"schema": "galois-factor/1", "kind": "boolean", "attributes": '
            + "[" * 50_000 + "]" * 50_000 + ', "objects": ["b"], "incidence": ["X"]}',
        ],
        ids=lambda text: text if len(text) < 200 else f"{text[:20]}...({len(text)} chars)",
    )
    def test_malformed_documents_raise_context_format_error(self, text):
        with pytest.raises(ContextFormatError):
            document_from_json(text)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("boolean", "attributes", "ab"),
            ("boolean", "objects", {"b1": 0}),
            ("boolean", "incidence", "X....."),
            ("fuzzy", "frames", "godel:4"),
            ("fuzzy", "attributes", "a1a2a3"),
            ("fuzzy", "objects", None),
            ("fuzzy", "relation", "1,1/4,0"),
            ("fuzzy", "relation[1]", "1/2,1,3/4"),
            ("fuzzy", "sigma", 0),
            ("fuzzy", "sigma[0]", "000"),
        ],
    )
    def test_fields_that_are_not_arrays_are_refused(self, kind, field, value):
        if kind == "boolean":
            doc = json.loads(emit_json(TABLE1))
        else:
            doc = json.loads(emit_json(godel_r2()))
            doc["sigma"] = [[0] * 3] * 3
        key, _, index = field.partition("[")
        if index:
            doc[key][int(index[:-1])] = value
        else:
            doc[key] = value
        with pytest.raises(ContextFormatError, match=rf"{re.escape(field)} is not a JSON array"):
            document_from_json(json.dumps(doc))

    @pytest.mark.parametrize("cell", HUGE_EXPONENTS)
    def test_huge_exponent_refused_before_fraction(self, cell, monkeypatch):
        monkeypatch.setattr(grades, "Fraction", fraction_refusing(cell))
        doc = json.loads(emit_json(godel_r2()))
        doc["relation"][1][2] = cell
        with pytest.raises(ContextFormatError, match=r"relation\[1\]\[2\]: .*exponent"):
            document_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("fuzzy", "frames", [], "bad context document: frames is empty"),
            (
                "fuzzy", "arrangement", "sideways",
                "bad context document: arrangement: 'sideways' is not a valid FrameKind",
            ),
            ("boolean", "incidence", None, "bad context document: incidence is missing"),
            ("boolean", "attributes", None, "bad context document: attributes is missing"),
            ("boolean", "objects", None, "bad context document: objects is missing"),
            ("fuzzy", "frames", None, "bad context document: frames is missing"),
            ("fuzzy", "relation", None, "bad context document: relation is missing"),
            ("fuzzy", "objects", None, "bad context document: objects is missing"),
            (
                "fuzzy", "relation", [["1/3", "1"]],
                "relation[0][0]: value 1/3 is not on chain [0,1]_4;"
                " nearest grid points are 0.25 (1/4) and 0.5 (1/2)",
            ),
            ("fuzzy", "frames", [4], "bad context document: frames[0] is not a string"),
            (
                "fuzzy", "frames", ["godel:4", "nope:4"],
                "bad context document: frames[1]: unknown frame name 'nope'"
                " (expected godel, lukasiewicz or dprod)",
            ),
            (
                "fuzzy", "frames", ["godel"],
                "bad context document: frames[0]: frame descriptor 'godel' needs a"
                " granularity, e.g. 'godel:4'",
            ),
            (
                "fuzzy", "sigma", [[0, 3]],
                "bad context document: sigma[0][1]: index 3 is not an int in range 0..0",
            ),
            (
                "fuzzy", "sigma", [[0]],
                "bad context document: sigma[0] must have one entry per object",
            ),
            (
                "fuzzy", "sigma", [[0, 0], [0, 0]],
                "bad context document: sigma must have one row per attribute",
            ),
        ],
    )
    def test_refusals_name_their_field_or_cell(self, kind, field, value, message):
        if kind == "boolean":
            doc = json.loads(emit_json(DIAG2))
        else:
            doc = json.loads(emit_json(parse_fuzzy_csv("R,b1,b2\na1,1/4,1\n", "godel:4")))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(ContextFormatError) as refusal:
            document_from_json(json.dumps(doc))
        assert str(refusal.value) == message

    def test_unknown_schema_rejected(self):
        with pytest.raises(ContextFormatError):
            document_from_json('{"schema": "elsewhere/9", "kind": "boolean"}')
        with pytest.raises(ContextFormatError):
            document_from_json('{"schema": "galois-factor/1", "kind": "mystery"}')


def dot_edges(text):
    edges = set()
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if "->" in line:
            left, right = [part.strip() for part in line.split("->")]
            edges.add((left, right))
    return edges


def dot_nodes(text):
    return {
        line.strip().split(" ", 1)[0]
        for line in text.splitlines()
        if "[label=" in line
    }


class TestDot:
    def test_table1_lattice_dot(self):
        lattice = concepts(TABLE1)
        text = emit_dot(lattice)
        assert len(dot_nodes(text)) == 8
        assert len(dot_edges(text)) == 10
        assert emit_dot(lattice) == text

    def test_dot_transitive_closure_equals_lattice_order(self):
        lattice = concepts(TABLE1)
        edges = {
            (int(l[1:]), int(u[1:])) for l, u in dot_edges(emit_dot(lattice))
        }
        # reachability via cover edges must equal the full order
        reach = {i: {i} for i in range(len(lattice))}
        changed = True
        while changed:
            changed = False
            for l, u in edges:
                new = reach[u] - reach[l]
                if new:
                    reach[l] |= new
                    changed = True
        for i in range(len(lattice)):
            for j in range(len(lattice)):
                assert (j in reach[i]) == key_le(lattice.keys[0][i], lattice.keys[0][j])

    def test_fuzzy_lattice_dot_has_seven_nodes(self):
        text = emit_dot(fuzzy_concepts(godel_r2()))
        assert len(dot_nodes(text)) == 7

    def test_single_block_factorization_dot(self):
        connected = BooleanContext.from_rows(
            ["a1", "a2", "a3"], ["b1", "b2", "b3"], [[1, 1, 0], [0, 1, 1], [1, 0, 0]]
        )
        text = emit_dot(factorize(connected))
        assert text.count("subgraph cluster_") == 1

    def test_fn_lattice_dot(self):
        text = emit_dot(fn_enumerate(godel_r2()))
        assert "fn_lattice" in text


class TestCli:
    def test_lattice_json(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["concepts"]) == 8

    def test_lattice_on_a_named_cxt_file(self, tmp_path, capsys):
        path = write(tmp_path, "named.cxt", NAMED_CXT)
        assert main(["lattice", path]) == 0
        assert len(json.loads(capsys.readouterr().out)["concepts"]) == 4

    @pytest.mark.parametrize("name, text, argv", [
        ("table1.cxt", TABLE1_CXT, ["lattice"]),
        ("r2.csv", R2_GODEL_CSV, ["check", "--frame", "godel:4"]),
    ])
    def test_a_byte_order_mark_changes_nothing(self, tmp_path, capsys, name, text, argv):
        # editors on Windows save UTF-8 with a BOM, which is not part of line 1
        outs = []
        for bom in ("", "\ufeff"):
            assert main([argv[0], write(tmp_path, name, bom + text), *argv[1:]]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != ""

    def test_factor_reports_exact_reconstruction(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["factor", path, "--emit", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["blocks"]) == 3
        assert payload["reconstruction"] == "exact"
        assert payload["rstar"] is not None

    def test_factor_beyond_the_cn_atom_cutoff(self, tmp_path, capsys):
        # 21 atoms: the cn lattice is not materialized, R* needs only the atoms
        path = write(tmp_path, "diag21.cxt", format_cxt(DIAG21))
        assert main(["factor", path, "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["blocks"]) == 21
        assert payload["rstar"] == payload["core"]["incidence"]
        assert "rstar_note" not in payload
        assert payload["oracle"]["mismatches"] == []

    def test_cn_oracle_beyond_the_atom_cutoff_checks_the_atoms(self, tmp_path, capsys):
        # 2**21 pairs are not listed, so the oracle compares the 21 atoms
        # with the bipartite components, as factor --oracle does
        path = write(tmp_path, "diag21.cxt", format_cxt(DIAG21))
        assert main(["cn", path, "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["materialized"] is False
        assert len(payload["atom_pairs"]) == 21
        assert payload["oracle"] == {"checked": 21, "mismatches": []}

    def test_cn_dot_beyond_the_atom_cutoff_exits_2(self, tmp_path):
        path = write(tmp_path, "diag21.cxt", format_cxt(DIAG21))
        assert main(["cn", path, "--emit", "dot"]) == 2

    def test_lattice_on_fuzzy_input(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["lattice", path, "--frame", "godel:4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "fuzzy-concept-lattice"
        assert len(payload["concepts"]) == 7

    def test_fn_counts_pairs(self, tmp_path, capsys):
        path = write(tmp_path, "r2.csv", "R,b1,b2,b3\na1,0.5,0,1\na2,0,0.5,0\na3,0.75,0,0.25\n")
        assert main(["fn", path, "--frame", "dprod:4,4,4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pairs"]) == 20

    def test_cn_rejects_unnormalized(self, tmp_path, capsys):
        ctx = BooleanContext.from_rows(["a1", "a2"], ["b1", "b2"], [[1, 1], [1, 0]])
        path = write(tmp_path, "bad.cxt", format_cxt(ctx))
        assert main(["cn", path]) == 1

    def test_frame_granularity_in_ascii_digits_only(self, tmp_path, capsys):
        # int() reads ARABIC-INDIC DIGIT FOUR as 4
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path, "--frame", "godel:\u0664"]) == 1
        assert "bad granularity in frame descriptor" in capsys.readouterr().err

    def test_budget_exit_code(self, tmp_path):
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path, "--frame", "godel:4", "--budget", "10"]) == 2

    def test_lattice_too_large_for_its_covers_exits_2(self, tmp_path, capsys, monkeypatch):
        # the covers' masks take N**2 / 8 bytes, so past the cap nothing is
        # allocated and nothing is written
        from galois_factor import order

        monkeypatch.setattr(order, "MAX_ELEMENTS", 2)
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path]) == 2
        assert one_error(capsys) == "error: needs 8 lattice elements but the budget is 2\n"
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path, "--frame", "godel:4"]) == 2
        assert "lattice elements but the budget is 2" in one_error(capsys)

    def test_main_keeps_no_option_between_calls(self, tmp_path, capsys):
        # the parser is built once per process; each call's options are its own
        from galois_factor.cli import build_parser

        assert build_parser() is build_parser()
        cxt = write(tmp_path, "table1.cxt", TABLE1_CXT)
        csv = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        fuzzy = ["--frame", "godel:4"]
        for plain, other in (
            (["fn", csv, *fuzzy], ["--oracle"]),
            (["check", csv, *fuzzy], ["--props", "fp1"]),
            (["lattice", cxt], ["--emit", "dot"]),
        ):
            outs = []
            for argv in (plain, plain + other, plain):
                assert main(argv) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[2] != outs[1]
            assert "oracle" not in json.loads(outs[2])  # JSON again, and no oracle member

    @pytest.mark.parametrize("budget", ["١_0", " -1", "+5"])
    def test_budget_in_ascii_digits_only(self, tmp_path, capsys, budget):
        # int() reads "١_0" as 10 and " -1" as a budget that runs out at once
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--budget", budget]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: argument --budget: invalid read_natural value: {budget!r}\n"

    def test_budget_blanks_around_digits_and_zero(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        # read as 12, which TABLE1's 15 closure evaluations overrun
        assert main(["lattice", path, "--budget", " 12 "]) == 2
        assert capsys.readouterr().err.startswith("error: the budget of 12 closure")
        assert main(["lattice", path, "--budget", " 15 "]) == 0
        assert len(json.loads(capsys.readouterr().out)["concepts"]) == 8
        assert main(["lattice", path, "--budget", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: the budget of 0 closure")

    @pytest.mark.parametrize(
        "command, key, closures, elements",
        [("fn", "pairs", 45, 5), ("lattice", "concepts", 1148, 727)],
    )
    def test_wide_godel_context(self, tmp_path, capsys, command, key, closures, elements):
        path = write(tmp_path, "wide.csv", WIDE_GODEL_CSV)
        for argv in ([], ["--budget", str(closures)]):
            assert main([command, path, "--frame", "godel:4", *argv]) == 0
            assert len(json.loads(capsys.readouterr().out)[key]) == elements
        assert main([command, path, "--frame", "godel:4", "--budget", str(closures - 1)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"the budget of {closures - 1} closure evaluations ran out" in err

    def test_check_honours_the_budget(self, tmp_path, capsys):
        path = write(tmp_path, "wide.csv", WIDE_GODEL_CSV)
        argv = ["check", path, "--frame", "godel:4", "--props", "fp1"]
        assert main([*argv, "--budget", "45"]) == 0
        assert json.loads(capsys.readouterr().out)["pair_count"] == 5
        assert main([*argv, "--budget", "44"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["fn", "check"])
    def test_fine_lukasiewicz_context_within_one_closure(self, tmp_path, capsys, command):
        # its one pair, the top, is the closure of the empty set
        path = write(tmp_path, "fine.csv", LUKASIEWICZ_32_CSV)
        assert main([command, path, "--frame", "lukasiewicz:32", "--budget", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["pairs"] if command == "fn" else document["rows"]) == 1
        assert main([command, path, "--frame", "lukasiewicz:32", "--budget", "0"]) == 2

    def test_boolean_lattice_honours_the_budget(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", format_cxt(TABLE1))
        assert main(["lattice", path, "--budget", "14"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the budget of 14 closure evaluations ran out, 7 closed sets found\n"
        assert main(["lattice", path, "--budget", "15"]) == 0
        assert len(json.loads(capsys.readouterr().out)["concepts"]) == 8

    def test_factor_dot_blocks_share_the_budget(self, tmp_path, capsys):
        # TABLE1's three blocks need 1, 4 and 2 closure evaluations, 7 in all
        path = write(tmp_path, "table1.cxt", format_cxt(TABLE1))
        for budget in ("1", "6"):
            assert main(["factor", path, "--emit", "dot", "--budget", budget]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"the budget of {budget} closure evaluations ran out" in err
        assert main(["factor", path, "--emit", "dot", "--budget", "7"]) == 0
        assert capsys.readouterr().out == emit_dot(factorize(TABLE1))
        assert main(["factor", path, "--emit", "dot"]) == 0
        assert capsys.readouterr().out == emit_dot(factorize(TABLE1))

    def test_factor_dot_builds_no_json_payload(self, tmp_path, capsys, monkeypatch):
        from galois_factor import factorization

        def refused(core):
            raise AssertionError("factor --emit dot computed R*")

        monkeypatch.setattr(factorization, "rstar", refused)
        path = write(tmp_path, "table1.cxt", format_cxt(TABLE1))
        assert main(["factor", path, "--emit", "dot"]) == 0
        assert capsys.readouterr().out == emit_dot(factorize(TABLE1))

    def test_factor_dot_on_the_diagonal_stops_where_lattice_does(self, tmp_path, capsys):
        # each 1x1 block of the 2x2 diagonal needs one closure evaluation
        path = write(tmp_path, "diag2.cxt", format_cxt(DIAG2))
        for command in (["lattice", path], ["factor", path, "--emit", "dot"]):
            assert main([*command, "--budget", "1"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: the budget of 1 closure evaluations ran out")
        assert main(["factor", path, "--emit", "dot", "--budget", "2"]) == 0
        assert capsys.readouterr().out == emit_dot(factorize(DIAG2))

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, accepted in SUBCOMMAND_FLAGS.items()
            for flag in FLAG_ARGV
            if flag not in accepted
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(self, tmp_path, capsys, command, flag):
        source = (
            write(tmp_path, "r2.csv", R2_GODEL_CSV) if command in ("fn", "check")
            else write(tmp_path, "table1.cxt", TABLE1_CXT)
        )
        frame = ["--frame", "godel:4"] if command in ("fn", "check") else []
        assert main([command, source, *frame]) == 0
        capsys.readouterr()
        assert main([command, source, *frame, *FLAG_ARGV[flag]]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unrecognized arguments: ")

    def test_missing_frame_for_fuzzy(self, tmp_path):
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path]) == 1

    def test_parse_failure_exit_code(self, tmp_path):
        path = write(tmp_path, "broken.cxt", "Q\n")
        assert main(["lattice", path]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["lattice", str(tmp_path / "nope.cxt")]) == 1

    def test_dot_output_to_file(self, tmp_path):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        out = tmp_path / "lattice.dot"
        assert main(["lattice", path, "--emit", "dot", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("digraph")

    def test_oracle_flag(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["mismatches"] == []

    def test_oracle_flag_on_fuzzy_lattice(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["lattice", path, "--frame", "godel:4", "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "fuzzy-concept-lattice"
        assert payload["oracle"] == {"checked": 7, "mismatches": []}

    def test_reconstruct(self, tmp_path, capsys):
        path = write(tmp_path, "table2.cxt", format_cxt(TABLE2))
        assert main(["reconstruct", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] is True
        assert payload["blocks"] == 3

    def test_check_reports_reference_interval(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["check", path, "--frame", "godel:4", "--props", "fp5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["preconditions"]["top_normalized_rows"] is True
        row = next(
            r
            for r in payload["rows"]
            if r["g"] == {"b1": "3/4", "b2": "1/2", "b3": "0"}
        )
        assert row["fp5"]["ordered"] is True
        assert row["fp5"]["lower"]["extent"] == {"b1": "1", "b2": "1/4", "b3": "0"}
        assert row["fp5"]["upper"]["extent"] == {"b1": "1", "b2": "1", "b3": "0"}

    def test_check_pair_selection_and_bad_props(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["check", path, "--frame", "godel:4", "--props", "fp1", "--pairs", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["pair"] for r in payload["rows"]] == [0, 1]
        assert main(["check", path, "--frame", "godel:4", "--props", "fp9"]) == 1

    @pytest.mark.parametrize("pairs", ["1_0", "\u0661", "-1", "+1", "1,x"])
    def test_check_reads_only_ascii_decimal_pair_indices(self, tmp_path, capsys, pairs):
        # int() reads "1_0" as 10 and ARABIC-INDIC DIGIT ONE as 1
        path = write(tmp_path, "wide.csv", WIDE_GODEL_CSV)
        argv = ["check", path, "--frame", "godel:4", "--props", "fp1"]
        for budget in ("45", "1"):  # refused before the enumeration runs
            assert main([*argv, "--pairs", pairs, "--budget", budget]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: bad --pairs value {pairs!r}\n"
        assert main([*argv, "--pairs", " 1 , 4 "]) == 0
        assert [r["pair"] for r in json.loads(capsys.readouterr().out)["rows"]] == [1, 4]

    def test_check_report_claims_nothing_and_builds_no_pair(self, monkeypatch):
        # fn_enumerate's pairs are members by its proof: the report trusts them
        from galois_factor import fuzzy
        from galois_factor.io import check_report

        ctx = godel_r2()
        lattice = fn_enumerate(ctx)
        selected = range(len(lattice))
        tree = twin_check_tree(ctx, lattice, selected, fuzzy.CHECKS)
        assert len(tree["rows"]) == len(lattice) > 1

        def refused(*args):
            raise AssertionError("check_report claimed or built a pair")

        monkeypatch.setattr(fuzzy, "in_fn", refused)
        monkeypatch.setattr(fuzzy.FuzzyNecessityPair, "from_keys", classmethod(refused))
        with pytest.raises(AssertionError):
            fuzzy.check_fp1(ctx, fuzzy.FuzzyNecessityPair(ctx.g_top, ctx.f_top))
        with pytest.raises(AssertionError):
            lattice[0]
        report = check_report(ctx, lattice, selected, fuzzy.CHECKS)
        assert emit_json(report) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"

    def test_check_writes_propositions_in_fixed_order(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["check", path, "--frame", "godel:4", "--props", "fp5,fp1"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out)["rows"]
        assert rows and all(list(row) == ["pair", "g", "f", "fp1", "fp5"] for row in rows)
        assert out.index('"fp1"') < out.index('"fp5"')

    @pytest.mark.parametrize(
        "frame, name, godel",
        [
            ("lukasiewicz:4", "godel:4", False),  # misnamed Lukasiewicz tables
            ("godel:4", "minimum", True),  # Goedel tables under another name
            ("godel:4", "godel:4", True),
            ("dprod:4,4,4", "godel-like", False),
        ],
    )
    def test_godel_frame_is_read_off_the_tables(self, frame, name, godel):
        from galois_factor.io import check_report

        triple = dataclasses.replace(grades.triple_from_descriptor(frame), name=name)
        ctx = dataclasses.replace(godel_r2(), triples=(triple,))
        report = check_report(ctx, fn_enumerate(ctx), [], [])
        assert report["preconditions"]["godel_frame"] is godel

    def test_oversized_csv_field_exits_1(self, tmp_path, capsys):
        import csv

        cell = "1" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "big.csv", f"R,b1\na1,{cell}\n")
        assert main(["fn", path, "--frame", "godel:4"]) == 1
        assert capsys.readouterr().err.startswith("error: line ")

    @pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
    def test_unknown_extension(self, tmp_path, capsys, command):
        # a Burmeister text under another suffix is refused, not read as .cxt
        path = write(tmp_path, "data.txt", TABLE1_CXT)
        assert main([command, path]) == 1
        assert one_error(capsys) == (
            "error: cannot tell the input format from '.txt' (use .cxt or .csv)\n"
        )

    @pytest.mark.parametrize("command", ["cn", "factor", "reconstruct"])
    def test_boolean_commands_refuse_fuzzy_input(self, tmp_path, capsys, command):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main([command, path]) == 1
        assert one_error(capsys) == f"error: {command} reads .cxt input, not .csv\n"

    @pytest.mark.parametrize("command", ["fn", "check"])
    def test_fuzzy_commands_refuse_boolean_input(self, tmp_path, capsys, command):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main([command, path, "--frame", "godel:4"]) == 1
        assert one_error(capsys) == f"error: {command} reads .csv input, not .cxt\n"

    def test_frame_on_boolean_input_is_refused(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--frame", "godel:4"]) == 1
        assert one_error(capsys) == "error: --frame applies only to fuzzy (.csv) input\n"

    def test_check_refuses_pair_indices_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "r2_godel.csv", R2_GODEL_CSV)
        assert main(["check", path, "--frame", "godel:4", "--pairs", "0,99"]) == 1
        assert one_error(capsys) == "error: pair indices out of range: [99]\n"

    def test_cn_names_the_empty_attribute_row(self, tmp_path, capsys):
        path = write(tmp_path, "empty_row.cxt", format_cxt(EMPTY_ROW))
        assert main(["cn", path]) == 1
        assert "attribute row 'a3' is empty" in one_error(capsys)

    def test_lattice_oracle_reports_a_dropped_concept(self, tmp_path, capsys, monkeypatch):
        from galois_factor import cli
        from galois_factor.order import Lattice

        def dropping(ctx, budget):  # the fast path loses concept 1
            xs, ys = concepts(ctx, budget).keys
            return Lattice(ctx, FormalConcept, (xs[:1] + xs[2:], ys[:1] + ys[2:]))

        monkeypatch.setattr(cli, "concepts", dropping)
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--oracle"]) == 1
        out, err = capsys.readouterr()
        assert err == "oracle mismatch detected\n"
        missing = ["concept", "absent from fast enumeration", repr(concepts(TABLE1)[1])]
        assert json.loads(out)["oracle"]["mismatches"] == [missing]

    def test_lattice_oracle_reports_an_extra_pair(self, tmp_path, capsys, monkeypatch):
        from galois_factor import cli
        from galois_factor.order import Lattice

        xs = concepts(TABLE1).keys[0]
        extra = next(x for x in range(1, 64) if x not in xs)  # an extent that is not closed
        k = next(i for i, x in enumerate(xs) if x > extra)

        def adding(ctx, budget):  # the fast path lists (extra, {}) among the concepts
            xs, ys = concepts(ctx, budget).keys
            return Lattice(ctx, FormalConcept, (xs[:k] + [extra] + xs[k:], ys[:k] + [0] + ys[k:]))

        monkeypatch.setattr(cli, "concepts", adding)
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--oracle"]) == 1
        out, err = capsys.readouterr()
        assert err == "oracle mismatch detected\n"
        pair = FormalConcept.from_keys(TABLE1, extra, 0)
        payload = json.loads(out)
        assert list(payload)[-1] == "oracle"
        assert payload["oracle"] == {
            "checked": len(xs) + 1,
            "mismatches": [["concept", repr(pair), "absent from oracle enumeration"]],
        }

    def test_factor_oracle_reports_a_dropped_block(self, tmp_path, capsys, monkeypatch):
        from galois_factor import factorization

        def dropping(ctx):  # the fast path loses the last block
            result = factorize(ctx)
            return dataclasses.replace(result, blocks=result.blocks[:-1])

        monkeypatch.setattr(factorization, "factorize", dropping)
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["factor", path, "--oracle"]) == 1
        out, err = capsys.readouterr()
        assert err == "oracle mismatch detected\n"
        block = factorize(TABLE1).blocks[-1]
        atom = NecessityPair(block.objects, block.attrs)
        missing = ["atom", "absent from fast enumeration", repr(atom)]
        payload = json.loads(out)
        assert payload["oracle"]["mismatches"] == [missing]
        assert payload["reconstruction"] == "mismatch"


class TestOutFile:
    """``--out`` is written over in place and cut to the document's length."""

    @pytest.mark.parametrize("name, text, argv", [
        ("table1.cxt", TABLE1_CXT, ["cn"]),
        ("table1.cxt", TABLE1_CXT, ["lattice", "--emit", "dot"]),
        ("r2.csv", R2_GODEL_CSV, ["check", "--frame", "godel:4"]),
    ], ids=["cn", "lattice-dot", "check"])
    def test_a_longer_old_file_is_cut_to_the_document(self, tmp_path, capsys, name, text, argv):
        source = write(tmp_path, name, text)
        assert main([argv[0], source, *argv[1:]]) == 0
        document = capsys.readouterr().out.encode()
        out = tmp_path / "out"
        out.write_bytes(b"\xff" * (2 * len(document) + 10))
        assert main([argv[0], source, *argv[1:], "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == document

    def test_stdout_is_written_in_the_slices_of_out(self, tmp_path, monkeypatch):
        import io

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return len(text)

        writes = []
        names = [f"a{i}" for i in range(14)], [f"b{i}" for i in range(14)]
        blocks = BooleanContext.from_rows(*names, [[i == j for j in range(14)] for i in range(14)])
        source, out = write(tmp_path, "blocks14.cxt", format_cxt(blocks)), tmp_path / "cn.json"
        assert main(["cn", source, "--out", str(out)]) == 0
        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["cn", source]) == 0
        assert len(writes) > 1 and max(map(len, writes)) <= 1 << 16
        assert "".join(writes).encode("utf-8") == out.read_bytes()

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_the_null_device(self, tmp_path, capsys):
        # ftruncate fails on a device, which is written and left as it is
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["cn", path, "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_an_empty_path_exits_1(self, tmp_path, capsys):
        # an unset shell variable in --out "$OUT" names no file, not stdout
        path = write(tmp_path, "table1.cxt", TABLE1_CXT)
        assert main(["lattice", path, "--out", ""]) == 1
        one_error(capsys)

    def test_a_refused_command_leaves_the_file_alone(self, tmp_path, capsys):
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"old bytes")
        os.utime(old, ns=(10**18, 10**18))
        for out in (new, old):
            assert main(["fn", path, "--frame", "godel:4", "--budget", "1", "--out", str(out)]) == 2
            one_error(capsys)
        assert not new.exists()
        assert old.read_bytes() == b"old bytes" and old.stat().st_mtime_ns == 10**18

    def test_a_long_text_and_a_failed_write(self, tmp_path):
        import argparse

        from galois_factor import cli

        out, args = tmp_path / "out.json", argparse.Namespace(out=str(tmp_path / "out.json"))
        out.write_bytes(b"\xff" * (1 << 18))
        text = "\u00e9" * (1 << 16) + "\u20ac\n"  # two slices of multi-byte characters
        cli._write(args, text)
        assert out.read_bytes() == text.encode("utf-8")
        # a lone surrogate has no UTF-8 form: the write raises after its
        # first two slices, and the file is left empty
        with pytest.raises(UnicodeEncodeError):
            cli._write(args, "x" * (1 << 17) + "\ud800\n")
        assert out.read_bytes() == b""


SRC = Path(__file__).resolve().parents[1] / "src"


class TestProcessEntryPoint:
    """``python -m galois_factor.cli`` runs ``entrypoint``, whose
    ``sys.exit`` carries ``main``'s status out of the process."""

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "galois_factor.cli", *args],
            capture_output=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )

    def test_success_exits_0_with_json(self, tmp_path):
        done = self.run("lattice", write(tmp_path, "table1.cxt", TABLE1_CXT))
        assert done.returncode == 0
        assert len(json.loads(done.stdout)["concepts"]) == 8

    def test_unknown_flag_exits_1(self, tmp_path):
        done = self.run("lattice", write(tmp_path, "table1.cxt", TABLE1_CXT), "--bogus")
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")

    def test_oracles_load_only_under_the_oracle_flag(self, tmp_path):
        # the brute-force module is never on a command's path without --oracle;
        # nor are fuzzy, grades, io's fuzzy half fuzzy_io and the csv module
        # on a Boolean command's, nor factorization on lattice's.  A lazily
        # loaded module is a ModuleType only once its body has run, and the
        # test reads no attribute of it.  Before each .csv command fuzzy_io
        # is unloaded, and io's names from it unbound, so each loads it anew.
        script = "\n".join([
            "import sys, types",
            "csv_preloaded = 'csv' in sys.modules",
            "import galois_factor, galois_factor.io",
            "from galois_factor.cli import main",
            "cxt, csv, out = sys.argv[1:]",
            "fuzzy = ['--frame', 'godel:4']",
            "def ran(*names):",
            "    return [n for n in names",
            "            if type(sys.modules.get('galois_factor.' + n)) is types.ModuleType]",
            "def unload_fuzzy_io():",
            "    sys.modules.pop('galois_factor.fuzzy_io', None)",
            "    vars(galois_factor).pop('fuzzy_io', None)",
            "    for name in ('parse_fuzzy_csv', 'check_report', 'document_from_json'):",
            "        vars(galois_factor.io).pop(name, None)",
            "for argv in (['lattice', cxt], ['lattice', cxt, '--emit', 'dot']):",
            "    assert main([*argv, '--out', out]) == 0, argv",
            "    assert ran('fuzzy', 'grades', 'factorization', 'oracles', 'fuzzy_io') == [], argv",
            "for argv in (['cn', cxt], ['factor', cxt], ['factor', cxt, '--emit', 'dot'],",
            "             ['reconstruct', cxt],",
            "             ['fn', csv, *fuzzy], ['check', csv, *fuzzy], ['lattice', csv, *fuzzy]):",
            "    if argv[1] == csv:",
            "        unload_fuzzy_io()",
            "    assert main([*argv, '--out', out]) == 0, argv",
            "    assert 'galois_factor.oracles' not in sys.modules, argv",
            "    if argv[1] == csv:",
            "        assert ran('fuzzy_io') == ['fuzzy_io'], argv",
            "    else:",
            "        assert ran('fuzzy', 'grades', 'fuzzy_io') == [], argv",
            "        assert csv_preloaded or 'csv' not in sys.modules, argv",
            "assert ran('fuzzy', 'grades', 'factorization') == ['fuzzy', 'grades', 'factorization']",
            "assert main(['lattice', cxt, '--oracle', '--out', out]) == 0",
            "assert 'galois_factor.oracles' in sys.modules",
        ])
        done = subprocess.run(
            [sys.executable, "-c", script, write(tmp_path, "table1.cxt", TABLE1_CXT),
             write(tmp_path, "r2.csv", R2_GODEL_CSV), str(tmp_path / "out")],
            capture_output=True,
            encoding="utf-8",
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_exceeded_budget_exits_2_with_empty_stdout(self, tmp_path):
        done = self.run("lattice", write(tmp_path, "table1.cxt", TABLE1_CXT), "--budget", "1")
        assert done.returncode == 2
        assert done.stdout == ""
