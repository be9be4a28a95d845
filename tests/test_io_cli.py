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
    concepts,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
    normalize,
    rstar,
)
from galois_factor import grades
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
from tables import (
    DIAG2, HUGE_EXPONENTS, TABLE1, TABLE2, WIDE_GODEL_CSV, fraction_refusing, godel_r2
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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
    """Record every ``read_grade`` call; io holds its own name for it."""
    calls = []
    read_grade = grades.read_grade

    def counted(value):
        calls.append(value)
        return read_grade(value)

    monkeypatch.setattr(grades, "read_grade", counted)
    monkeypatch.setattr(fio, "read_grade", counted)
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
        calls = count_grade_reads(monkeypatch)
        ctx = parse_fuzzy_csv(GRID_7X6_CSV, "dprod:4,4,4")
        assert ctx.relation[1] == (1, 2, 3, 4, 0, 1)
        assert len(calls) == 42

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
        assert str(json_error.value) == f"bad context document: ValueError({expected!r})"

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
        ],
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
                assert (j in reach[i]) == lattice.le(i, j)

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

    def test_budget_exit_code(self, tmp_path):
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path, "--frame", "godel:4", "--budget", "10"]) == 2

    @pytest.mark.parametrize(
        "command, key, closures, elements",
        [("fn", "pairs", 2602, 5), ("lattice", "concepts", 2535, 727)],
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
        assert main([*argv, "--budget", "2602"]) == 0
        assert json.loads(capsys.readouterr().out)["pair_count"] == 5
        assert main([*argv, "--budget", "2601"]) == 2
        assert capsys.readouterr().out == ""

    def test_boolean_lattice_honours_the_budget(self, tmp_path, capsys):
        path = write(tmp_path, "table1.cxt", format_cxt(TABLE1))
        assert main(["lattice", path, "--budget", "21"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the budget of 21 closure evaluations ran out, 7 closed sets found\n"
        assert main(["lattice", path, "--budget", "22"]) == 0
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

    def test_check_report_claims_each_pair_once(self, monkeypatch):
        from galois_factor import fuzzy
        from galois_factor.io import CHECKERS, check_report

        ctx = godel_r2()
        lattice = fn_enumerate(ctx)
        claimed = []
        in_fn = fuzzy.in_fn
        monkeypatch.setattr(fuzzy, "in_fn", lambda c, p: claimed.append(p) or in_fn(c, p))
        report = check_report(ctx, lattice, range(len(lattice)), list(CHECKERS))
        assert len(report["rows"]) == len(lattice) > 1
        assert claimed == list(lattice)

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

    def test_unknown_extension(self, tmp_path):
        path = write(tmp_path, "data.txt", "hello")
        assert main(["lattice", path]) == 1


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

    def test_exceeded_budget_exits_2_with_empty_stdout(self, tmp_path):
        done = self.run("lattice", write(tmp_path, "table1.cxt", TABLE1_CXT), "--budget", "1")
        assert done.returncode == 2
        assert done.stdout == ""
