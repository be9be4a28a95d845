import json

import pytest

from galois_factor import (
    BooleanContext,
    ContextFormatError,
    concepts,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
)
from galois_factor.cli import main
from galois_factor.io import (
    ContextDocument,
    document_from_json,
    emit_dot,
    emit_json,
    format_cxt,
    parse_cxt,
    parse_fuzzy_csv,
)
from tables import TABLE1, TABLE2, godel_r2

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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
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


class TestJson:
    def test_boolean_document_round_trip(self):
        doc = ContextDocument("boolean", TABLE1)
        text = emit_json(doc)
        assert document_from_json(text) == doc
        assert emit_json(doc) == text  # byte-identical across runs

    def test_fuzzy_document_round_trip(self):
        doc = ContextDocument("fuzzy", godel_r2(), ("godel:4",))
        assert document_from_json(emit_json(doc)) == doc

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
        doc = ContextDocument("fuzzy", ctx, ("godel:4", "lukasiewicz:4"))
        rebuilt = document_from_json(emit_json(doc))
        assert rebuilt == doc
        assert rebuilt.payload.sigma == ((0,), (1,))

    def test_grades_serialize_as_fractions(self):
        payload = json.loads(emit_json(ContextDocument("fuzzy", godel_r2(), ("godel:4",))))
        assert payload["relation"][0] == ["1", "1/4", "0"]
        assert payload["schema"] == "galois-factor/1"

    def test_lattice_payload_shape(self):
        payload = json.loads(emit_json(concepts(TABLE1)))
        assert payload["type"] == "concept-lattice"
        assert len(payload["concepts"]) == 8
        assert len(payload["covers"]) == 10

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

    def test_budget_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GALOIS_FACTOR_BUDGET", "10")
        path = write(tmp_path, "r2.csv", R2_GODEL_CSV)
        assert main(["fn", path, "--frame", "godel:4"]) == 2

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
        assert out.read_text().startswith("digraph")

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

    def test_unknown_extension(self, tmp_path):
        path = write(tmp_path, "data.txt", "hello")
        assert main(["lattice", path]) == 1
