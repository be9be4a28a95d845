"""Small inputs with huge results, generated here, through the CLI.

Each family has a size knob, and its result grows exponentially with it:
``cn`` and ``factor`` on k disjoint full 2 x 2 blocks (2^k cn pairs),
``lattice`` on the contranominal scale of k (2^k concepts), and ``fn`` and
``check`` on the k-cell ``godel:4`` diagonal (5^k members).  Two fixed
cases join them: the 11,510 concepts of the 5 x 4 ``lukasiewicz:32``
context of ``tables.py``, and names of 4,096 characters.  Every case
writes to ``--out`` and exits 0 or 2, never 1; on exit 2 it writes one
``error:`` line, nothing on stdout and no ``--out`` file.  One cap,
``order.MAX_ELEMENTS`` (2^17), bounds every written lattice document, so
18 blocks are the first size whose cn document holds only the atoms.
"""

import json

import pytest

from galois_factor import BooleanContext, order
from galois_factor.cli import main
from galois_factor.io import format_cxt
from tables import LUKASIEWICZ_32_CSV


def blocks_cxt(k: int) -> str:
    """k disjoint full 2 x 2 blocks: k cn atoms, so 2^k cn pairs."""
    n = 2 * k
    names = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(n)]
    return format_cxt(BooleanContext.from_rows(
        *names, [[i // 2 == j // 2 for j in range(n)] for i in range(n)]
    ))


def contranominal_cxt(k: int) -> str:
    """The contranominal scale of k: every subset is an extent, 2^k concepts."""
    names = [f"a{i}" for i in range(k)], [f"b{j}" for j in range(k)]
    return format_cxt(BooleanContext.from_rows(
        *names, [[i != j for j in range(k)] for i in range(k)]
    ))


def diagonal_csv(k: int) -> str:
    """The k-cell diagonal, 1 on it and 0 off it: under ``godel:4`` each
    cell grades independently, 5^k fn members."""
    lines = ["R," + ",".join(f"b{j}" for j in range(k))]
    lines += [f"a{i}," + ",".join("1" if i == j else "0" for j in range(k)) for i in range(k)]
    return "\n".join(lines) + "\n"


def run(tmp_path, capsys, name: str, text: str, *argv: str):
    """The exit status of ``argv`` on the input ``text``, and the document
    it wrote to ``--out`` (then removed), or on exit 2 its one ``error:``
    line, which must come with an empty stdout and no file."""
    source, out = tmp_path / name, tmp_path / "out.txt"
    source.write_text(text, encoding="utf-8")
    status = main([argv[0], str(source), *argv[1:], "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert status in (0, 2), err
    assert stdout == ""
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return status, err
    text = out.read_text(encoding="utf-8")
    out.unlink()
    return status, text


def test_cn_on_18_blocks_writes_only_the_atoms(tmp_path, capsys):
    status, text = run(tmp_path, capsys, "blocks.cxt", blocks_cxt(18), "cn")
    assert status == 0
    doc = json.loads(text)
    assert (doc["pair_count"], doc["materialized"]) == (2**18, False)
    assert len(doc["atom_pairs"]) == 18 and "pairs" not in doc


def test_cn_dot_on_18_blocks_exits_2(tmp_path, capsys):
    status, err = run(tmp_path, capsys, "blocks.cxt", blocks_cxt(18), "cn", "--emit", "dot")
    assert status == 2
    assert err == "error: needs 262144 lattice elements but the budget is 131072\n"


def test_factor_on_18_blocks(tmp_path, capsys):
    status, text = run(tmp_path, capsys, "blocks.cxt", blocks_cxt(18), "factor", "--oracle")
    assert status == 0
    doc = json.loads(text)
    assert len(doc["blocks"]) == 18 and doc["reconstruction"] == "exact"
    assert doc["oracle"] == {"checked": 18, "mismatches": []}


def test_lattice_on_the_contranominal_scale_of_10(tmp_path, capsys):
    status, text = run(tmp_path, capsys, "scale.cxt", contranominal_cxt(10), "lattice")
    assert status == 0
    doc = json.loads(text)
    assert len(doc["concepts"]) == 2**10 and len(doc["covers"]) == 10 * 2**9


@pytest.mark.parametrize("command, key", [("fn", "pairs"), ("check", "rows")])
def test_fn_and_check_on_the_5_cell_diagonal(tmp_path, capsys, command, key):
    status, text = run(
        tmp_path, capsys, "diagonal.csv", diagonal_csv(5), command, "--frame", "godel:4"
    )
    assert status == 0
    assert len(json.loads(text)[key]) == 5**5


def test_check_and_cn_read_the_cap_when_they_run(tmp_path, capsys, monkeypatch):
    # as the covers of lattice and fn do (tests/test_io_cli.py)
    monkeypatch.setattr(order, "MAX_ELEMENTS", 2)
    csv, frame = ("diagonal.csv", diagonal_csv(2)), ("--frame", "godel:4")
    status, err = run(tmp_path, capsys, *csv, "check", *frame)
    assert (status, err) == (2, "error: needs 25 check rows but the budget is 2\n")
    status, text = run(tmp_path, capsys, *csv, "check", *frame, "--pairs", "0,24")
    assert status == 0 and len(json.loads(text)["rows"]) == 2
    status, text = run(tmp_path, capsys, "blocks.cxt", blocks_cxt(2), "cn")
    assert status == 0 and json.loads(text)["materialized"] is False


def test_lattice_on_the_5_by_4_lukasiewicz_32_context(tmp_path, capsys):
    # fn and check need one closure here; the concept walk lists every concept
    status, text = run(
        tmp_path, capsys, "fine.csv", LUKASIEWICZ_32_CSV, "lattice", "--frame", "lukasiewicz:32"
    )
    assert status == 0
    assert len(json.loads(text)["concepts"]) == 11510



def long_names(prefix: str) -> list[str]:
    """Two distinct names of 4,096 characters each."""
    return [f"{prefix}{i}".rjust(4096, prefix) for i in range(2)]


def strings(doc) -> set:
    """Every string in a JSON document, as a key or as a value."""
    if isinstance(doc, dict):
        return set(doc).union(*map(strings, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(strings, doc))
    return {doc} if isinstance(doc, str) else set()


@pytest.mark.parametrize("command, suffix", [
    ("lattice", ".cxt"), ("cn", ".cxt"), ("lattice", ".csv"), ("fn", ".csv"), ("check", ".csv"),
])
def test_names_of_4096_characters(tmp_path, capsys, command, suffix):
    objects, attributes = long_names("a"), long_names("b")
    if suffix == ".cxt":
        argv = [command]
        text = format_cxt(BooleanContext.from_rows(objects, attributes, [[1, 0], [0, 1]]))
    else:
        argv = [command, "--frame", "godel:2"]
        rows = [f"{objects[0]},1,1/2", f"{objects[1]},0,1"]
        text = "\n".join([f"R,{attributes[0]},{attributes[1]}", *rows]) + "\n"
    status, out = run(tmp_path, capsys, "long" + suffix, text, *argv)
    assert status == 0
    assert {s for s in strings(json.loads(out)) if len(s) == 4096} == {*objects, *attributes}
