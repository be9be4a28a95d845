"""The JSON/DOT writer against its twins.

The generic writer must give the text of ``json.dumps(..., indent=2,
ensure_ascii=False)`` on every JSON tree and refuse everything else.  The
lattice path, which joins pre-encoded fragments for all four lattice kinds
(names for concept and cn lattices, names with grades for fn and fuzzy
concept lattices), must give the text of the generic writer over element
dicts built by the tests' own ``tables.plain``, and the DOT text of
per-element labels built from the same dicts; it never calls ``io._plain``.
A cn lattice is written from its atoms' bits and the cube's edges, without
building a pair or reading ``covers``, and no enumeration or writer of the
other three kinds builds an element.  Every JSON output of the CLI is a
fixed point of ``json.loads`` then ``json.dumps(indent=2)``.
"""

import json
import random

import pytest
from hypothesis import given, strategies as st

import tables
from galois_factor import (
    AttributeSubset,
    BooleanContext,
    CnLattice,
    FormalConcept,
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
    NecessityPair,
    ObjectSubset,
    block_bounds,
    cn_enumerate,
    concepts,
    factorize,
    fn_enumerate,
    fuzzy_concepts,
    normalize,
)
from galois_factor import io as fio
from galois_factor.cli import main
from galois_factor.grades import triple_from_descriptor
from galois_factor.io import SCHEMA, emit_dot, emit_json, format_cxt
from galois_factor.oracles import compare_concepts
from galois_factor.order import pointwise_covers


def generic(tree) -> str:
    out = []
    fio._write(tree, out)
    return "".join(out) + "\n"


def dumps(tree) -> str:
    return json.dumps(tree, indent=2, ensure_ascii=False) + "\n"


# ------------------------------------------------------------ generic writer

tricky_chars = st.sampled_from('"\\/\x00\x01\x1f\x7f\x85\u2028\u2029é€😀\U000103ff')
strings = st.text(
    st.characters() | st.characters(categories=["Cs", "Cc"]) | tricky_chars, max_size=8
)
integers = st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from([0, -1, 2**63])
json_trees = st.recursive(
    st.none() | st.booleans() | integers | strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(strings, inner, max_size=4),
    max_leaves=20,
)


@given(json_trees)
def test_writer_equals_json_dumps(tree):
    assert generic(tree) == dumps(tree)


@given(json_trees.filter(lambda t: isinstance(t, dict)))
def test_emit_json_of_a_dict_equals_json_dumps(tree):
    payload = tree if "schema" in tree else {"schema": SCHEMA, **tree}
    assert emit_json(tree) == dumps(payload)


@pytest.mark.parametrize(
    "value", [0.5, float("nan"), (1, 2), {1}, frozenset(), b"x", object(), len]
)
def test_writer_refuses_values_without_a_json_form(value):
    for tree in (value, [value], {"k": [1, {"k": value}]}):
        with pytest.raises(TypeError):
            generic(tree)
    with pytest.raises(TypeError):
        emit_json({"k": value})


@pytest.mark.parametrize("key", [1, None, True, 0.5, ("a",)])
def test_writer_refuses_keys_that_are_not_strings(key):
    for tree in ({key: 1}, [{"k": {key: 1}}]):
        with pytest.raises(TypeError, match="keys must be str"):
            generic(tree)
    with pytest.raises(TypeError, match="keys must be str"):
        emit_json({"schema": SCHEMA, key: 1})


def test_emit_json_refuses_a_lattice_inside_a_dict():
    with pytest.raises(TypeError):
        emit_json({"lattice": concepts(tables.TABLE1)})


# ------------------------------------------------------------- lattice path

NAME_POOL = ["é", "Ж", '"q"', "back\\slash", 'a"\\b', "tab\tin", "\x01", "😀", "\ud800", "x"]


def renamed(ctx: BooleanContext, rng: random.Random) -> BooleanContext:
    """``ctx`` with names drawn from a pool of escapes and non-ASCII text."""

    def names(prefix, n):
        return [f"{rng.choice(NAME_POOL)}{prefix}{i}" for i in range(n)]

    return BooleanContext(
        names("a", len(ctx.attributes)), names("o", len(ctx.objects)), ctx.rows
    )


TWIN_KINDS = {
    FormalConcept: ("concept-lattice", "concepts"),
    NecessityPair: ("cn-lattice", "pairs"),
    FuzzyNecessityPair: ("fn-lattice", "pairs"),
    MultiAdjointConcept: ("fuzzy-concept-lattice", "concepts"),
}


def twin_kind(lattice) -> tuple[str, str]:
    """The lattice's JSON type and the key of its element list."""
    return TWIN_KINDS[NecessityPair if isinstance(lattice, CnLattice) else type(lattice[0])]


def twin_tree(lattice) -> dict:
    """The lattice document as the generic tree over ``plain`` elements."""
    cn = isinstance(lattice, CnLattice)
    kind, key = twin_kind(lattice)
    tree = {"schema": SCHEMA, "type": kind}
    if cn:
        tree["pair_count"] = lattice.pair_count
        tree["materialized"] = lattice.materialized
        tree["atom_pairs"] = [tables.plain(p) for p in lattice.atom_pairs]
        if not lattice.materialized:
            return tree
    tree[key] = [tables.plain(e, lattice.context) for e in lattice]
    tree["covers"] = [list(e) for e in lattice.covers]
    if cn:
        tree["atoms"] = [1 << a for a in range(len(lattice.atom_pairs))]
    return tree


def quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def twin_side_label(side) -> str:
    """A side of a ``plain`` element as DOT shows it: its names joined by
    commas, or its name:grade pairs joined by comma and space, in braces."""
    if isinstance(side, dict):
        return "{%s}" % ", ".join(f"{name}:{grade}" for name, grade in side.items())
    return "{%s}" % ",".join(side)


def twin_dot_lines(lattice, prefix="n", indent="  "):
    lines = []
    for i, e in enumerate(lattice):
        sides = tables.plain(e, lattice.context).values()
        label = " | ".join(map(twin_side_label, sides))
        lines.append(f"{indent}{prefix}{i} [label={quote(label)}];")
    lines += [f"{indent}{prefix}{l} -> {prefix}{u};" for l, u in sorted(lattice.covers)]
    return lines


def twin_dot(lattice) -> str:
    name = twin_kind(lattice)[0].replace("-", "_")
    lines = [f"digraph {name} {{", "  rankdir=BT;", *twin_dot_lines(lattice), "}"]
    return "\n".join(lines) + "\n"


def twin_factor_dot(result) -> str:
    lines = ["digraph factorization {", "  rankdir=BT;"]
    for k, block in enumerate(result.blocks):
        label = "objects {%s} x attributes {%s}" % (
            ",".join(block.objects.names), ",".join(block.attrs.names)
        )
        lines += [f"  subgraph cluster_{k} {{", f"    label={quote(label)};"]
        lines += twin_dot_lines(concepts(block.context), f"b{k}_n", "    ")
        lines.append("  }")
    return "\n".join(lines + ["}"]) + "\n"


def test_fragment_path_matches_the_generic_twin_on_random_contexts():
    rng = random.Random(1010)
    for _ in range(60):
        ctx = renamed(tables.random_normalized_context(rng, max_side=9), rng)
        for lattice in (concepts(ctx), cn_enumerate(ctx)):
            tree = twin_tree(lattice)
            assert emit_json(lattice) == generic(tree) == dumps(tree)
            assert emit_dot(lattice) == twin_dot(lattice)
        result = factorize(ctx)
        assert emit_dot(result) == twin_factor_dot(result)


def _split(rng: random.Random, total: int, k: int) -> list[int]:
    """``total`` as a sum of ``k`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def blocks_context(rng: random.Random, k: int) -> BooleanContext:
    """A normalized context of ``k`` >= 1 connected random blocks, rows and
    columns shuffled, over 9 to 20 attributes and objects: its cn lattice has
    ``k`` atoms and its subsets cross the bytes of the name tables."""
    while True:
        heights = _split(rng, rng.randint(9, 20), k)
        widths = _split(rng, rng.randint(9, 20), k)
        cells = set()
        top = left = 0
        for h, w in zip(heights, widths):
            i = j = 0
            cells.add((top, left))
            while (i, j) != (h - 1, w - 1):  # a staircase joins every line of the block
                if j == w - 1 or (i < h - 1 and rng.random() < 0.5):
                    i += 1
                else:
                    j += 1
                cells.add((top + i, left + j))
            cells |= {
                (top + i, left + j) for i in range(h) for j in range(w) if rng.random() < 0.3
            }
            top, left = top + h, left + w
        attrs, objs = rng.sample(range(top), top), rng.sample(range(left), left)
        rows = [0] * top
        for i, j in cells:
            rows[attrs[i]] |= 1 << objs[j]
        ctx = BooleanContext([f"a{i}" for i in range(top)], [f"o{j}" for j in range(left)], rows)
        if normalize(ctx).core == ctx:
            return renamed(ctx, rng)


def cn_lattices_across_bytes(seed: int):
    """Seeded cn lattices with 0 to 8 atoms, three of each."""
    rng = random.Random(seed)
    yield cn_enumerate(BooleanContext([], [], []))
    for k in range(1, 9):
        for _ in range(3):
            lattice = cn_enumerate(blocks_context(rng, k))
            assert len(lattice.atom_pairs) == k
            yield lattice


def test_cn_bit_path_matches_the_generic_twin_across_bytes():
    # the twin writes NecessityPairs built one by one, and lattice.covers
    for lattice in cn_lattices_across_bytes(1111):
        tree = twin_tree(lattice)
        assert emit_json(lattice) == generic(tree)
        assert emit_dot(lattice) == twin_dot(lattice)


def test_cube_edges_are_the_pointwise_covers_of_the_object_bits():
    for lattice in cn_lattices_across_bytes(1112):
        expected = pointwise_covers(lattice.keys[0])
        assert lattice.cover_lists == expected
        assert lattice.covers == tuple((i, j) for i, ups in enumerate(expected) for j in ups)


def test_cn_writers_read_no_covers_and_build_no_pairs(monkeypatch):
    diag21 = BooleanContext.from_rows(
        [f"a{i}" for i in range(21)], [f"b{i}" for i in range(21)],
        [[i == j for j in range(21)] for i in range(21)],
    )
    twins = [cn_enumerate(tables.WIDE), cn_enumerate(diag21)]
    expected = [emit_json(twins[0]), emit_dot(twins[0]), emit_json(twins[1])]
    fresh = [cn_enumerate(tables.WIDE), cn_enumerate(diag21)]

    def refuse(*args):
        raise AssertionError("the cn writers read only the atoms and the element bits")

    monkeypatch.setattr(CnLattice, "covers", property(refuse))
    monkeypatch.setattr(NecessityPair, "__init__", refuse)
    assert [emit_json(fresh[0]), emit_dot(fresh[0]), emit_json(fresh[1])] == expected


def test_enumerations_and_writers_build_no_elements(monkeypatch):
    boolean, fuzzy = tables.TABLE2, tables.dprod_r2()
    runs = [lambda: concepts(boolean), lambda: fn_enumerate(fuzzy), lambda: fuzzy_concepts(fuzzy)]

    def written():
        return [(emit_json(lattice), emit_dot(lattice)) for lattice in (run() for run in runs)]

    expected = written()

    def refuse(*args):
        raise AssertionError("the enumerations and the writers read only the keys")

    for kind in (
        FormalConcept, FuzzyNecessityPair, MultiAdjointConcept, ObjectSubset, AttributeSubset,
        GradedObjectSet, GradedAttributeSet,
    ):
        monkeypatch.setattr(kind, "__init__", refuse)
    assert written() == expected


@given(st.lists(st.text(max_size=3), max_size=40), st.data())
def test_joiner_joins_the_names_at_the_set_bits(names, data):
    bits = data.draw(st.integers(0, (1 << len(names)) - 1))
    joined = fio._joiner(names, str.upper)
    expected = ",".join(name.upper() for i, name in enumerate(names) if bits >> i & 1)
    assert joined(bits) == joined(bits) == expected


def test_joiner_tables_hold_only_the_bytes_in_use(monkeypatch):
    # 2,000 names make 250 tables; a subset within the first byte fills one
    # entry, and the zero bytes of the other 249 tables fill none
    misses = []
    missing = fio._ByteTable.__missing__
    monkeypatch.setattr(fio._ByteTable, "__missing__", lambda t, b: misses.append(b) or missing(t, b))
    joined = fio._joiner([f"o{j}" for j in range(2000)], str)
    assert joined(0b101) == joined(0b101) == "o0,o2"
    assert joined(0) == ""
    assert misses == [0b101]


def test_fragment_path_on_empty_sides():
    # a full and an empty column: the top concept has an empty intent and
    # the bottom an extent of one; the cn bottom is empty on both sides,
    # and the cn lattice of the empty context has no atoms
    ctx = BooleanContext(["é", "b"], ['"o"', "p\\"], [0b01, 0b00])
    cn_lattice = cn_enumerate(renamed(tables.DIAG2, random.Random(3)))
    no_atoms = cn_enumerate(BooleanContext([], [], []))
    for lattice in (concepts(ctx), cn_lattice, no_atoms):
        tree = twin_tree(lattice)
        assert emit_json(lattice) == dumps(tree)
        assert emit_dot(lattice) == twin_dot(lattice)
    assert '"intent": []' in emit_json(concepts(ctx))
    assert '"objects": [],\n      "attrs": []' in emit_json(cn_lattice)
    assert '"atom_pairs": [],' in emit_json(no_atoms)


def test_cn_lattice_beyond_the_atom_cutoff():
    n = 21
    ctx = renamed(BooleanContext.from_rows(
        [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)],
        [[i == j for j in range(n)] for i in range(n)],
    ), random.Random(7))
    lattice = cn_enumerate(ctx)
    assert not lattice.materialized
    tree = twin_tree(lattice)
    assert emit_json(lattice) == dumps(tree)
    assert list(json.loads(emit_json(lattice))) == [
        "schema", "type", "pair_count", "materialized", "atom_pairs"
    ]


def test_oracle_report_is_the_last_member():
    lattice = concepts(tables.TABLE1)
    report = compare_concepts(tables.TABLE1, lattice)
    oracle = {"checked": report.checked, "mismatches": [list(w) for w in report.mismatches]}
    tree = {**twin_tree(lattice), "oracle": oracle}
    assert emit_json(lattice, report) == dumps(tree)
    # emit_json reads a report's two fields; a report is no result of its own
    with pytest.raises(TypeError, match="no JSON form for OracleReport"):
        fio.to_jsonable(report)


def test_block_bounds_of_each_table1_atom():
    # the paper's interval pipeline writes these documents; the bounds of
    # each atom (X, Y) are <X, X-up> and <Y-down, Y>, read off TABLE1 by hand
    def concept(extent, intent):
        return {"extent": extent, "intent": intent}

    bounds = {
        ("b5", "b6"): (concept(["b5", "b6"], ["a4"]), concept(["b5"], ["a4", "a6"])),
        ("b2", "b3", "b4"): (concept(["b2", "b3", "b4"], ["a1"]), None),
        ("b1",): (concept(["b1"], ["a3"]), concept(["b1"], ["a3"])),
    }
    ctx = tables.TABLE1
    for objects, attrs in tables.TABLE1_CN_IRREDUCIBLES:
        upper, lower = bounds[objects]
        tree = {
            "schema": SCHEMA,
            "type": "block-bounds",
            "pair": {"objects": list(objects), "attrs": list(attrs)},
            "upper": upper,
            "upper_identified_with_top": False,
            "lower": lower,
            "lower_identified_with_bottom": lower is None,
            "upper_is_coatom": True,
            "lower_within_upper": True,
        }
        pair = NecessityPair(ctx.object_set(objects), ctx.attribute_set(attrs))
        assert emit_json(block_bounds(ctx, pair)) == dumps(tree)


def test_emit_dot_refuses_a_context():
    with pytest.raises(TypeError, match="no DOT form for BooleanContext"):
        emit_dot(tables.TABLE1)


# equal chains, where fn exists, and unequal ones (l1, l2, p) for the
# fuzzy concepts alone
FRAMES = [
    "godel:1", "godel:3", "lukasiewicz:1", "lukasiewicz:4",
    "dprod:1,1,1", "dprod:4,4,4", "dprod:2,4,8", "dprod:3,2,6",
]


def random_named_fuzzy_context(rng: random.Random, frame: str) -> FuzzyContext:
    """A random 1-4 x 1-4 context on ``frame`` with names from ``NAME_POOL``."""
    triple = triple_from_descriptor(frame)

    def names(prefix):
        return [f"{rng.choice(NAME_POOL)}{prefix}{i}" for i in range(rng.randint(1, 4))]

    attributes, objects = names("a"), names("o")
    relation = [[rng.randint(0, triple.p3.m) for _ in objects] for _ in attributes]
    return FuzzyContext(attributes, objects, (triple,), relation)


def test_graded_path_matches_the_generic_twin_on_random_contexts():
    rng = random.Random(1616)
    for frame in FRAMES:
        for _ in range(8):
            ctx = random_named_fuzzy_context(rng, frame)
            equal = ctx.l1 == ctx.l2 == ctx.p
            for build in (fuzzy_concepts, fn_enumerate)[: 1 + equal]:
                lattice = build(ctx)
                tree = twin_tree(lattice)
                assert emit_json(lattice) == generic(tree) == dumps(tree)
                assert emit_dot(lattice) == twin_dot(lattice)


def test_lattice_writers_never_call_plain(monkeypatch):
    lattices = [
        concepts(tables.WIDE),
        cn_enumerate(tables.WIDE),
        fn_enumerate(tables.dprod_escaped()),
        fuzzy_concepts(tables.dprod_escaped()),
        fuzzy_concepts(random_named_fuzzy_context(random.Random(5), "dprod:2,4,8")),
    ]
    expected = [(emit_json(lattice), emit_dot(lattice)) for lattice in lattices]

    def refuse(*args):
        raise AssertionError("the lattice writers join pre-encoded fragments")

    monkeypatch.setattr(fio, "_plain", refuse)
    assert [(emit_json(lattice), emit_dot(lattice)) for lattice in lattices] == expected


@pytest.mark.parametrize("build", [fn_enumerate, fuzzy_concepts])
def test_graded_lattices_match_json_dumps(build):
    for make in (tables.godel_r2, tables.luk_table3, tables.dprod_r1):
        lattice = build(make())
        text = emit_json(lattice)
        assert text == dumps(json.loads(text))


# ----------------------------------------------------------- CLI fixed point

R2_GODEL_CSV = "R,b1,b2,b3\na1,1,0.25,0\na2,0.5,1,0.75\na3,0,0.5,1\n"
BOOLEAN_RUNS = [
    ("lattice",),
    ("lattice", "--oracle"),
    ("lattice", "--emit", "json", "--budget", "100"),
    ("cn",),
    ("cn", "--oracle"),
    ("factor",),
    ("factor", "--oracle"),
    ("reconstruct",),
]
FUZZY_RUNS = [
    ("lattice", "--frame", "godel:4"),
    ("lattice", "--frame", "godel:4", "--oracle"),
    ("fn", "--frame", "lukasiewicz:4"),
    ("fn", "--frame", "godel:4", "--oracle"),
    ("check", "--frame", "godel:4"),
    ("check", "--frame", "dprod:4,4,4", "--props", "fp4,fp5", "--pairs", "0,1"),
]
CASES = [
    (table, run) for run in BOOLEAN_RUNS for table in ("TABLE1", "TABLE2", "DIAG2")
] + [("R2", run) for run in FUZZY_RUNS]


@pytest.mark.parametrize("table, argv", CASES, ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_cli_json_is_a_fixed_point_of_json_dumps(table, argv, tmp_path, capsys):
    if table == "R2":
        path = tmp_path / "r2.csv"
        path.write_text(R2_GODEL_CSV, encoding="utf-8")
    else:
        path = tmp_path / "t.cxt"
        path.write_text(format_cxt(getattr(tables, table)), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 0
    text = capsys.readouterr().out
    assert text == dumps(json.loads(text))
