"""Output checks, run outside the timed region.

Boolean outputs are checked against the definitions with this file's own
naive code on the generated incidence (never with the library's fast
paths).  ``fn`` outputs are compared with ``galois_factor.oracles.compare_fn``.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import BooleanInput, Session

_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="\{([^}]*)\} \| \{([^}]*)\}"\];$')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def _bits(names, index: dict[str, int]) -> int:
    bits = 0
    for name in names:
        bits |= 1 << index[name]
    return bits


class _Incidence:
    """Naive derivation operators on a generated Boolean context."""

    def __init__(self, ctx: BooleanInput):
        self.ctx = ctx
        self.attr_index = {a: i for i, a in enumerate(ctx.attributes)}
        self.obj_index = {b: j for j, b in enumerate(ctx.objects)}
        self.all_objects = (1 << len(ctx.objects)) - 1

    def up(self, objs: int) -> int:
        """Attributes related to every object in ``objs``."""
        out = 0
        for i, row in enumerate(self.ctx.rows):
            if objs & ~row == 0:
                out |= 1 << i
        return out

    def down(self, attrs: int) -> int:
        """Objects related to every attribute in ``attrs``."""
        out = self.all_objects
        for i, row in enumerate(self.ctx.rows):
            if attrs >> i & 1:
                out &= row
        return out


def _check_concept_lattice(inc: _Incidence, concepts, covers) -> list[str]:
    """Closed concepts, distinct extents, covers strict with nothing between."""
    if not concepts:
        return ["no concepts"]
    problems = []
    extents = []
    for extent, intent in concepts:
        x = _bits(extent, inc.obj_index)
        y = _bits(intent, inc.attr_index)
        if inc.up(x) != y or inc.down(y) != x:
            problems.append(f"concept {sorted(extent)} is not closed")
        extents.append(x)
    if len(set(extents)) != len(extents):
        problems.append("duplicate concept extents")
    has_upper = [False] * len(extents)
    has_lower = [False] * len(extents)
    for lo, hi in covers:
        small, big = extents[lo], extents[hi]
        if small & ~big or small == big:
            problems.append(f"cover {lo}->{hi} is not strict")
            continue
        # (lo, hi) is a cover iff adding any object of big \ small closes to big
        rest = big & ~small
        while rest:
            low_bit = rest & -rest
            rest ^= low_bit
            if inc.down(inc.up(small | low_bit)) != big:
                problems.append(f"cover {lo}->{hi} has a concept in between")
                break
        has_upper[lo] = True
        has_lower[hi] = True
    if len(extents) > 1:
        top = extents.index(max(extents, key=int.bit_count))
        bottom = extents.index(min(extents, key=int.bit_count))
        if not all(has_upper[i] or i == top for i in range(len(extents))):
            problems.append("a non-top concept has no upper cover")
        if not all(has_lower[i] or i == bottom for i in range(len(extents))):
            problems.append("a non-bottom concept has no lower cover")
    return problems


def _split(names: str) -> list[str]:
    return names.split(",") if names else []


def check_lattice_boolean(session: Session, text: str) -> list[str]:
    inc = _Incidence(session.data["context"])
    if session.data["emit"] == "json":
        doc = json.loads(text)
        concepts = [(c["extent"], c["intent"]) for c in doc["concepts"]]
        covers = [tuple(e) for e in doc["covers"]]
    else:
        concepts, covers = [], []
        for line in text.splitlines()[2:-1]:
            node = _DOT_NODE.match(line)
            edge = _DOT_EDGE.match(line)
            if node and int(node.group(1)) == len(concepts):
                concepts.append((_split(node.group(2)), _split(node.group(3))))
            elif edge:
                covers.append((int(edge.group(1)), int(edge.group(2))))
            else:
                return [f"unexpected DOT line {line!r}"]
    return _check_concept_lattice(inc, concepts, covers)


def _rows_of(incidence: list[str]) -> list[int]:
    return [sum(1 << j for j, ch in enumerate(row) if ch == "X") for row in incidence]


def check_factor(session: Session, text: str) -> list[str]:
    core: BooleanInput = session.data["core"]
    doc = json.loads(text)
    problems = []
    removed = doc["removed"]
    expected_removed = {
        "full_rows": ["full_a"], "empty_rows": ["empty_a"],
        "full_cols": ["full_o"], "empty_cols": ["empty_o"],
    }
    if removed != expected_removed:
        problems.append(f"removed lines {removed} != {expected_removed}")
    got_core = doc["core"]
    if (got_core["attributes"], got_core["objects"]) != (core.attributes, core.objects):
        problems.append("core names differ from the generated core")
        return problems
    if _rows_of(got_core["incidence"]) != core.rows:
        problems.append("core incidence differs from the generated core")
    if doc["reconstruction"] != "exact":
        problems.append("reconstruction is not exact")

    attr_index = {a: i for i, a in enumerate(core.attributes)}
    obj_index = {b: j for j, b in enumerate(core.objects)}
    used_attrs = used_objs = 0
    rebuilt = [0] * len(core.attributes)
    rectangles = [0] * len(core.attributes)
    for block in doc["blocks"]:
        a_bits = _bits(block["attributes"], attr_index)
        o_bits = _bits(block["objects"], obj_index)
        if a_bits & used_attrs or o_bits & used_objs:
            problems.append("blocks overlap")
        used_attrs |= a_bits
        used_objs |= o_bits
        for name, row in zip(block["attributes"], block["incidence"]):
            i = attr_index[name]
            rectangles[i] |= o_bits
            for obj, ch in zip(block["objects"], row):
                if ch == "X":
                    rebuilt[i] |= 1 << obj_index[obj]
    if len(doc["blocks"]) != session.data["blocks"]:
        problems.append(f"{len(doc['blocks'])} blocks, generated {session.data['blocks']}")
    if rebuilt != core.rows:
        problems.append("blocks do not rebuild the core")
    mask = _rows_of(doc["rstar"])
    if mask != rectangles:
        problems.append("R* is not the union of the block rectangles")
    if any(r & ~m for r, m in zip(core.rows, mask)):
        problems.append("R* does not contain R")
    return problems


def check_cn(session: Session, text: str) -> list[str]:
    doc = json.loads(text)
    k = len(doc["atom_pairs"])
    problems = []
    if k != session.data["blocks"]:
        problems.append(f"{k} atoms, generated {session.data['blocks']} blocks")
    if not doc["materialized"] or doc["pair_count"] != 2**k or len(doc["pairs"]) != 2**k:
        problems.append(f"cn does not hold 2^{k} pairs")
    elif len(doc["covers"]) != k * 2 ** (k - 1):
        problems.append(f"{len(doc['covers'])} cn covers, expected {k * 2 ** (k - 1)}")
    return problems


def check_bounds(session: Session, text: str) -> list[str]:
    inc = _Incidence(session.data["core"])
    doc = json.loads(text)
    problems = []
    if len(doc["bounds"]) != session.data["blocks"]:
        problems.append("one bounds record per block expected")
    for rec in doc["bounds"]:
        x = _bits(rec["pair"]["objects"], inc.obj_index)
        y = _bits(rec["pair"]["attrs"], inc.attr_index)
        x_up, y_down = inc.up(x), inc.down(y)
        upper = rec["upper"]
        if (upper is None) != (x_up == 0) or upper is not None and (
            _bits(upper["extent"], inc.obj_index) != x
            or _bits(upper["intent"], inc.attr_index) != x_up
        ):
            problems.append("upper bound is not <X, X-up>")
        lower = rec["lower"]
        if (lower is None) != (y_down == 0) or lower is not None and (
            _bits(lower["extent"], inc.obj_index) != y_down
            or _bits(lower["intent"], inc.attr_index) != y
        ):
            problems.append("lower bound is not <Y-down, Y>")
    return problems


def _fn_pairs(ctx, doc):
    from galois_factor.fuzzy import FuzzyNecessityPair

    return [
        FuzzyNecessityPair(
            ctx.graded_objects({k: Fraction(v) for k, v in p["g"].items()}),
            ctx.graded_attributes({k: Fraction(v) for k, v in p["f"].items()}),
        )
        for p in doc["pairs"]
    ]


def check_fuzzy_session(session: Session, texts: dict[str, str]) -> dict[str, list[str]]:
    """fn against the brute-force oracle; check and lattice for consistency."""
    from galois_factor import io as fio
    from galois_factor import oracles

    ctx = fio.parse_fuzzy_csv(session.jobs[0].source.read_text(), session.data["frame"])
    fn_doc = json.loads(texts["fn"])
    report = oracles.compare_fn(ctx, _fn_pairs(ctx, fn_doc))
    problems = {"fn": [] if report.ok else [f"fn differs from the oracle: {report.mismatches[:3]}"]}

    check_doc = json.loads(texts["check"])
    check_problems = []
    if check_doc["pair_count"] != len(fn_doc["pairs"]) or len(check_doc["rows"]) != len(fn_doc["pairs"]):
        check_problems.append("check does not cover every fn pair")
    elif any(
        (row["g"], row["f"]) != (p["g"], p["f"]) for row, p in zip(check_doc["rows"], fn_doc["pairs"])
    ):
        check_problems.append("check rows do not follow the fn pairs")
    if not check_doc["preconditions"]["top_normalized_rows"]:
        check_problems.append("generated context is not reported top-normalised")
    problems["check"] = check_problems

    lattice_doc = json.loads(texts["lattice"])
    extents = [tuple(Fraction(v) for v in c["extent"].values()) for c in lattice_doc["concepts"]]
    lattice_problems = []
    if len(set(extents)) != len(extents):
        lattice_problems.append("duplicate fuzzy concept extents")
    for lo, hi in lattice_doc["covers"]:
        if extents[lo] == extents[hi] or any(a > b for a, b in zip(extents[lo], extents[hi])):
            lattice_problems.append(f"fuzzy cover {lo}->{hi} is not strict")
            break
    problems["lattice"] = lattice_problems
    return problems


_BOOLEAN_CHECKS = {
    "lattice": check_lattice_boolean,
    "factor": check_factor,
    "cn": check_cn,
    "bounds": check_bounds,
}


def check_session(session: Session, texts: dict[str, str]) -> dict[str, list[str]]:
    """Problems per job name for one session's outputs."""
    if "fn" in texts:
        return check_fuzzy_session(session, texts)
    return {name: _BOOLEAN_CHECKS[name](session, text) for name, text in texts.items()}
