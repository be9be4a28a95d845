"""Seeded input generators and session definitions for the three workloads.

Each workload draws a fixed family of base contexts from a random stream
named after the workload, the same for every run.  The run seed then
permutes the attributes and objects of every base context and orders the
sessions, so the same seed writes byte-identical input files and every
seed runs the same amount of work in other bytes and another order.  Fresh
random contexts of the sizes below vary too much in cost to compare runs:
at 30 x 30 and density 0.37 one draw has 700 concepts and the next 1,500,
and the generic covers cost grows with the cube of that.

The program under test only sees the written files (or the contexts it
parses from them).  A *session* is the fixed sequence of jobs a user runs
to analyse one context; a job is a ``galois_factor.cli.main(argv)`` call
or the paper's interval pipeline (``bounds_pipeline`` below).

Boolean contexts are held here as a list of attribute rows, each row an int
whose bit j says that the attribute relates to object j.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Job:
    """One step of a session: a CLI call (``argv``) or the bounds pipeline."""

    name: str
    source: Path  # input file the job reads
    out: Path  # output file the job writes
    argv: tuple[str, ...] | None = None  # None means the library pipeline


@dataclass
class BooleanInput:
    attributes: list[str]
    objects: list[str]
    rows: list[int]  # per attribute, object bitmask


@dataclass
class Session:
    """One generated context and the jobs run on it."""

    key: str
    jobs: list[Job]
    data: dict = field(default_factory=dict)  # what the checks need to know


# ------------------------------------------------------------------ writers


def format_cxt(ctx: BooleanInput) -> str:
    """Burmeister form: header, object names, attribute names, object rows."""
    lines = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    lines += ctx.objects
    lines += ctx.attributes
    for j in range(len(ctx.objects)):
        lines.append("".join("X" if row >> j & 1 else "." for row in ctx.rows))
    return "\n".join(lines) + "\n"


def format_csv(attributes: list[str], objects: list[str], grades, m: int) -> str:
    lines = ["R," + ",".join(objects)]
    for name, row in zip(attributes, grades):
        lines.append(name + "," + ",".join(str(Fraction(v, m)) for v in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- generators


def _random_rows(rng: random.Random, n_attrs: int, n_objs: int, density: float) -> list[int]:
    rows = []
    for _ in range(n_attrs):
        bits = 0
        for j in range(n_objs):
            if rng.random() < density:
                bits |= 1 << j
        rows.append(bits)
    return rows


def _connected(rows: list[int], n_objs: int) -> bool:
    """Whether the bipartite incidence graph is connected (no isolated line)."""
    if not rows or any(r == 0 for r in rows):
        return False
    reached_attrs = {0}
    reached_objs = rows[0]
    grew = True
    while grew:
        grew = False
        for i, row in enumerate(rows):
            if i not in reached_attrs and row & reached_objs:
                reached_attrs.add(i)
                reached_objs |= row
                grew = True
    return len(reached_attrs) == len(rows) and reached_objs == (1 << n_objs) - 1


def _permute_rows(rows: list[int], attr_order, obj_order) -> list[int]:
    """Rows reordered by ``attr_order`` with bits reordered by ``obj_order``."""
    out = []
    for i in attr_order:
        bits = 0
        for new, old in enumerate(obj_order):
            if rows[i] >> old & 1:
                bits |= 1 << new
        out.append(bits)
    return out


def _shuffled(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(n), n)


def _boolean(rows: list[int], n_objs: int) -> BooleanInput:
    return BooleanInput(
        [f"a{i}" for i in range(len(rows))], [f"o{j}" for j in range(n_objs)], rows
    )


# ---------------------------------------------------------------- workloads


class Workload:
    """A named input family; ``sessions`` writes its files under ``work``."""

    name: str
    why: str  # one line: what the workload loads and why it was chosen
    size: str  # one line: the input sizes that define it
    pool: int  # contexts per pass
    # Seconds one untraced pass takes on the reference machine (2-core x86-64
    # container, Python 3.11); sets how many passes a run of --seconds makes.
    pass_seconds: float

    def sessions(self, seed: int, work: Path, smoke: bool) -> list[Session]:
        raise NotImplementedError


def seeded_order(seed: int, n: int) -> list[int]:
    """The order of one pass over ``n`` sessions."""
    return _shuffled(random.Random(f"order-{seed}"), n)


class LatticeDense(Workload):
    name = "lattice-dense"
    why = (
        "the most common command: the generic cubic order.hasse_covers does most of "
        "the work, enumeration and serialisation the rest; no factorization or fuzzy "
        "code runs"
    )
    size = "random Boolean contexts, 26-32 attributes x 26-32 objects at density 0.33-0.40"
    pool = 20
    pass_seconds = 10.7

    def sessions(self, seed, work, smoke):
        family = random.Random(self.name)
        rng = random.Random(seed)
        out = []
        for k in range(4 if smoke else self.pool):
            # sizes and densities follow a fixed stratified schedule
            if smoke:
                n_attrs, n_objs, density = 6 + k % 3, 6 + (2 * k) % 3, 0.4
            else:
                n_attrs = 26 + k % 7
                n_objs = 26 + (3 * k + k // 7) % 7
                density = 0.33 + 0.07 * ((k * 0.6180339887) % 1.0)
            base = _random_rows(family, n_attrs, n_objs, density)
            ctx = _boolean(
                _permute_rows(base, _shuffled(rng, n_attrs), _shuffled(rng, n_objs)), n_objs
            )
            key = f"c{k:02d}"
            path = work / f"{key}.cxt"
            path.write_text(format_cxt(ctx))
            emit = "json" if k % 2 == 0 else "dot"
            dest = work / f"{key}.lattice.{emit}"
            job = Job("lattice", path, dest, ("lattice", str(path), "--emit", emit, "--out", str(dest)))
            out.append(Session(key, [job], {"context": ctx, "emit": emit}))
        return out


class FactorBlocks(Workload):
    name = "factor-blocks"
    why = (
        "13 atoms stays under the 20-atom ceiling, so cn builds all 8,192 "
        "necessity-closed pairs: cn JSON, the literal R* intersection and concepts "
        "of the wide sparse core dominate"
    )
    size = (
        "13 connected blocks of 6-9 attributes x 6-9 objects at density 0.3, rows and "
        "columns shuffled, plus 2 full and 2 empty lines"
    )
    pool = 4
    pass_seconds = 5.9
    blocks = 13

    def _blocks(self, rng: random.Random, smoke: bool) -> list[tuple[int, list[int]]]:
        """Connected random blocks as (object count, attribute rows)."""
        lo, hi = (2, 3) if smoke else (6, 9)
        density = 0.5 if smoke else 0.3
        out = []
        for _ in range(3 if smoke else self.blocks):
            n_attrs, n_objs = rng.randint(lo, hi), rng.randint(lo, hi)
            while True:
                rows = _random_rows(rng, n_attrs, n_objs, density)
                if _connected(rows, n_objs):
                    out.append((n_objs, rows))
                    break
        return out

    def _context(self, blocks, rng: random.Random) -> tuple[BooleanInput, BooleanInput]:
        """The core plus four lines, and the shuffled block-diagonal core.

        The full attribute row misses the empty object column and the empty
        attribute row meets the full object column, so ``normalize`` needs a
        second pass to strip the rows after the columns.
        """
        diagonal = []
        n_objs = 0
        for width, rows in blocks:
            diagonal += [row << n_objs for row in rows]
            n_objs += width
        core = _boolean(
            _permute_rows(diagonal, _shuffled(rng, len(diagonal)), _shuffled(rng, n_objs)),
            n_objs,
        )
        attributes = list(core.attributes)
        objects = list(core.objects)
        for name in ("full_a", "empty_a"):
            attributes.insert(rng.randint(0, len(attributes)), name)
        for name in ("full_o", "empty_o"):
            objects.insert(rng.randint(0, len(objects)), name)
        bit = {name: 1 << j for j, name in enumerate(objects)}
        core_bits = [bit[name] for name in core.objects]
        by_name = dict(zip(core.attributes, core.rows))
        rows = []
        for name in attributes:
            if name == "full_a":
                rows.append(sum(bit.values()) - bit["empty_o"])
            elif name == "empty_a":
                rows.append(bit["full_o"])
            else:
                row = by_name[name]
                rows.append(bit["full_o"] + sum(b for j, b in enumerate(core_bits) if row >> j & 1))
        return BooleanInput(attributes, objects, rows), core

    def sessions(self, seed, work, smoke):
        family = random.Random(self.name)
        rng = random.Random(seed)
        out = []
        for k in range(2 if smoke else self.pool):
            blocks = self._blocks(family, smoke)
            ctx, core = self._context(blocks, rng)
            key = f"c{k:02d}"
            ctx_path = work / f"{key}.cxt"
            core_path = work / f"{key}.core.cxt"
            ctx_path.write_text(format_cxt(ctx))
            core_path.write_text(format_cxt(core))  # cn refuses un-normalised input
            jobs = []
            for name, source in (("factor", ctx_path), ("cn", core_path), ("bounds", ctx_path)):
                dest = work / f"{key}.{name}.json"
                argv = None if name == "bounds" else (name, str(source), "--out", str(dest))
                jobs.append(Job(name, source, dest, argv))
            out.append(Session(key, jobs, {"core": core, "blocks": len(blocks)}))
        return out


def bounds_pipeline(cli, source: Path, out: Path) -> int:
    """The paper's interval pipeline: factorize, concepts of the core, bounds.

    Calls go through the module handles of ``cli`` so that a traced run sees
    them exactly as it sees the CLI's own calls.
    """
    ctx = cli.fio.parse_cxt(source.read_text())
    result = cli.fz.factorize(ctx)
    lattice = cli.concepts(result.core)
    bounds = [
        cli.fz.block_bounds(result.core, cli.fz.NecessityPair(b.objects, b.attrs), lattice)
        for b in result.blocks
    ]
    payload = {"type": "block-bounds-list", "bounds": [cli.fio.to_jsonable(b) for b in bounds]}
    out.write_text(cli.fio.emit_json(payload))
    return 0


class FuzzyGrid(Workload):
    name = "fuzzy-grid"
    why = (
        "the |L2|^|B| = 15,625-candidate grid scans set the median session and generic "
        "covers on Lukasiewicz concept lattices the heavy tail; no Boolean code runs"
    )
    size = (
        "top-normalised fuzzy CSVs, 6 objects x 5-7 attributes at m = 4, cycling "
        "godel:4, lukasiewicz:4 and dprod:4,4,4"
    )
    frames = ("godel:4", "lukasiewicz:4", "dprod:4,4,4")
    pool = 9
    pass_seconds = 13.0
    m = 4
    profile = (4, 0, 0, 0, 2, 3)  # one row's grades, as numerators over m
    smoke_profile = (4, 0, 0, 2)

    def _grades(self, rng: random.Random, n_attrs: int, profile) -> list[list[int]]:
        """Top-normalised rows, each a shuffle of one fixed grade profile.

        Every row holds the top grade once and the bottom grade at least
        twice; every column must hold a bottom and a non-bottom grade.
        """
        while True:
            rows = [rng.sample(profile, len(profile)) for _ in range(n_attrs)]
            if all(0 in col and any(col) for col in zip(*rows)):
                return rows

    def sessions(self, seed, work, smoke):
        family = random.Random(self.name)
        rng = random.Random(seed)
        profile = self.smoke_profile if smoke else self.profile
        n_objs = len(profile)
        out = []
        for k in range(3 if smoke else self.pool):
            frame = self.frames[k % 3]
            n_attrs = (3 if smoke else 5) + (k // 3) % 3
            base = self._grades(family, n_attrs, profile)
            obj_order = _shuffled(rng, n_objs)
            grades = [[base[i][j] for j in obj_order] for i in _shuffled(rng, n_attrs)]
            key = f"c{k:02d}"
            path = work / f"{key}.csv"
            attributes = [f"a{i}" for i in range(n_attrs)]
            objects = [f"b{j}" for j in range(n_objs)]
            path.write_text(format_csv(attributes, objects, grades, self.m))
            jobs = []
            for name, extra in (("fn", ()), ("check", ("--pairs", "all")), ("lattice", ())):
                dest = work / f"{key}.{name}.json"
                argv = (name, str(path), "--frame", frame, *extra, "--out", str(dest))
                jobs.append(Job(name, path, dest, argv))
            out.append(Session(key, jobs, {"frame": frame}))
        return out


WORKLOADS = {w.name: w for w in (LatticeDense(), FactorBlocks(), FuzzyGrid())}
