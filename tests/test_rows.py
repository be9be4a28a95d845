"""Bitmask rows against naive code over the bool grid.

A ``BooleanContext`` stores its relation only as ``rows``; ``incidence``,
``cols`` and the incidence of the R* context are views of them.  ``normalize``,
``restrict`` and ``reassemble`` work on the bits.  Here they are checked
against in-test versions that loop over ``incidence`` cell by cell, on
seeded random contexts with planted full and empty rows and columns.
"""

import random

from galois_factor import BooleanContext, factorize, normalize, reassemble, restrict, rstar


def planted_context(rng: random.Random) -> BooleanContext:
    """A random grid with some rows and columns made full or empty.

    One draw in ten is wider than 64 objects, so rows span several machine
    words.
    """
    n_attrs = rng.randint(1, 8)
    n_objs = rng.randint(65, 80) if rng.random() < 0.1 else rng.randint(1, 8)
    density = rng.choice((0.0, 0.3, 0.5, 0.8, 1.0))
    grid = [[rng.random() < density for _ in range(n_objs)] for _ in range(n_attrs)]
    for _ in range(rng.randint(0, 3)):
        value = rng.random() < 0.5
        if rng.random() < 0.5:
            grid[rng.randrange(n_attrs)] = [value] * n_objs
        else:
            j = rng.randrange(n_objs)
            for row in grid:
                row[j] = value
    return BooleanContext.from_rows(
        [f"a{i}" for i in range(n_attrs)], [f"b{j}" for j in range(n_objs)], grid
    )


def contexts(seed: int, count: int = 400):
    rng = random.Random(seed)
    return [planted_context(rng) for _ in range(count)]


def naive_normalize(ctx: BooleanContext):
    """Strip full/empty lines cell by cell until none is left.

    Returns the four removal lists and the kept attribute and object indices.
    """
    attrs = list(range(len(ctx.attributes)))
    objs = list(range(len(ctx.objects)))
    removed = {"full_rows": [], "empty_rows": [], "full_cols": [], "empty_cols": []}
    while True:
        rows = {i: [ctx.incidence[i][j] for j in objs] for i in attrs}
        cols = {j: [ctx.incidence[i][j] for i in attrs] for j in objs}
        drop_rows = {i for i, cells in rows.items() if all(cells) or not any(cells)}
        drop_cols = {j for j, cells in cols.items() if all(cells) or not any(cells)}
        if not drop_rows and not drop_cols:
            break
        for i in sorted(drop_rows):
            full = rows[i] and all(rows[i])
            removed["full_rows" if full else "empty_rows"].append(ctx.attributes[i])
        for j in sorted(drop_cols):
            full = cols[j] and all(cols[j])
            removed["full_cols" if full else "empty_cols"].append(ctx.objects[j])
        attrs = [i for i in attrs if i not in drop_rows]
        objs = [j for j in objs if j not in drop_cols]
    return removed, attrs, objs


def naive_grid(ctx: BooleanContext, attrs, objs):
    return tuple(tuple(ctx.incidence[i][j] for j in objs) for i in attrs)


def test_views_agree_with_rows():
    for ctx in contexts(seed=11):
        width = len(ctx.objects)
        assert len(ctx.incidence) == len(ctx.rows)
        for i, row in enumerate(ctx.rows):
            assert ctx.incidence[i] == tuple(bool(row >> j & 1) for j in range(width))
        assert len(ctx.cols) == width
        for j, col in enumerate(ctx.cols):
            assert col == sum(1 << i for i, row in enumerate(ctx.incidence) if row[j])
        core = normalize(ctx).core
        if core.objects:
            mask = rstar(core)
            assert (mask.attributes, mask.objects) == (core.attributes, core.objects)
            assert len(mask.incidence) == len(mask.rows) == len(core.attributes)
            for cells, row in zip(mask.incidence, mask.rows):
                assert cells == tuple(bool(row >> j & 1) for j in range(len(core.objects)))


def test_normalize_matches_the_cell_by_cell_version():
    collapsed = 0
    for ctx in contexts(seed=12):
        report = normalize(ctx)
        removed, attrs, objs = naive_normalize(ctx)
        assert report.removed_full_rows == tuple(removed["full_rows"])
        assert report.removed_empty_rows == tuple(removed["empty_rows"])
        assert report.removed_full_cols == tuple(removed["full_cols"])
        assert report.removed_empty_cols == tuple(removed["empty_cols"])
        core = report.core
        assert core.attributes == tuple(ctx.attributes[i] for i in attrs)
        assert core.objects == tuple(ctx.objects[j] for j in objs)
        assert core.incidence == naive_grid(ctx, attrs, objs)
        collapsed += not core.attributes and not core.objects
    assert collapsed >= 20  # the planted lines often strip everything


def test_restrict_matches_the_cell_by_cell_version():
    rng = random.Random(13)
    for ctx in contexts(seed=14):
        attrs = sorted(rng.sample(range(len(ctx.attributes)), rng.randint(0, len(ctx.attributes))))
        objs = sorted(rng.sample(range(len(ctx.objects)), rng.randint(0, len(ctx.objects))))
        sub = restrict(ctx, ctx.object_set(objs), ctx.attribute_set(attrs))
        assert sub.attributes == tuple(ctx.attributes[i] for i in attrs)
        assert sub.objects == tuple(ctx.objects[j] for j in objs)
        assert sub.incidence == naive_grid(ctx, attrs, objs)


def test_reassemble_matches_the_cell_by_cell_version():
    for ctx in contexts(seed=15):
        result = factorize(ctx)
        core = result.core
        grid = [[False] * len(core.objects) for _ in core.attributes]
        for block in result.blocks:
            for bi, i in enumerate(block.attrs.indices):
                for bj, j in enumerate(block.objects.indices):
                    grid[i][j] = grid[i][j] or block.context.incidence[bi][bj]
        rebuilt = reassemble(result)
        assert rebuilt.incidence == tuple(map(tuple, grid))
        assert rebuilt == core
