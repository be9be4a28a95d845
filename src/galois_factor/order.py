"""Finite lattices and the order-theoretic kernels behind them.

``Lattice(context, elements)`` is the one finite-lattice type: the concept,
fn and fuzzy concept lattices are instances of it, and the cn lattice is
its subclass ``factorization.CnLattice``.  It offers ``len(lattice)``,
iteration, indexing, ``le(i, j)`` (reflexive order on element indices),
``covers`` (the Hasse edges as sorted ``(lower, upper)`` index pairs),
``cover_lists`` (per element, its upper covers ascending; the writers'
one source of Hasse edges), ``bottom_index``, ``top_index``,
``index_of``, ``find_extent``, ``upper_covers`` and ``lower_covers``.  The helpers at the end of this
module work against that surface.

Every element type has an ``order_key``: the extent bits of a formal
concept, the object bits of a necessity pair, the object grades g of a
fuzzy necessity pair and the extent grades of a multi-adjoint concept.  The
lattice order is the pointwise order on those keys (inclusion, on bits).

Precondition: every lattice lists its elements in a linear extension of
its order, so ``le(i, j)`` with i != j implies i < j; hence the bottom is
index 0 and the top is index n - 1.  The enumerations list their elements
in increasing key order (subset implies a smaller int; pointwise <=
implies lexicographically <=).  ``pointwise_covers`` relies on this and
checks it; ``join_irreducibles`` reads only ``covers``.

The concept, fn and fuzzy concept enumerations run through ``closed_sets``
or ``graded_closed_sets``.  Their ``budget`` caps the closure evaluations,
the unit of Kuznetsov & Obiedkov (JETAI 2002): before evaluation
budget + 1 a scan raises ``BudgetExceededError`` with the closed sets
yielded so far.  The ``lattice`` (both kinds), ``fn`` and ``check``
commands set it with ``--budget``; the block scans of ``factor --emit
dot`` share one ``Budget``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

from .errors import BudgetExceededError

DEFAULT_ENUM_BUDGET = 10_000_000


@dataclass(frozen=True)
class Lattice:
    """The elements of a finite lattice, listed in a linear extension of its
    order, and the context they were enumerated from."""

    context: Any = field(compare=False, repr=False)
    elements: tuple | None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __getitem__(self, i: int):
        return self.elements[i]

    def le(self, i: int, j: int) -> bool:
        a, b = self[i].order_key, self[j].order_key
        if isinstance(a, int):
            return a & ~b == 0
        return all(map(operator.le, a, b))

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return pointwise_covers([e.order_key for e in self])

    @cached_property
    def cover_lists(self) -> list[list[int]]:
        """Per element index, the indices of its upper covers, ascending;
        ``covers`` is these, flattened.  Shared: do not mutate."""
        ups: list[list[int]] = [[] for _ in range(len(self))]
        for lower, upper in self.covers:
            ups[lower].append(upper)
        return ups

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self) - 1

    def index_of(self, element) -> int:
        for i, e in enumerate(self):
            if e == element:
                return i
        raise ValueError(f"{element!r} is not in the lattice")

    def find_extent(self, extent):
        """The element whose extent equals ``extent``, or None."""
        for e in self:
            if e.extent == extent:
                return e
        return None

    def upper_covers(self, i: int) -> tuple[int, ...]:
        return tuple(self.cover_lists[i])

    def lower_covers(self, i: int) -> tuple[int, ...]:
        return tuple(l for (l, u) in self.covers if u == i)


class Budget:
    """Closure evaluations shared by several ``closed_sets`` scans: each scan
    adds its evaluations and closed sets to ``spent`` and ``found``, so the
    scans together stop before evaluation ``limit`` + 1."""

    def __init__(self, limit: int):
        self.limit, self.spent, self.found = limit, 0, 0


def closed_sets(
    n: int, close: Callable[[int], int], budget: int | Budget = DEFAULT_ENUM_BUDGET
) -> Iterator[int]:
    """Enumerate all fixpoints of a closure operator on bitmasks over n bits.

    ``close`` must be extensive, monotone and idempotent on subsets of
    ``{0, .., n-1}`` encoded as ints.  Classic lectic ("NextClosure") scan:
    polynomial delay, each closed set produced exactly once, in lectic order.
    An operator that is not a closure raises ``RuntimeError`` or ends the
    scan; it never makes the scan repeat a set.  ``budget`` is the scan's
    own cap, or a ``Budget`` it shares with other scans.
    """
    pool = budget if isinstance(budget, Budget) else Budget(budget)
    limit, spent, found = pool.limit, pool.spent, pool.found
    try:
        if spent >= limit:
            raise BudgetExceededError(spent, limit, found=found)
        full = (1 << n) - 1
        current = close(0)
        spent += 1
        found += 1
        yield current
        while current != full:
            for i in reversed(range(n)):
                bit = 1 << i
                if current & bit:
                    current &= ~bit
                else:
                    if spent >= limit:
                        raise BudgetExceededError(spent, limit, found=found)
                    spent += 1
                    candidate = close(current | bit)
                    # lectic successor: the same bits below position i, plus i;
                    # an extensive close always keeps i, and the test keeps the
                    # scan strictly increasing, hence finite, on any operator
                    if candidate & bit and (candidate ^ current) & (bit - 1) == 0:
                        current = candidate
                        found += 1
                        yield current
                        break
            else:
                raise RuntimeError("closure enumeration failed to advance")
    finally:
        pool.spent, pool.found = spent, found


def graded_closed_sets(
    n: int,
    m: int,
    close: Callable[[tuple[int, ...]], tuple[int, ...]],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Enumerate all fixpoints of a closure operator on the grid {0..m}^n.

    ``close`` must be extensive, monotone and idempotent on grade vectors
    ordered pointwise.  Graded lectic ("NextClosure") scan after Belohlavek,
    *Algorithms for fuzzy concept lattices* (2002), and Belohlavek, De Baets,
    Outrata & Vychodil, *Computing the lattice of all fixpoints of a fuzzy
    closure operator* (2010): each closed vector is produced exactly once, in
    increasing tuple order, which for m = 1 is the order of ``closed_sets``.

    The successor of ``current`` raises one position i, from the last to the
    first, by one grade with everything after i reset to 0, and takes the
    closure C of that vector if C agrees with ``current`` before i.  When C
    keeps the prefix, raising position i to any a <= C[i] closes to the same
    C; when C changes it, every larger raise changes it too (the closure is
    monotone).  So one closure per position decides, as in the Boolean scan.
    """
    if budget < 1:
        raise BudgetExceededError(0, budget, found=0)
    top = (m,) * n
    current = close((0,) * n)
    spent = found = 1
    yield current
    while current != top:
        for i in reversed(range(n)):
            if current[i] == m:
                continue
            if spent >= budget:
                raise BudgetExceededError(spent, budget, found=found)
            spent += 1
            prefix = current[:i]
            candidate = close(prefix + (current[i] + 1,) + (0,) * (n - i - 1))
            # the second test holds for any extensive close; it keeps the
            # scan strictly increasing, hence finite, on any operator
            if candidate[:i] == prefix and candidate[i] > current[i]:
                current = candidate
                found += 1
                yield current
                break
        else:  # pragma: no cover - cannot happen for a closure operator
            raise RuntimeError("graded closure enumeration failed to advance")


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pointwise_covers(rows: Sequence[Sequence[int] | int]) -> tuple[tuple[int, int], ...]:
    """Hasse edges of distinct grade vectors under the pointwise order.

    ``rows`` are vectors of non-negative grades as tuples, or 0/1 vectors
    as ints whose bit x is the grade at position x (subsets under
    inclusion).  They must be strictly increasing (as tuples, or as ints),
    which makes the listing a linear extension of the pointwise order;
    ``ValueError`` is raised otherwise, never a wrong edge.

    For each position x and grade a >= 1, ``above[x, a]`` is the bitmask of
    rows whose grade at x is at least a.  The strict up-set of row i is the
    AND of the thresholds its non-zero grades name, with bits 0..i masked
    off (no earlier row can lie above it).  Its upper covers are peeled off
    lowest index first: the lowest index j left is minimal, since every row
    below j comes before it, so (i, j) is an edge, and j and the up-set of j
    leave.  Cost: O(sum of grades + edges) big-int operations.  The edges
    come out sorted.
    """
    n = len(rows)
    for i in range(1, n):
        if not rows[i - 1] < rows[i]:
            raise ValueError(f"rows {i - 1} and {i} are not strictly increasing")
    above: dict[tuple[int, int], int] = {}
    for i, row in enumerate(rows):
        bit = 1 << i
        for x, g in _support(row):
            for a in range(1, g + 1):
                above[x, a] = above.get((x, a), 0) | bit

    full = (1 << n) - 1
    ups = []
    for i, row in enumerate(rows):
        up = full >> (i + 1) << (i + 1)
        for key in _support(row):
            up &= above[key]
        ups.append(up)
    edges = []
    for i, up in enumerate(ups):
        while up:
            low = up & -up
            j = low.bit_length() - 1
            edges.append((i, j))
            up &= ~(low | ups[j])
    return tuple(edges)


def _support(row: Sequence[int] | int) -> Iterator[tuple[int, int]]:
    """(position, grade) for each non-zero grade of a row."""
    if isinstance(row, int):
        return ((x, 1) for x in set_bits(row))
    return ((x, g) for x, g in enumerate(row) if g)


def is_join_irreducible(lattice, element) -> bool:
    """Whether an element (given by index or by value) is join-irreducible.

    In a finite lattice that is exactly: it has one lower cover.  The
    bottom has none; two distinct lower covers join to the element.
    """
    index = element if isinstance(element, int) else lattice.index_of(element)
    return sum(1 for _, upper in lattice.covers if upper == index) == 1


def join_irreducibles(lattice) -> list[int]:
    """Indices of the elements with exactly one lower cover, ascending."""
    lower_covers = [0] * len(lattice)
    for _, upper in lattice.covers:
        lower_covers[upper] += 1
    return [i for i, count in enumerate(lower_covers) if count == 1]


def atoms(lattice) -> list[int]:
    """Indices of the elements covering the bottom element."""
    return sorted(u for (l, u) in lattice.covers if l == lattice.bottom_index)
