"""Finite lattices and the order-theoretic kernels behind them.

``Lattice(context, kind, keys)`` is the one finite-lattice type: the
concept, fn and fuzzy concept lattices are instances of it, and the cn
lattice is its subclass ``factorization.CnLattice``.  It offers
``len(lattice)``, iteration, indexing, ``cover_lists`` (per element, its
upper covers ascending: the one record of the Hasse edges, which the
writers read), ``covers`` (those edges flattened into sorted ``(lower,
upper)`` index pairs), ``bottom_index`` and ``top_index``; an element's
index is the index of its first key, ``lattice.keys[0].index(key)``.  The
helpers at the end of this module, ``join_irreducibles`` and ``atoms``,
read ``cover_lists``.

A lattice holds its elements as two key lists, ``keys``: index i holds
the two sides' keys of element i, subset bits in concept and cn lattices
and grade numerators in fn and fuzzy concept lattices.  ``kind``, the
element type, builds an element from its keys with ``from_keys(context,
x, y)`` only when it is iterated or indexed.  The lattice order is
``key_le`` on the first keys: inclusion on bits, pointwise on grade
vectors; it is the one <= test on keys, which the graded sets' ``<=``
and the ``check`` propositions read.

Precondition: every lattice lists its elements in a linear extension of
its order, so ``key_le(keys[0][i], keys[0][j])`` with i != j implies
i < j; hence the bottom is index 0 and the top is index n - 1.  The
concept, fn and fuzzy concept enumerations hand their (first key, second
key) pairs to ``sorted_lattice``, the one sort that lists them so (a
subset is a smaller int; a pointwise smaller vector is a lexicographically
smaller tuple); the cn lattice lists its cube by atom bits.
``pointwise_covers`` relies on this and checks it: it finds the Hasse
edges of every lattice but the cn cube's in one reverse pass over the
first keys' bits, grade vectors read as threshold bitmasks, peeling each
element's upper covers off its up-set.

The Boolean concept lattice is enumerated by the scan ``closed_sets``,
FCbO over a Boolean context's row and column bitmasks.  The two graded
lattices, fn's and the fuzzy concepts', are walked by one CbO over the
objects' threshold bits with the lattice's own closure, whose closed sets
are its elements (see ``fuzzy``).  The ``budget`` of either caps the
closure evaluations, the unit of Kuznetsov & Obiedkov (JETAI 2002), fuzzy
ones included: before evaluation budget + 1 it raises
``BudgetExceededError`` with the closed sets yielded so far.  The
``lattice`` (both kinds), ``fn`` and ``check`` commands set it with
``--budget``; the block scans of ``factor --emit dot`` share one
``Budget``.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

from .errors import BudgetExceededError

DEFAULT_ENUM_BUDGET = 10_000_000
# the one cap on a written lattice document's elements (cn's pairs, check's
# rows): covers keep an N-bit mask per element, N**2 / 8 bytes (2 GiB here),
# and each written element takes about 1-2.5 KB of JSON
MAX_ELEMENTS = 1 << 17


class Lattice:
    """The elements of a finite lattice, listed in a linear extension of its
    order, as their ``kind``'s two key lists, and the context they were
    enumerated from."""

    def __init__(self, context: Any, kind: type, keys: tuple[list, list]):
        self.context, self.kind, self.keys = context, kind, keys

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (self.kind, self.keys) == (other.kind, other.keys)

    def __len__(self) -> int:
        return len(self.keys[0])

    def _element(self, x, y):
        return self.kind.from_keys(self.context, x, y)

    def __iter__(self) -> Iterator:
        return map(self._element, *self.keys)

    def __getitem__(self, i: int | slice):
        xs, ys = self.keys
        if isinstance(i, slice):
            return tuple(map(self._element, xs[i], ys[i]))
        return self._element(xs[i], ys[i])

    @cached_property
    def cover_lists(self) -> list[list[int]]:
        """Per element index, the indices of its upper covers, ascending:
        ``pointwise_covers`` of the first keys, one reverse pass over their
        bits.  Shared: do not mutate."""
        return pointwise_covers(self.keys[0])

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """The Hasse edges, sorted: ``cover_lists`` flattened."""
        return tuple((i, j) for i, above in enumerate(self.cover_lists) for j in above)

    @property
    def bottom_index(self) -> int:
        return 0

    @property
    def top_index(self) -> int:
        return len(self) - 1


def sorted_lattice(context: Any, kind: type, pairs: Iterable[tuple]) -> Lattice:
    """The ``Lattice`` of the (first key, second key) ``pairs``, listed by
    increasing distinct first keys: a linear extension of ``key_le``."""
    second = dict(pairs)
    first = sorted(second)
    return Lattice(context, kind, (first, [second[x] for x in first]))


def key_le(a: int | Sequence[int], b: int | Sequence[int]) -> bool:
    """The order on keys: inclusion on subset bits, pointwise <= on grade vectors."""
    if isinstance(a, int):
        return a & ~b == 0
    return all(map(operator.le, a, b))


def read_natural(text: str) -> int:
    """``text`` read as ASCII digits alone, blanks around them aside: ``int``
    would also read a sign, an underscore and other scripts' digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a number in ASCII digits: {text!r}")
    return int(digits)


class Budget:
    """Closure evaluations shared by several scans, Boolean or graded: each
    adds its evaluations and closed sets to ``spent`` and ``found``, so the
    scans together stop before evaluation ``limit`` + 1."""

    def __init__(self, limit: int):
        self.limit, self.spent, self.found = limit, 0, 0


def _and_over(masks: tuple[int, ...], bits: int, out: int) -> int:
    """``out`` ANDed with ``masks[i]`` for every set bit i of ``bits``."""
    # inlined bit walk: a generator here makes concepts() about 20% slower
    while bits:
        low = bits & -bits
        out &= masks[low.bit_length() - 1]
        bits ^= low
    return out


def closed_sets(
    rows: Sequence[int], cols: Sequence[int], budget: int | Budget = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[int, int]]:
    """The (extent bits, intent bits) of every concept of a Boolean context,
    each exactly once, by FCbO (Outrata & Vychodil, *Inf. Sci.* 2012).

    ``rows[j]`` holds the objects of attribute j and ``cols[i]`` the
    attributes of object i.  A depth-first walk with an explicit stack (no
    recursion, whatever the depth) from the top: a node (A, B) closes
    A & rows[j] for each attribute j >= its start outside B, and keeps the
    result D as a child, starting at j + 1, when D agrees with B below j
    (CbO's canonicity test).  A D that fails is recorded as the failure of
    j, which this node's children inherit: a child skips j when that failure
    holds an attribute below j outside the child's intent, since its own
    closure would fail the same way.  ``budget`` is the scan's own cap on
    closure evaluations, or a ``Budget`` it shares with other scans.
    """
    pool = budget if isinstance(budget, Budget) else Budget(budget)
    limit, spent, found = pool.limit, pool.spent, pool.found
    try:
        if spent >= limit:
            raise BudgetExceededError(spent, limit, found=found)
        all_attrs, all_objects = (1 << len(rows)) - 1, (1 << len(cols)) - 1
        top = _and_over(cols, all_objects, all_attrs)
        spent += 1
        found += 1
        yield all_objects, top
        stack = [(all_objects, top, 0, [0] * len(rows))]
        while stack:
            extent, intent, start, failures = stack.pop()
            inherited, children = failures, []
            free = all_attrs & ~intent >> start << start
            while free:
                bit = free & -free
                free ^= bit
                lower, j = bit - 1, bit.bit_length() - 1
                if inherited[j] & lower & ~intent:
                    continue
                if spent >= limit:
                    raise BudgetExceededError(spent, limit, found=found)
                spent += 1
                sub = extent & rows[j]
                closed = _and_over(cols, sub, all_attrs)
                if (closed ^ intent) & lower == 0:
                    found += 1
                    yield sub, closed
                    children.append((sub, closed, j + 1))
                else:
                    if failures is inherited:
                        failures = failures.copy()
                    failures[j] = closed
            stack += [(*child, failures) for child in reversed(children)]
    finally:
        pool.spent, pool.found = spent, found


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def thresholds(grades: Sequence[int], m: int) -> int:
    """Grade g at position x sets bits x*m .. x*m + g - 1: pointwise <= on
    vectors over {0..m} is inclusion, and a grade is its block's bit count."""
    return sum(((1 << g) - 1) << x * m for x, g in enumerate(grades))


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Per position j < ``width``, the bits i of the ``rows`` with bit j set.

    Transposed as text: each row becomes its binary numeral, padded to
    ``width`` and reversed so that character j is position j.  With the last
    row first, column j read top down is the numeral of its bits.  The cost
    is that of the grid written out.
    """
    if not (width and rows):  # format(0, "00b") is "0"; zip() is empty
        return (0,) * width
    numerals = [format(row, f"0{width}b")[::-1] for row in reversed(rows)]
    return tuple(int("".join(col), 2) for col in zip(*numerals))


def pointwise_covers(rows: Sequence[Sequence[int] | int]) -> list[list[int]]:
    """Per row, the indices of its upper covers among distinct grade vectors
    under the pointwise order, ascending.

    ``rows`` are vectors of non-negative grades as tuples, or 0/1 vectors
    as ints whose bit x is the grade at position x (subsets under
    inclusion).  They must be strictly increasing (as tuples, or as ints),
    which makes the listing a linear extension of the pointwise order;
    ``ValueError`` is raised otherwise, never a wrong edge.  More than
    ``MAX_ELEMENTS`` rows raise ``BudgetExceededError`` first.

    Graded rows become their ``thresholds`` first, with m the largest grade
    of any row, so pointwise <= on vectors is inclusion on the ints, and the
    listing is still a linear extension.  From there one reverse pass serves both
    kinds.  ``above[x]`` holds the rows after i with bit x set, so the
    strict up-set of row i is the AND of ``above[x]`` over its set bits x,
    starting from all the rows after i (no earlier row can lie above it).
    Its upper covers are peeled off lowest index first: the lowest index j
    left is minimal, since every row below j comes before it, so j covers
    i; then j and its own up-set, known since j > i, leave.  Cost: O(sum of
    grades + edges) big-int operations, one walk over each row's bits.
    """
    n = len(rows)
    if n > MAX_ELEMENTS:  # before the masks are allocated
        raise BudgetExceededError(n, MAX_ELEMENTS, "lattice elements")
    for i in range(1, n):
        if not rows[i - 1] < rows[i]:
            raise ValueError(f"rows {i - 1} and {i} are not strictly increasing")
    if n and not isinstance(rows[0], int):
        m = max(max(row, default=0) for row in rows)
        rows = [thresholds(row, m) for row in rows]
    above = [0] * max(rows, default=0).bit_length()
    blocked = [0] * n
    covers: list[list[int]] = [[]] * n
    later = 0
    for i in reversed(range(n)):
        bit, up, row = 1 << i, later, rows[i]
        # inlined bit walk, as in _and_over: no generator per row
        while row:
            low = row & -row
            x = low.bit_length() - 1
            up &= above[x]
            above[x] |= bit
            row ^= low
        blocked[i] = ~(up | bit)
        cover = covers[i] = []
        while up:
            j = (up & -up).bit_length() - 1
            cover.append(j)
            up &= blocked[j]
        later |= bit
    return covers


def join_irreducibles(lattice) -> list[int]:
    """Indices of the elements with exactly one lower cover, ascending.

    In a finite lattice those are the join-irreducible elements: the
    bottom has no lower cover, and two distinct ones join to the element.
    """
    lower_counts = [0] * len(lattice)
    for above in lattice.cover_lists:
        for j in above:
            lower_counts[j] += 1
    return [i for i, count in enumerate(lower_counts) if count == 1]


def atoms(lattice) -> list[int]:
    """Indices of the elements covering the bottom element, ascending."""
    return list(lattice.cover_lists[0])
