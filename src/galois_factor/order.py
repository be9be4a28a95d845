"""Order-theoretic helpers shared by the lattice types.

Every lattice in this package is finite and exposes ``len(lattice)``,
``lattice.le(i, j)`` (reflexive order on element indices) and
``lattice.covers`` (the Hasse edges as ``(lower, upper)`` index pairs).
The functions here work against that minimal surface.
"""

from __future__ import annotations

from typing import Callable, Iterator


def closed_sets(n: int, close: Callable[[int], int]) -> Iterator[int]:
    """Enumerate all fixpoints of a closure operator on bitmasks over n bits.

    ``close`` must be extensive, monotone and idempotent on subsets of
    ``{0, .., n-1}`` encoded as ints.  Classic lectic ("NextClosure") scan:
    polynomial delay, each closed set produced exactly once, in lectic order.
    """
    full = (1 << n) - 1
    current = close(0)
    yield current
    while current != full:
        for i in reversed(range(n)):
            bit = 1 << i
            if current & bit:
                current &= ~bit
            else:
                candidate = close(current | bit)
                # lectic successor: nothing new may appear below position i
                if (candidate & ~current) & (bit - 1) == 0:
                    current = candidate
                    yield current
                    break
        else:  # pragma: no cover - cannot happen for a closure operator
            raise RuntimeError("closure enumeration failed to advance")


def graded_closed_sets(
    n: int, m: int, close: Callable[[tuple[int, ...]], tuple[int, ...]]
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
    top = (m,) * n
    current = close((0,) * n)
    yield current
    while current != top:
        for i in reversed(range(n)):
            if current[i] == m:
                continue
            prefix = current[:i]
            candidate = close(prefix + (current[i] + 1,) + (0,) * (n - i - 1))
            # the second test holds for any extensive close; it keeps the
            # scan strictly increasing, hence finite, on any operator
            if candidate[:i] == prefix and candidate[i] > current[i]:
                current = candidate
                yield current
                break
        else:  # pragma: no cover - cannot happen for a closure operator
            raise RuntimeError("graded closure enumeration failed to advance")


def hasse_covers(n: int, le: Callable[[int, int], bool]) -> tuple[tuple[int, int], ...]:
    """Transitive reduction of a finite order given by a reflexive ``le``."""
    covers = []
    for j in range(n):
        lowers = [i for i in range(n) if i != j and le(i, j)]
        for i in lowers:
            if not any(k != i and le(i, k) for k in lowers):
                covers.append((i, j))
    return tuple(sorted(covers))


def bottom_index(lattice) -> int:
    n = len(lattice)
    for i in range(n):
        if all(lattice.le(i, j) for j in range(n)):
            return i
    raise ValueError("order has no bottom element")


def top_index(lattice) -> int:
    n = len(lattice)
    for i in range(n):
        if all(lattice.le(j, i) for j in range(n)):
            return i
    raise ValueError("order has no top element")


def join_index(lattice, i: int, j: int) -> int:
    """Index of the least upper bound of elements i and j."""
    n = len(lattice)
    uppers = [k for k in range(n) if lattice.le(i, k) and lattice.le(j, k)]
    for k in uppers:
        if all(lattice.le(k, u) for u in uppers):
            return k
    raise ValueError(f"elements {i} and {j} have no join; not a lattice")


def is_join_irreducible(lattice, element) -> bool:
    """Whether an element (given by index or by value) is join-irreducible.

    Non-bottom, and not the join of two strictly smaller elements.  Any
    witness pair can be replaced by lower covers of the element, so it
    suffices to test pairs of distinct lower covers.
    """
    index = element if isinstance(element, int) else lattice.index_of(element)
    bottom = bottom_index(lattice)
    if index == bottom:
        return False
    lower_covers = [l for (l, u) in lattice.covers if u == index]
    for a in range(len(lower_covers)):
        for b in range(a + 1, len(lower_covers)):
            if join_index(lattice, lower_covers[a], lower_covers[b]) == index:
                return False
    return True


def join_irreducibles(lattice) -> list[int]:
    return [i for i in range(len(lattice)) if is_join_irreducible(lattice, i)]


def atoms(lattice) -> list[int]:
    """Indices of the elements covering the bottom element."""
    bottom = bottom_index(lattice)
    return sorted(u for (l, u) in lattice.covers if l == bottom)
