"""Finite grade chains and adjoint triples.

Grades live on a regular partition of the unit interval into m pieces and
are stored as integer numerators over a fixed denominator m, so equality
and order are exact integer comparisons.  An adjoint triple is its
conjunctor, a dense lookup table over the (small) chains: on finite
chains the two residua linked to it by the adjoint property

    x <= res_left(z, y)  iff  conj(x, y) <= z  iff  y <= res_right(z, x)

exist exactly when the conjunctor is monotone and zero-preserving, and
are then fixed by it.  ``AdjointTriple`` checks that and derives both
residuum tables, in O(m^2), when it is built; no triple holds tables
that fail the property.  ``oracles.residua_by_adjointness`` is the
exhaustive twin of that derivation, and ``oracles.brute_adjointness_witness``
the naive O(m^3) check of the property on raw tables.  A ``Grade`` has no
order of its own: code compares numerators.  Grade strings go through
``read_grade``, which refuses the ones ``Fraction`` would stall on or reads
differently across Python versions; ``GradeChain.numerator_of_fraction``
places a grade already read, so the parsers read each cell once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

from .errors import AdjointnessError
from .order import read_natural

# the finest chain: a triple's tables have (m + 1)**2 entries, so at m = 256
# building a triple, checks and derived residua included, takes about 0.02 s
# and holds 1.1 MB
MAX_GRANULARITY = 256

# ``Fraction`` builds 10**k for a decimal exponent k, hundreds of megabytes
# for ``1e-999999999``, so a longer string or a larger exponent is refused first
MAX_GRADE_CHARS = 64
MAX_GRADE_EXPONENT = 64

# an error message names a value only below this size; ``str`` of an int
# past 4300 digits raises instead
_LARGEST_SHOWN = 10**MAX_GRADE_CHARS


def read_grade(value) -> Fraction:
    """A grade value (number or string) as a ``Fraction``, or ``ValueError``.

    A string over ``MAX_GRADE_CHARS`` characters, or a string or ``Decimal``
    with a decimal exponent beyond ``MAX_GRADE_EXPONENT``, is refused before
    ``Fraction`` sees it.  An infinite or NaN number is refused as well.  A
    string is stripped, and refused if it still holds an underscore or a
    blank: ``Fraction`` reads those differently on different Pythons.
    """
    exponent = 0
    if isinstance(value, str):
        if len(value) > MAX_GRADE_CHARS:
            raise ValueError(f"grade of {len(value)} characters, over {MAX_GRADE_CHARS}")
        value = value.strip()
        if "_" in value or value.split() != [value]:
            raise ValueError(f"cannot read grade {value!r}")
        try:
            exponent = int(value.lower().partition("e")[2])
        except ValueError:  # no exponent, or an unreadable one that Fraction refuses
            pass
    elif isinstance(value, Decimal) and value.is_finite():
        exponent = value.as_tuple().exponent
    if abs(exponent) > MAX_GRADE_EXPONENT:
        raise ValueError(f"grade {value!r} has a decimal exponent beyond {MAX_GRADE_EXPONENT}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise ValueError(f"cannot read grade {value!r}") from None


@dataclass(frozen=True)
class GradeChain:
    """The chain 0/m < 1/m < ... < m/m, for 1 <= m <= ``MAX_GRANULARITY``."""

    m: int

    def __post_init__(self):
        if not 1 <= self.m <= MAX_GRANULARITY:
            raise ValueError(
                f"chain granularity must be between 1 and {MAX_GRANULARITY}, got {self.m}"
            )

    def __len__(self) -> int:
        return self.m + 1

    def __iter__(self):
        return (Grade(i, self) for i in range(self.m + 1))

    def __str__(self) -> str:
        return f"[0,1]_{self.m}"

    @property
    def bottom(self) -> "Grade":
        return Grade(0, self)

    @property
    def top(self) -> "Grade":
        return Grade(self.m, self)

    def numerator_of(self, value) -> int:
        """Numerator of a value on this chain, or ValueError if unreadable or off-grid."""
        return self.numerator_of_fraction(read_grade(value))

    def numerator_of_fraction(self, frac: Fraction) -> int:
        """Numerator of a grade already read by ``read_grade``, or ValueError if off-grid."""
        num = frac * self.m
        if num.denominator != 1 or not 0 <= num <= self.m:
            low = max(0, min(self.m, int(frac * self.m)))
            high = min(self.m, low + 1)
            small = max(abs(frac.numerator), frac.denominator) < _LARGEST_SHOWN
            shown = str(frac) if small else f"of over {MAX_GRADE_CHARS} digits"
            raise ValueError(
                f"value {shown} is not on chain {self}; nearest grid points "
                f"are {float(Fraction(low, self.m))} ({Fraction(low, self.m)}) "
                f"and {float(Fraction(high, self.m))} ({Fraction(high, self.m)})"
            )
        return int(num)

    def from_value(self, value) -> "Grade":
        return Grade(self.numerator_of(value), self)

    def holds(self, nums) -> bool:
        """Whether every entry of the sequence ``nums`` is an ``int``
        numerator on this chain; a float or bool equal to one is not."""
        return set(map(type, nums)) <= {int} and (
            not nums or (min(nums) >= 0 and max(nums) <= self.m)
        )


@dataclass(frozen=True, order=False)
class Grade:
    """A point i/m on its chain.  Grades are compared by their numerators."""

    num: int
    chain: GradeChain

    def __post_init__(self):
        if not self.chain.holds((self.num,)):
            raise ValueError(f"numerator {self.num!r} is not an int on {self.chain}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.chain.m)

    def __str__(self) -> str:
        return str(self.value)


Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjointTriple:
    """A conjunctor P1 x P2 -> P3 as a lookup table, with its two residua.

    ``conj_table[i][j]`` is the numerator of ``(i/m1) & (j/m2)`` in P3,
    kept as a tuple of tuples whatever sequences it is given in, so that
    triples hash and compare by value.  Building a triple checks the
    table's size and that every entry lies on P3 (``ValueError``), then
    that the conjunctor is monotone in each argument with
    conj(0, y) = 0 = conj(x, 0) (``AdjointnessError``), and derives the
    residua: ``res_left_table[k][j]``, the numerator of
    ``(k/m3) res_left (j/m2)`` in P1, is the largest x with conj(x, j) <= k,
    and ``res_right_table[k][i]``, of ``(k/m3) res_right (i/m1)`` in P2, the
    largest y with conj(i, y) <= k.

    Those are the only residua the conjunctor can have, and they satisfy

        x <= res_left(z, y)  iff  conj(x, y) <= z  iff  y <= res_right(z, x)

    exactly when the check passes.  If it does, the x with conj(x, y) <= z
    include 0 and form a lower set, whose top is res_left(z, y), so
    x <= res_left(z, y) iff conj(x, y) <= z; res_right alike.  If it fails,
    the error's ``witness`` (x, y, z) has conj(x, y) > z, so adjoint
    residua would need x > res_left(z, y) and y > res_right(z, x); yet
    x = 0 or y = 0 leaves no grade below, and conj(x + 1, y) <= z would
    need x + 1 <= res_left(z, y) (conj(x, y + 1) <= z alike).

    On chains adjointness gives the other laws the operators rely on.
    Boundary: conj(m1, y) <= m3, so res_left(m3, y) = m1, and
    res_right(m3, x) = m2 alike.  Meet distribution:
    x <= res_left(min(z1, z2), y) iff conj(x, y) <= z1 and <= z2 iff
    x <= min(res_left(z1, y), res_left(z2, y)); grades of a chain with the
    same lower bounds are equal, and on a finite chain binary meets settle
    every infimum (res_right alike).
    """

    name: str
    p1: GradeChain
    p2: GradeChain
    p3: GradeChain
    conj_table: Table = field(repr=False)
    res_left_table: Table = field(init=False, repr=False)
    res_right_table: Table = field(init=False, repr=False)

    def __post_init__(self):
        p1, p2, p3 = self.domains
        rows = tuple(map(tuple, self.conj_table))
        object.__setattr__(self, "conj_table", rows)
        if len(rows) != len(p1) or any(len(row) != len(p2) or not p3.holds(row) for row in rows):
            raise ValueError(f"{self.name}: the conjunctor table must be "
                             f"{len(p1)} x {len(p2)} numerators in 0..{p3.m}")
        cols = tuple(zip(*rows))
        witness = _refutation(rows, cols)
        if witness is not None:
            x, y, z = (Grade(n, c) for n, c in zip(witness, self.domains))
            raise AdjointnessError(
                f"{self.name}: no residua satisfy the adjoint property at x={x}, y={y}, z={z}",
                witness=(x, y, z),
            )
        res_left = _largest_below(cols, p3.m)
        # a commutative conjunctor has one residuum; its triple keeps one table
        res_right = res_left if rows == cols else _largest_below(rows, p3.m)
        object.__setattr__(self, "res_left_table", res_left)
        object.__setattr__(self, "res_right_table", res_right)

    @property
    def domains(self) -> tuple[GradeChain, GradeChain, GradeChain]:
        return (self.p1, self.p2, self.p3)

    @property
    def is_godel(self) -> bool:
        """Whether this is the Goedel triple, decided from the tables, not
        the name: one chain and the minimum as conjunctor.  The residua are
        derived from the conjunctor, so they are Goedel's too."""
        return self.p1 == self.p2 == self.p3 and all(
            v == min(i, j) for i, row in enumerate(self.conj_table) for j, v in enumerate(row)
        )

    def conj(self, x: Grade, y: Grade) -> Grade:
        if x.chain != self.p1 or y.chain != self.p2:
            raise ValueError(f"conjunctor of {self.name} expects {self.p1} x {self.p2}")
        return Grade(self.conj_table[x.num][y.num], self.p3)

    def res_left(self, z: Grade, y: Grade) -> Grade:
        if z.chain != self.p3 or y.chain != self.p2:
            raise ValueError(f"left residuum of {self.name} expects {self.p3} x {self.p2}")
        return Grade(self.res_left_table[z.num][y.num], self.p1)

    def res_right(self, z: Grade, x: Grade) -> Grade:
        if z.chain != self.p3 or x.chain != self.p1:
            raise ValueError(f"right residuum of {self.name} expects {self.p3} x {self.p1}")
        return Grade(self.res_right_table[z.num][x.num], self.p2)


def _refutation(rows: Table, cols: Table) -> tuple[int, int, int] | None:
    """Numerators (x, y, z) at which no residua of the conjunctor exist, or None.

    The first row (x fixed), else the first column (y fixed), that does
    not start at 0 or that descends gives conj(x, y) > z and x = 0, or
    y = 0, or conj(x + 1, y) <= z, or conj(x, y + 1) <= z.
    """
    for in_cols, lines in enumerate((rows, cols)):
        for v, line in enumerate(lines):
            if line[0]:
                u = z = 0
            elif list(line) == sorted(line):
                continue
            else:
                u = next(u for u in range(len(line)) if line[u] > line[u + 1])
                z = line[u + 1]
            return (u, v, z) if in_cols else (v, u, z)
    return None


def _largest_below(lines: Table, top: int) -> Table:
    """``res[z][v]``, the largest u with ``lines[v][u] <= z``, for z in 0..top.

    Each line starts at 0 and never descends, so that u is one less than
    the number of its entries <= z: one count and one running sum per line.
    """
    sums = []
    for line in lines:
        counts = [-1] + [0] * top  # the -1 is the "one less"
        for value in line:
            counts[value] += 1
        sums.append(accumulate(counts))
    return tuple(zip(*sums))


def godel_triple(chain: GradeChain) -> AdjointTriple:
    """The minimum conjunctor on a single chain; any granularity works."""
    m = chain.m
    conj = tuple(tuple(min(i, j) for j in range(m + 1)) for i in range(m + 1))
    return AdjointTriple(f"godel:{m}", chain, chain, chain, conj)


def lukasiewicz_triple(chain: GradeChain) -> AdjointTriple:
    """x & y = max(0, x + y - 1) on a single chain."""
    m = chain.m
    conj = tuple(tuple(max(0, i + j - m) for j in range(m + 1)) for i in range(m + 1))
    return AdjointTriple(f"lukasiewicz:{m}", chain, chain, chain, conj)


def discretized_product_triple(m1: int, m2: int, m3: int) -> AdjointTriple:
    """The product t-norm rounded up onto [0,1]_m3, on integers:

        x & y = ceil(m3 * x * y) / m3

    Its derived residua are the product residuum z <- w = 1 if w <= z else
    z / w rounded down onto P1 and onto P2.
    """
    p1, p2, p3 = GradeChain(m1), GradeChain(m2), GradeChain(m3)
    conj = tuple(
        tuple(-(-m3 * i * j // (m1 * m2)) for j in range(m2 + 1)) for i in range(m1 + 1)
    )
    return AdjointTriple(f"dprod:{m1},{m2},{m3}", p1, p2, p3, conj)


def triple_from_descriptor(descriptor: str, values=None) -> AdjointTriple:
    """Build a triple from a frame descriptor: godel:4, lukasiewicz:4, dprod:4,8,10.

    A bare ``godel`` takes the smallest chain holding every one of
    ``values`` (Fractions; Goedel operations never leave such a grid),
    stopping once the lcm of their denominators passes ``MAX_GRANULARITY``,
    which ``GradeChain`` then refuses.  Any other descriptor without a
    granularity raises ``ValueError``, as does an unknown name.
    """
    name, sep, params = descriptor.partition(":")
    name = name.strip().lower()
    if not sep:
        if name != "godel" or values is None:
            raise ValueError(
                f"frame descriptor {descriptor!r} needs a granularity, e.g. 'godel:4'"
            )
        m = 1
        for v in values:
            m = math.lcm(m, v.denominator)
            if m > MAX_GRANULARITY:
                break  # GradeChain refuses it; stop before the lcm grows
        return godel_triple(GradeChain(m))
    try:
        sizes = [read_natural(p) for p in params.split(",")]
    except ValueError:
        raise ValueError(f"bad granularity in frame descriptor {descriptor!r}") from None
    if name in ("godel", "lukasiewicz"):
        if len(sizes) != 1:
            raise ValueError(f"frame {name} takes one granularity, got {params!r}")
        chain = GradeChain(sizes[0])
        return godel_triple(chain) if name == "godel" else lukasiewicz_triple(chain)
    if name == "dprod":
        if len(sizes) != 3:
            raise ValueError(f"frame dprod takes three granularities, got {params!r}")
        return discretized_product_triple(*sizes)
    raise ValueError(f"unknown frame name {name!r} (expected godel, lukasiewicz or dprod)")
