"""Finite grade chains and adjoint triples.

Grades live on a regular partition of the unit interval into m pieces and
are stored as integer numerators over a fixed denominator m, so equality
and order are exact integer comparisons.  An adjoint triple bundles a
conjunctor with its two residua as dense lookup tables over the (small)
chains; the residua are linked to the conjunctor by the adjoint property

    x <= res_left(z, y)  iff  conj(x, y) <= z  iff  y <= res_right(z, x)

which ``AdjointTriple`` checks, in O(m^2), when it is built: no triple
holds tables that fail it.  ``oracles.brute_adjointness_witness`` is the
naive O(m^3) twin of that check.  Grade strings go through
``read_grade``, which refuses the ones ``Fraction`` would stall on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import AdjointnessError

# the finest chain: a triple's tables have (m + 1)**2 entries, so at m = 256
# building and checking a triple takes 0.05-0.075 s and holds 1.1 MB
MAX_GRANULARITY = 256

# ``Fraction`` builds 10**k for a decimal exponent k, hundreds of megabytes
# for ``1e-999999999``, so a longer string or a larger exponent is refused first
MAX_GRADE_CHARS = 64
MAX_GRADE_EXPONENT = 64


def read_grade(value) -> Fraction:
    """A grade value (number or string) as a ``Fraction``, or ``ValueError``.

    A string over ``MAX_GRADE_CHARS`` characters, or with a decimal exponent
    beyond ``MAX_GRADE_EXPONENT``, is refused before ``Fraction`` sees it.
    """
    if isinstance(value, str):
        if len(value) > MAX_GRADE_CHARS:
            raise ValueError(f"grade of {len(value)} characters, over {MAX_GRADE_CHARS}")
        try:
            exponent = int(value.lower().partition("e")[2])
        except ValueError:  # no exponent, or an unreadable one that Fraction refuses
            exponent = 0
        if abs(exponent) > MAX_GRADE_EXPONENT:
            raise ValueError(
                f"grade {value!r} has a decimal exponent beyond {MAX_GRADE_EXPONENT}"
            )
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
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

    def grade(self, num: int) -> "Grade":
        return Grade(num, self)

    def numerator_of(self, value) -> int:
        """Numerator of a value on this chain, or ValueError if unreadable or off-grid."""
        frac = read_grade(value)
        num = frac * self.m
        if num.denominator != 1 or not 0 <= num <= self.m:
            low = max(0, min(self.m, int(frac * self.m)))
            high = min(self.m, low + 1)
            raise ValueError(
                f"value {frac} is not on chain {self}; nearest grid points "
                f"are {float(Fraction(low, self.m))} ({Fraction(low, self.m)}) "
                f"and {float(Fraction(high, self.m))} ({Fraction(high, self.m)})"
            )
        return int(num)

    def from_value(self, value) -> "Grade":
        return Grade(self.numerator_of(value), self)


@dataclass(frozen=True, order=False)
class Grade:
    """A point i/m on its chain.  Comparable only within one chain."""

    num: int
    chain: GradeChain

    def __post_init__(self):
        if not 0 <= self.num <= self.chain.m:
            raise ValueError(f"numerator {self.num} out of range for {self.chain}")

    def _check(self, other: "Grade") -> None:
        if not isinstance(other, Grade):
            raise TypeError(f"cannot compare Grade with {type(other).__name__}")
        if other.chain != self.chain:
            raise ValueError(f"grades on different chains: {self.chain} vs {other.chain}")

    def __le__(self, other):
        self._check(other)
        return self.num <= other.num

    def __lt__(self, other):
        self._check(other)
        return self.num < other.num

    def __ge__(self, other):
        self._check(other)
        return self.num >= other.num

    def __gt__(self, other):
        self._check(other)
        return self.num > other.num

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.chain.m)

    def __str__(self) -> str:
        return str(self.value)


Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdjointTriple:
    """A conjunctor P1 x P2 -> P3 with its residua, as lookup tables.

    ``res_left_table[k][j]`` is the numerator of ``(k/m3) res_left (j/m2)``
    in P1; ``res_right_table[k][i]`` the numerator of
    ``(k/m3) res_right (i/m1)`` in P2.  Building a triple checks the table
    sizes and that every entry lies on its chain (``ValueError``), then the
    adjoint property (``AdjointnessError`` with a violating (x, y, z)).

    On chains adjointness gives the other laws the operators rely on.
    Boundary: conj(0, y) <= 0 iff 0 <= res_left(0, y), so conj(0, y) = 0,
    and m1 <= res_left(m3, y) iff conj(m1, y) <= m3, so res_left(m3, y) =
    m1; conj(x, 0) = 0 and res_right(m3, x) = m2 alike.  Meet distribution:
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
    res_left_table: Table = field(repr=False)
    res_right_table: Table = field(repr=False)

    def __post_init__(self):
        tables = (self.conj_table, self.res_left_table, self.res_right_table)
        m1, m2, m3 = (c.m for c in self.domains)
        for label, table, rows, cols, top in zip(
            ("conjunctor", "left residuum", "right residuum"), tables,
            (m1, m3, m3), (m2, m2, m1), (m3, m1, m2),
        ):
            # a set of ints also holds 1.0, so the types are checked as well
            on_chain = set(range(top + 1)).issuperset
            if len(table) != rows + 1 or any(
                len(row) != cols + 1 or not on_chain(row) or set(map(type, row)) != {int}
                for row in table
            ):
                raise ValueError(f"{self.name}: the {label} table must be "
                                 f"{rows + 1} x {cols + 1} numerators in 0..{top}")
        witness = _adjointness_witness(*tables)
        if witness is not None:
            x, y, z = (Grade(n, c) for n, c in zip(witness, self.domains))
            raise AdjointnessError(
                f"{self.name}: the adjoint property fails at x={x}, y={y}, z={z}",
                witness=(x, y, z),
            )

    @property
    def domains(self) -> tuple[GradeChain, GradeChain, GradeChain]:
        return (self.p1, self.p2, self.p3)

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


def godel_triple(chain: GradeChain) -> AdjointTriple:
    """Minimum conjunctor with the two-case residuum, on a single chain.

    Both operations stay on the chain, so any granularity works.
    """
    m = chain.m
    conj = tuple(tuple(min(i, j) for j in range(m + 1)) for i in range(m + 1))
    # z <- y = top if y <= z else z
    res = tuple(tuple(m if j <= k else k for j in range(m + 1)) for k in range(m + 1))
    return AdjointTriple(f"godel:{m}", chain, chain, chain, conj, res, res)


def lukasiewicz_triple(chain: GradeChain) -> AdjointTriple:
    """x & y = max(0, x + y - 1) and z <- y = min(1, 1 - y + z) on the chain."""
    m = chain.m
    conj = tuple(tuple(max(0, i + j - m) for j in range(m + 1)) for i in range(m + 1))
    res = tuple(tuple(min(m, m - j + k) for j in range(m + 1)) for k in range(m + 1))
    return AdjointTriple(f"lukasiewicz:{m}", chain, chain, chain, conj, res, res)


def discretized_product_triple(m1: int, m2: int, m3: int) -> AdjointTriple:
    """Product t-norm rounded up onto [0,1]_m3, residua rounded down.

        x & y        = ceil(m3 * x * y) / m3
        z res_left y  = floor(m1 * (z <- y)) / m1
        z res_right x = floor(m2 * (z <- x)) / m2

    with the plain product residuum z <- w = 1 if w <= z else z / w.
    All arithmetic is exact on integers.
    """
    p1, p2, p3 = GradeChain(m1), GradeChain(m2), GradeChain(m3)
    conj = tuple(
        tuple(-(-m3 * i * j // (m1 * m2)) for j in range(m2 + 1)) for i in range(m1 + 1)
    )

    def floored_residuum(m_out: int, m_in: int, k: int, w: int) -> int:
        # w/m_in <= k/m3 iff w * m3 <= k * m_in
        if w * m3 <= k * m_in:
            return m_out
        return m_out * k * m_in // (m3 * w)

    res_left = tuple(
        tuple(floored_residuum(m1, m2, k, j) for j in range(m2 + 1)) for k in range(m3 + 1)
    )
    res_right = tuple(
        tuple(floored_residuum(m2, m1, k, i) for i in range(m1 + 1)) for k in range(m3 + 1)
    )
    return AdjointTriple(f"dprod:{m1},{m2},{m3}", p1, p2, p3, conj, res_left, res_right)


def residua_by_adjointness(
    conj: Callable[[Grade, Grade], Grade],
    domains: tuple[GradeChain, GradeChain, GradeChain],
) -> tuple[Table, Table]:
    """Derive both residua of a conjunctor by exhaustive search.

    res_left(z, y) = max{x | conj(x, y) <= z} and symmetrically for
    res_right.  If a maximum does not exist, or the conjunctor is not
    monotone so that the maxima fail the adjoint property, an
    AdjointnessError names the offending grades.
    """
    p1, p2, p3 = domains
    table = tuple(
        tuple(conj(Grade(i, p1), Grade(j, p2)).num for j in range(p2.m + 1))
        for i in range(p1.m + 1)
    )

    res_left = []
    for k in range(p3.m + 1):
        row = []
        for j in range(p2.m + 1):
            xs = [i for i in range(p1.m + 1) if table[i][j] <= k]
            if not xs:
                raise AdjointnessError(
                    f"no x with conj(x, {Fraction(j, p2.m)}) <= {Fraction(k, p3.m)}: "
                    "the conjunctor admits no left residuum",
                    witness=(None, Grade(j, p2), Grade(k, p3)),
                )
            row.append(max(xs))
        res_left.append(tuple(row))

    res_right = []
    for k in range(p3.m + 1):
        row = []
        for i in range(p1.m + 1):
            ys = [j for j in range(p2.m + 1) if table[i][j] <= k]
            if not ys:
                raise AdjointnessError(
                    f"no y with conj({Fraction(i, p1.m)}, y) <= {Fraction(k, p3.m)}: "
                    "the conjunctor admits no right residuum",
                    witness=(Grade(i, p1), None, Grade(k, p3)),
                )
            row.append(max(ys))
        res_right.append(tuple(row))

    # building the triple checks the adjoint property
    AdjointTriple("derived", p1, p2, p3, table, tuple(res_left), tuple(res_right))
    return tuple(res_left), tuple(res_right)


def _adjointness_witness(conj: Table, res_left: Table, res_right: Table):
    """Numerators (x, y, z) at which the adjoint property fails, or None.

    The O(m^2) test: (a) conj is monotone in each argument, (b) each
    res_left[z][y] is the largest x with conj[x][y] <= z, (c) each
    res_right[z][x] the largest y with conj[x][y] <= z.  Under (a) those x
    form a lower set, so u = res_left[z][y] is its top iff conj[u][y] <= z
    and (u = m1 or conj[u + 1][y] > z): two lookups, no search.

    (a)-(c) are equivalent to the adjoint property.  If they hold,
    x <= res_left[z][y] iff x is in that lower set iff conj[x][y] <= z, and
    (c) gives the right half.  Conversely every failure names a witness
    that violates the property, so an adjoint triple yields none.  At a
    descent conj[x][y] > conj[x + 1][y] = z, adjointness would need both
    x + 1 <= res_left[z][y] and x > res_left[z][y]: (x, y, z) fails if
    x <= res_left[z][y], else (x + 1, y, z).  With u = res_left[z][y],
    conj[u][y] > z makes (u, y, z) fail and conj[u + 1][y] <= z makes
    (u + 1, y, z) fail.  Descents in y and (c) are the same against
    res_right.
    """
    top = len(res_left)  # above every numerator on P3
    by_rows = _first_miss([(*row, top) for row in conj], res_right)  # (x, y, z)
    if by_rows is not None:
        return by_rows
    by_cols = _first_miss([(*col, top) for col in zip(*conj)], res_left)  # (y, x, z)
    return None if by_cols is None else (by_cols[1], by_cols[0], by_cols[2])


def _first_miss(lines, res):
    """(v, u, z) failing (a) along ``lines[v]`` (the conjunctor with one
    argument fixed at v, padded with a value above every z) or failing
    ``res[z][v]`` = the largest u with ``lines[v][u] <= z``; or None."""
    for v, line in enumerate(lines):
        if sorted(line) != list(line):
            u = next(u for u in range(len(line)) if line[u] > line[u + 1])
            z = line[u + 1]
            return v, (u if u <= res[z][v] else u + 1), z
    for z, row in enumerate(res):
        for v, u in enumerate(row):
            if lines[v][u] > z:
                return v, u, z
            if lines[v][u + 1] <= z:
                return v, u + 1, z
    return None


def triple_from_descriptor(descriptor: str) -> AdjointTriple:
    """Build a triple from a CLI descriptor: godel:4, lukasiewicz:4, dprod:4,8,10."""
    name, sep, params = descriptor.partition(":")
    name = name.strip().lower()
    if not sep:
        raise ValueError(f"frame descriptor {descriptor!r} is missing a granularity")
    try:
        sizes = [int(p) for p in params.split(",")]
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
