"""Finite grade chains and adjoint triples.

Grades live on a regular partition of the unit interval into m pieces and
are stored as integer numerators over a fixed denominator m, so equality
and order are exact integer comparisons.  An adjoint triple bundles a
conjunctor with its two residua as dense lookup tables over the (small)
chains; the residua are linked to the conjunctor by the adjoint property

    x <= res_left(z, y)  iff  conj(x, y) <= z  iff  y <= res_right(z, x)

which is checked exhaustively by :func:`check_triple_properties`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import AdjointnessError

# the finest chain: a triple's tables have (m + 1)**2 entries, so a Goedel
# triple takes about 0.03 s and 1.1 MB at m = 256, 0.4 s and 25 MB at m = 1000
MAX_GRANULARITY = 256


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
        """Numerator of a value on this chain, or ValueError if off-grid."""
        frac = Fraction(value)
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
    ``(k/m3) res_right (i/m1)`` in P2.
    """

    name: str
    p1: GradeChain
    p2: GradeChain
    p3: GradeChain
    conj_table: Table = field(repr=False)
    res_left_table: Table = field(repr=False)
    res_right_table: Table = field(repr=False)

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
    res_right.  The result is verified against the adjoint property on the
    whole grid; if the maxima do not exist or the property fails, an
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

    candidate = AdjointTriple(
        "derived", p1, p2, p3, table, tuple(res_left), tuple(res_right)
    )
    witness = _adjointness_witness(candidate)
    if witness is not None:
        x, y, z = witness
        raise AdjointnessError(
            f"adjoint property fails at x={x}, y={y}, z={z}: "
            "the conjunctor is not residuated (is it monotone?)",
            witness=witness,
        )
    return tuple(res_left), tuple(res_right)


def _adjointness_witness(triple: AdjointTriple):
    """First (x, y, z) violating the adjoint property, or None."""
    m1, m2, m3 = triple.p1.m, triple.p2.m, triple.p3.m
    conj, left, right = triple.conj_table, triple.res_left_table, triple.res_right_table
    for i in range(m1 + 1):
        for j in range(m2 + 1):
            for k in range(m3 + 1):
                a = i <= left[k][j]
                b = conj[i][j] <= k
                c = j <= right[k][i]
                if a != b or b != c:
                    return (Grade(i, triple.p1), Grade(j, triple.p2), Grade(k, triple.p3))
    return None


@dataclass(frozen=True)
class TripleReport:
    """Outcome of the exhaustive checks on an adjoint triple."""

    adjointness_ok: bool
    boundary_ok: bool
    meet_distribution_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.adjointness_ok and self.boundary_ok and self.meet_distribution_ok


def check_triple_properties(triple: AdjointTriple) -> TripleReport:
    """Exhaustively verify adjointness, boundary laws and meet distribution.

    Boundary laws: bottom & y = bottom, top res_left y = top, x & bottom =
    bottom, top res_right x = top.  Meet distribution: (z1 min z2) res_left y
    = (z1 res_left y) min (z2 res_left y) over all pairs, which on a chain
    settles the law for arbitrary infima.
    """
    failures = []
    m1, m2, m3 = triple.p1.m, triple.p2.m, triple.p3.m
    conj, left, right = triple.conj_table, triple.res_left_table, triple.res_right_table

    witness = _adjointness_witness(triple)
    adjointness_ok = witness is None
    if witness is not None:
        x, y, z = witness
        failures.append(f"adjointness fails at x={x}, y={y}, z={z}")

    boundary_ok = True
    for j in range(m2 + 1):
        if conj[0][j] != 0:
            boundary_ok = False
            failures.append(f"bottom & {Fraction(j, m2)} != bottom")
        if left[m3][j] != m1:
            boundary_ok = False
            failures.append(f"top res_left {Fraction(j, m2)} != top")
    for i in range(m1 + 1):
        if conj[i][0] != 0:
            boundary_ok = False
            failures.append(f"{Fraction(i, m1)} & bottom != bottom")
        if right[m3][i] != m2:
            boundary_ok = False
            failures.append(f"top res_right {Fraction(i, m1)} != top")

    meet_ok = True
    for k1 in range(m3 + 1):
        for k2 in range(k1, m3 + 1):
            lo = min(k1, k2)
            for j in range(m2 + 1):
                if left[lo][j] != min(left[k1][j], left[k2][j]):
                    meet_ok = False
                    failures.append(
                        f"meet distribution fails at z1={Fraction(k1, m3)}, "
                        f"z2={Fraction(k2, m3)}, y={Fraction(j, m2)}"
                    )
    return TripleReport(adjointness_ok, boundary_ok, meet_ok, tuple(failures))


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
