"""Closures of the necessity operators and context factorization.

The pairs (X, Y) with X-up-N = Y and Y-down-N = X form a complemented
complete lattice under componentwise union/intersection/complement.  On a
normalized context those pairs are exactly the unions of connected
components of the bipartite incidence graph, so the lattice is the
powerset of its atoms (the components), and ``CnLattice`` holds only
them: the bits of its 2^k elements, its ``keys``, come from doubling two
int lists, while 2^k is at most ``order.MAX_ELEMENTS``.  The exhaustive
scan over all object subsets lives in :mod:`galois_factor.oracles` as the
referee.  The block relation R*, the union of the atom rectangles, is a
relation on the same attributes and objects, so ``rstar`` returns it as a
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import order
from .contexts import (
    AttributeSubset,
    BooleanContext,
    FormalConcept,
    NormalizationReport,
    ObjectSubset,
    _claim,
    _down_bits,
    _down_n_bits,
    _offending_lines,
    _subcontext,
    _up_bits,
    _up_n_bits,
    normalize,
)
from .errors import BudgetExceededError, CrossContextError, NotNormalizedError
from .order import Lattice, set_bits

__all__ = [
    "NecessityPair",
    "CnLattice",
    "Block",
    "Factorization",
    "BlockBounds",
    "cn_enumerate",
    "cn_atoms",
    "complement",
    "in_cn",
    "factorize",
    "reassemble",
    "rstar",
    "block_bounds",
]

@dataclass(frozen=True)
class NecessityPair:
    """A pair (X, Y) closed under the two necessity operators."""

    objects: ObjectSubset
    attrs: AttributeSubset

    @classmethod
    def from_keys(cls, ctx: BooleanContext, xbits: int, ybits: int) -> "NecessityPair":
        return cls(ObjectSubset(ctx, xbits), AttributeSubset(ctx, ybits))

    def __repr__(self) -> str:
        return f"({{{', '.join(self.objects.names)}}}, {{{', '.join(self.attrs.names)}}})"


def in_cn(ctx: BooleanContext, pair: NecessityPair) -> bool:
    """Membership test: X-up-N = Y and Y-down-N = X."""
    xbits = _claim(ctx, pair.objects, ObjectSubset)
    ybits = _claim(ctx, pair.attrs, AttributeSubset)
    return _up_n_bits(ctx, xbits) == ybits and _down_n_bits(ctx, ybits) == xbits


def cn_atoms(ctx: BooleanContext) -> list[NecessityPair]:
    """Atoms of the closure lattice: the connected components of the
    incidence graph, ``ctx.components``, sorted by object bits.  Requires a
    normalized context (otherwise components need not be closed).
    """
    _require_normalized(ctx)
    return [NecessityPair.from_keys(ctx, xbits, ybits) for xbits, ybits in ctx.components]


class CnLattice(Lattice):
    """The complemented complete lattice of necessity-closed pairs.

    The lattice is the powerset of its atoms, and element i is the join of
    the atoms at the set bits of i.  The atoms have disjoint non-empty
    object sets and are sorted by object bits, so comparing two joins as
    object-bit ints compares their atom masks: listing the pairs by object
    bits puts the join of mask i at index i.  So the lattice keeps only its
    atoms, and equal atoms make equal lattices.  It makes ``keys`` from the
    atoms' bits by doubling, when they are first read, and ``cover_lists``
    from the cube: the Hasse edges are (i, i | 1 << a), for each atom a
    not in i.  With more pairs than ``order.MAX_ELEMENTS``, so more than
    17 atoms, the lattice is not materialized: only the atoms and the pair
    count are available, and reading ``keys`` (so ``len``, iteration,
    indexing) raises ``BudgetExceededError``.
    """

    kind = NecessityPair

    def __init__(self, context: BooleanContext, atom_pairs: tuple[NecessityPair, ...]):
        self.context, self.atom_pairs = context, atom_pairs

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.atom_pairs == other.atom_pairs

    @property
    def materialized(self) -> bool:
        return self.pair_count <= order.MAX_ELEMENTS

    @property
    def pair_count(self) -> int:
        return 1 << len(self.atom_pairs)

    @cached_property
    def keys(self) -> tuple[list[int], list[int]]:
        """The object bits and the attribute bits of element i, at index i."""
        if not self.materialized:
            raise BudgetExceededError(self.pair_count, order.MAX_ELEMENTS, "lattice elements")
        xs, ys = [0], [0]
        for atom in self.atom_pairs:  # doubling: the second half adds this atom
            xs += [x | atom.objects.bits for x in xs]
            ys += [y | atom.attrs.bits for y in ys]
        return xs, ys

    @cached_property
    def cover_lists(self) -> list[list[int]]:
        """The cube's upper covers i | 1 << a, for each atom a not in i, by
        doubling: adding atom a appends i | 1 << a to the list of each i
        without a, and gives i | 1 << a the list of i, each with a added."""
        len(self)  # raises unless materialized
        ups: list[list[int]] = [[]]
        for a in range(len(self.atom_pairs)):
            bit = 1 << a
            added = [[j | bit for j in above] for above in ups]
            for i, above in enumerate(ups):
                above.append(i | bit)
            ups += added
        return ups


def _require_normalized(ctx: BooleanContext) -> None:
    problems = _offending_lines(ctx)
    if problems:
        raise NotNormalizedError(
            "context is not normalized: " + "; ".join(problems)
            + " (normalize first and reattach the removals afterwards)"
        )


def cn_enumerate(ctx: BooleanContext) -> CnLattice:
    """All necessity-closed pairs of a normalized context, as the lattice of
    its atoms; the pair at index i joins the atoms at the set bits of i."""
    return CnLattice(ctx, tuple(cn_atoms(ctx)))


def complement(ctx: BooleanContext, pair: NecessityPair) -> NecessityPair:
    """The complement pair (X^c, Y^c), verified to be necessity-closed."""
    if not in_cn(ctx, pair):
        raise ValueError(f"{pair!r} is not a necessity-closed pair of this context")
    result = NecessityPair(pair.objects.complement(), pair.attrs.complement())
    if not in_cn(ctx, result):
        raise NotNormalizedError(
            "complement is not necessity-closed; the context is not normalized"
        )
    return result


@dataclass(frozen=True)
class Block:
    """One independent subcontext of a factorization."""

    objects: ObjectSubset
    attrs: AttributeSubset
    context: BooleanContext  # the relation restricted to attrs x objects


@dataclass(frozen=True)
class Factorization:
    """Independent subcontexts, one per atom, plus the stripped remainders."""

    reattached: NormalizationReport
    blocks: tuple[Block, ...]

    @property
    def core(self) -> BooleanContext:
        return self.reattached.core


def factorize(ctx: BooleanContext) -> Factorization:
    """Split a context into its independent subcontexts.

    The input is normalized internally (removals reported in
    ``reattached``); each component of the core, normalized by construction,
    becomes a block, read from ``core.components`` with no second check.
    Blocks have pairwise disjoint objects and attributes and their
    relations reassemble the core exactly.
    """
    report = normalize(ctx)
    core = report.core
    blocks = tuple(
        Block(ObjectSubset(core, x), AttributeSubset(core, y), _subcontext(core, x, y))
        for x, y in core.components
    )
    return Factorization(report, blocks)


def reassemble(factorization: Factorization) -> BooleanContext:
    """Rebuild the normalized core from the blocks (zero outside the blocks)."""
    core = factorization.core
    rows = [0] * len(core.attributes)
    for block in factorization.blocks:
        objs = block.objects.indices  # block object k is core object objs[k]
        for i, block_row in zip(block.attrs.indices, block.context.rows):
            rows[i] |= sum(1 << objs[k] for k in set_bits(block_row))
    return BooleanContext(core.attributes, core.objects, tuple(rows))


def rstar(ctx: BooleanContext) -> BooleanContext:
    """The block relation R* as the context (A, B, R*): the union of the atom
    rectangles X x Y, which contains R.

    O(|A| * |B|) for any number of atoms.  The literal form, the
    intersection over every necessity-closed pair (X, Y) of
    (X x Y) union (X^c x Y^c), is ``oracles.brute_rstar``.
    """
    _require_normalized(ctx)
    rows = [0] * len(ctx.attributes)  # per attribute, the object bits of R*
    for xbits, ybits in ctx.components:
        for i in set_bits(ybits):
            rows[i] |= xbits
    return BooleanContext(ctx.attributes, ctx.objects, tuple(rows))


@dataclass(frozen=True)
class BlockBounds:
    """Concept-lattice interval determined by a necessity-closed pair, read
    off the pair alone: no concept lattice is enumerated or searched.

    ``upper`` is <X, X-up> when X-up is nonempty, else None with
    ``upper_identified_with_top`` set; dually for ``lower``.  ``upper_is_coatom``
    reports whether the upper bound sits directly under the lattice top
    (True whenever ``upper`` is a concept, see ``block_bounds``), and
    ``lower_within_upper`` whether Y-down is contained in X.
    """

    pair: NecessityPair
    upper: FormalConcept | None
    upper_identified_with_top: bool
    lower: FormalConcept | None
    lower_identified_with_bottom: bool
    upper_is_coatom: bool | None
    lower_within_upper: bool


def block_bounds(
    ctx: BooleanContext, pair: NecessityPair, lattice: Lattice | None = None
) -> BlockBounds:
    """Bounds of the concept block generated by a nontrivial pair, from the
    pair and two derivations alone.  ``lattice``, if given, must be the
    concept lattice of ``ctx`` (else ``CrossContextError``); nothing else is
    read from it.

    ``upper_is_coatom`` is True when X-up is non-empty and None otherwise,
    for every necessity-closed (X, Y) with X not empty and not B, on any
    context.  Proof.  X = Y-down-N and Y = X-up-N.
    - An attribute outside Y has no object in X: such an object's column
      would hold an attribute outside Y, so it would not be in Y-down-N.
    - An attribute in Y has all its objects in X, since Y = X-up-N.
    - So X-up is in Y, as X is non-empty, and every a in X-up has
      a-down = X.  If X-up is non-empty, X-up-down = X, and <X, X-up> is a
      concept.
    - A set E strictly above X is held in full by no attribute: such an
      attribute holds all of X, so it has a-down = X, not a superset of E.
      So E-up-down = B, and no extent lies strictly between X and B.  Hence
      <X, X-up> is a coatom.
    If X-up is empty, the upper bound is the top and the field is None.
    The proof needs no normalization.
    """
    if lattice is not None and lattice.context is not ctx:
        raise CrossContextError("concept lattice enumerated from a different context")
    if not in_cn(ctx, pair):
        raise ValueError(f"{pair!r} is not a necessity-closed pair of this context")
    xbits = pair.objects.bits
    if xbits == 0 or xbits == ctx._full_objects:
        raise ValueError("block bounds are defined for pairs with X not empty and not B")

    x_up = _up_bits(ctx, xbits)
    upper = None
    if x_up:
        upper = FormalConcept(ObjectSubset(ctx, xbits), AttributeSubset(ctx, x_up))

    y_down = _down_bits(ctx, pair.attrs.bits)
    lower = None
    if y_down:
        lower = FormalConcept(ObjectSubset(ctx, y_down), AttributeSubset(ctx, pair.attrs.bits))

    return BlockBounds(
        pair=pair,
        upper=upper,
        upper_identified_with_top=x_up == 0,
        lower=lower,
        lower_identified_with_bottom=y_down == 0,
        upper_is_coatom=True if x_up else None,
        lower_within_upper=y_down & ~xbits == 0,
    )
