"""Closures of the necessity operators and context factorization.

The pairs (X, Y) with X-up-N = Y and Y-down-N = X form a complemented
complete lattice under componentwise union/intersection/complement.  On a
normalized context those pairs are exactly the unions of connected
components of the bipartite incidence graph, so the lattice is built from
its atoms (the components) instead of scanning all object subsets; the
exhaustive scan lives in :mod:`galois_factor.oracles` as the referee.  The
block relation R*, the union of the atom rectangles, is a relation on the
same attributes and objects, so ``rstar`` returns it as a context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .contexts import (
    AttributeSubset,
    BooleanContext,
    FormalConcept,
    NormalizationReport,
    ObjectSubset,
    _claim_attrs,
    _claim_objects,
    _down_bits,
    _down_n_bits,
    _down_pi_bits,
    _offending_lines,
    _up_bits,
    _up_n_bits,
    _up_pi_bits,
    concepts,
    normalize,
    restrict,
)
from .errors import BudgetExceededError, NotNormalizedError
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
    "rstar",
    "block_bounds",
]

MAX_MATERIALIZED_ATOMS = 20


@dataclass(frozen=True)
class NecessityPair:
    """A pair (X, Y) closed under the two necessity operators."""

    objects: ObjectSubset
    attrs: AttributeSubset

    @property
    def order_key(self) -> int:
        return self.objects.bits

    def __repr__(self) -> str:
        return f"({{{', '.join(self.objects.names)}}}, {{{', '.join(self.attrs.names)}}})"


def in_cn(ctx: BooleanContext, pair: NecessityPair) -> bool:
    """Membership test: X-up-N = Y and Y-down-N = X."""
    xbits = _claim_objects(ctx, pair.objects)
    ybits = _claim_attrs(ctx, pair.attrs)
    return _up_n_bits(ctx, xbits) == ybits and _down_n_bits(ctx, ybits) == xbits


def cn_atoms(ctx: BooleanContext) -> list[NecessityPair]:
    """Atoms of the closure lattice: connected components of the incidence graph.

    Each component grows from the lowest object not yet placed, taking in
    the attributes of its objects and the objects of its attributes until
    it stops growing.  Requires a normalized context (otherwise components
    need not be closed).
    """
    _require_normalized(ctx)
    pairs = []
    free = ctx._full_objects
    while free:
        xbits = free & -free
        while True:
            ybits = _up_pi_bits(ctx, xbits)
            grown = _down_pi_bits(ctx, ybits)
            if grown == xbits:
                break
            xbits = grown
        free &= ~xbits
        pairs.append(NecessityPair(ObjectSubset(ctx, xbits), AttributeSubset(ctx, ybits)))
    pairs.sort(key=lambda p: p.objects.bits)  # found by lowest object, not by bits
    return pairs


@dataclass(frozen=True)
class CnLattice(Lattice):
    """The complemented complete lattice of necessity-closed pairs.

    The lattice is the powerset of its atoms, and element i is the join of
    the atoms at the set bits of i.  The atoms have disjoint non-empty
    object sets and are sorted by object bits, so comparing two joins as
    object-bit ints compares their atom masks: listing the pairs by object
    bits puts the join of mask i at index i.  With more than
    ``MAX_MATERIALIZED_ATOMS`` atoms only the atoms and the pair count are
    kept, ``elements`` is None and ``len`` raises ``BudgetExceededError``.
    """

    atom_pairs: tuple[NecessityPair, ...]

    @property
    def materialized(self) -> bool:
        return self.elements is not None

    @property
    def pair_count(self) -> int:
        return 1 << len(self.atom_pairs)

    def __len__(self) -> int:
        if self.elements is None:
            raise BudgetExceededError(self.pair_count, 1 << MAX_MATERIALIZED_ATOMS, "pairs")
        return len(self.elements)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges (i, i | 1 << a) for each atom a not in i, in sorted order."""
        k = len(self.atom_pairs)
        return tuple(
            (i, i | 1 << a) for i in range(len(self)) for a in range(k) if not i >> a & 1
        )

    @property
    def atoms(self) -> tuple[int, ...]:
        """Indices of the atoms: the masks with one bit set."""
        len(self)  # raises unless materialized
        return tuple(1 << a for a in range(len(self.atom_pairs)))

    def pair_for_atoms(self, atom_positions: Iterable[int]) -> NecessityPair:
        """Join of the given atoms, available even when not materialized."""
        xbits = 0
        ybits = 0
        for a in atom_positions:
            xbits |= self.atom_pairs[a].objects.bits
            ybits |= self.atom_pairs[a].attrs.bits
        return NecessityPair(
            ObjectSubset(self.context, xbits), AttributeSubset(self.context, ybits)
        )


def _require_normalized(ctx: BooleanContext) -> None:
    problems = _offending_lines(ctx)
    if problems:
        raise NotNormalizedError(
            "context is not normalized: " + "; ".join(problems)
            + " (normalize first and reattach the removals afterwards)"
        )


def cn_enumerate(ctx: BooleanContext) -> CnLattice:
    """All necessity-closed pairs of a normalized context, with covers and atoms.

    Built as the unions of atom subsets, the pair at index i joining the
    atoms at the set bits of i; with more than ``MAX_MATERIALIZED_ATOMS``
    atoms the 2**k pairs are not materialized and only the atoms are returned.
    """
    atom_pairs = tuple(cn_atoms(ctx))
    if len(atom_pairs) > MAX_MATERIALIZED_ATOMS:
        return CnLattice(ctx, None, atom_pairs)
    xs, ys = [0], [0]
    for atom in atom_pairs:  # doubling: the second half adds this atom
        xs += [x | atom.objects.bits for x in xs]
        ys += [y | atom.attrs.bits for y in ys]
    pairs = tuple(
        NecessityPair(ObjectSubset(ctx, x), AttributeSubset(ctx, y)) for x, y in zip(xs, ys)
    )
    return CnLattice(ctx, pairs, atom_pairs)


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
    ``reattached``); each bipartite component of the core becomes a block.
    Blocks have pairwise disjoint objects and attributes and their
    relations reassemble the core exactly.
    """
    report = normalize(ctx)
    core = report.core
    blocks = []
    if core.objects or core.attributes:
        for pair in cn_atoms(core):
            blocks.append(
                Block(pair.objects, pair.attrs, restrict(core, pair.objects, pair.attrs))
            )
    return Factorization(report, tuple(blocks))


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
    rows = [0] * len(ctx.attributes)  # per attribute, the object bits of R*
    for atom in cn_atoms(ctx):
        for i in set_bits(atom.attrs.bits):
            rows[i] |= atom.objects.bits
    return BooleanContext(ctx.attributes, ctx.objects, tuple(rows))


@dataclass(frozen=True)
class BlockBounds:
    """Concept-lattice interval determined by a necessity-closed pair.

    ``upper`` is <X, X-up> when X-up is nonempty, else None with
    ``upper_identified_with_top`` set; dually for ``lower``.  ``upper_is_coatom``
    reports whether the upper bound sits directly under the lattice top,
    and ``lower_within_upper`` whether Y-down is contained in X.
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
    """Bounds of the concept block generated by a nontrivial pair."""
    if not in_cn(ctx, pair):
        raise ValueError(f"{pair!r} is not a necessity-closed pair of this context")
    xbits = pair.objects.bits
    if xbits == 0 or xbits == ctx._full_objects:
        raise ValueError("block bounds are defined for pairs with X not empty and not B")
    if lattice is None:
        lattice = concepts(ctx)

    x_up = _up_bits(ctx, xbits)
    upper = None
    coatom = None
    if x_up:
        upper = FormalConcept(ObjectSubset(ctx, xbits), AttributeSubset(ctx, x_up))
        idx = lattice.index_of(upper)
        coatom = lattice.upper_covers(idx) == (lattice.top_index,)

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
        upper_is_coatom=coatom,
        lower_within_upper=y_down & ~xbits == 0,
    )
