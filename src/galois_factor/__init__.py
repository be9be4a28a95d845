"""Factorization of formal contexts via closures of the necessity operators.

Boolean contexts split into independent subcontexts along the atoms of the
complemented complete lattice of necessity-closed pairs; multi-adjoint
fuzzy contexts get the graded analogue, proposition checkers and concept
intervals.  Brute-force oracles validate every enumeration.
"""

from .contexts import (
    AttributeSubset,
    BooleanContext,
    FormalConcept,
    NormalizationReport,
    ObjectSubset,
    atoms,
    concepts,
    down,
    down_n,
    down_pi,
    is_join_irreducible,
    is_normalized,
    join_irreducibles,
    normalize,
    property_oriented_concepts,
    restrict,
    up,
    up_n,
    up_pi,
)
from .errors import (
    AdjointnessError,
    BudgetExceededError,
    ContextFormatError,
    CrossContextError,
    FrameArrangementError,
    NotNormalizedError,
)
from .factorization import (
    Block,
    BlockBounds,
    BlockMask,
    CnLattice,
    Factorization,
    NecessityPair,
    block_bounds,
    cn_atoms,
    cn_enumerate,
    complement,
    factorize,
    in_cn,
    reassemble,
    rstar,
)
from .fuzzy import (
    ConceptInterval,
    Fp4Report,
    FrameKind,
    FuzzyContext,
    FuzzyNecessityPair,
    GradedAttributeSet,
    GradedObjectSet,
    MultiAdjointConcept,
    check_fp1,
    check_fp2,
    check_fp3,
    check_fp4,
    f_down,
    f_down_n,
    f_down_pi,
    f_up,
    f_up_n,
    f_up_pi,
    fn_enumerate,
    fn_meet,
    fuzzy_concepts,
    in_fn,
    interval_from_pair,
    is_fuzzy_normalized,
    is_top_normalized,
)
from .grades import (
    AdjointTriple,
    Grade,
    GradeChain,
    discretized_product_triple,
    godel_triple,
    lukasiewicz_triple,
    residua_by_adjointness,
    triple_from_descriptor,
)
from .order import Lattice

__version__ = "0.1.0"
