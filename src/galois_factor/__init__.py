"""Factorization of formal contexts via closures of the necessity operators.

Boolean contexts split into independent subcontexts along the atoms of the
complemented complete lattice of necessity-closed pairs; multi-adjoint
fuzzy contexts get the graded analogue, proposition checkers and concept
intervals.  Brute-force oracles validate every enumeration.

Importing the package runs no submodule: each exported name loads its
submodule when it is first read, so the Boolean commands never run the
bodies of ``fuzzy`` and ``grades``.
"""

import importlib
import importlib.util
import sys

# every exported name, by the submodule that defines it
_EXPORTS = {
    "contexts": """AttributeSubset BooleanContext FormalConcept NormalizationReport ObjectSubset
        concepts down down_n down_pi is_normalized normalize restrict up up_n up_pi""",
    "errors": """AdjointnessError BudgetExceededError ContextFormatError CrossContextError
        FrameArrangementError NotNormalizedError""",
    "factorization": """Block BlockBounds CnLattice Factorization NecessityPair block_bounds
        cn_atoms cn_enumerate complement factorize in_cn reassemble rstar""",
    "fuzzy": """ConceptInterval Fp4Report FrameKind FuzzyContext FuzzyNecessityPair
        GradedAttributeSet GradedObjectSet MultiAdjointConcept check_fp1 check_fp2 check_fp3
        check_fp4 f_down f_down_n f_down_pi f_up f_up_n f_up_pi fn_enumerate fuzzy_concepts
        in_fn interval_from_pair is_fuzzy_normalized is_top_normalized""",
    "grades": """AdjointTriple Grade GradeChain discretized_product_triple godel_triple
        lukasiewicz_triple triple_from_descriptor""",
    "order": "Lattice atoms join_irreducibles",
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _lazy_submodule(name: str):
    """The submodule ``name``, whose body runs on its first attribute access
    (the ``importlib.util.LazyLoader`` recipe), or the module itself when it
    is already imported."""
    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        globals()[name] = module  # as an import binds a submodule in its package
    return sys.modules[fullname]
