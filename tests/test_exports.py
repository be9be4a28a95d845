"""Each module's ``__all__`` names only what the module has, and lists every
name the package exports from it, so a deletion cannot leave a stale export."""

import importlib
from pathlib import Path

import galois_factor

PACKAGE = Path(galois_factor.__file__).parent


def test_every_all_matches_its_module_and_the_package():
    exported: dict[str, set[str]] = {}  # per submodule, the names the package takes from it
    for name, stem in galois_factor._SUBMODULE.items():
        exported.setdefault(stem, set()).add(name)
        module = importlib.import_module(f"galois_factor.{stem}")
        assert getattr(galois_factor, name) is getattr(module, name), name
    assert sorted(galois_factor.__all__) == sorted(galois_factor._SUBMODULE)
    checked = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"galois_factor.{path.stem}")
        if not hasattr(module, "__all__"):
            continue
        checked.append(path.stem)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], path.stem
        assert exported.get(path.stem, set()) - set(module.__all__) == set(), path.stem
    assert {"contexts", "factorization", "fuzzy"} <= set(checked)
