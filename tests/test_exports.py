"""Each module's ``__all__`` names only what the module has, and lists every
name the package imports from it, so a deletion cannot leave a stale export."""

import ast
import importlib
from pathlib import Path

import galois_factor

PACKAGE = Path(galois_factor.__file__).parent


def package_imports() -> dict[str, set[str]]:
    """Per submodule, the names ``galois_factor/__init__.py`` imports from it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    found: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return found


def test_every_all_matches_its_module_and_the_package():
    imported = package_imports()
    checked = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"galois_factor.{path.stem}")
        if path.stem == "__init__" or not hasattr(module, "__all__"):
            continue
        checked.append(path.stem)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], path.stem
        assert imported.get(path.stem, set()) - set(module.__all__) == set(), path.stem
    assert {"contexts", "factorization", "fuzzy"} <= set(checked)
