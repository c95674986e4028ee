"""The package exports only what its command line and the benchmark use.

Every public top-level ``def`` or ``class`` of a ``src/formationlab`` module
(``cli.py``, the entry point, and ``__init__.py`` aside) must be referenced
by name in another place in the package or in ``perfbench/*.py``, outside
``__init__.py``.  Code that only tests call belongs in ``tests/oracles.py``
(reference algorithms) or ``tests/conftest.py`` (helpers).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formationlab"


def _referenced_names(paths) -> set[str]:
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unreferenced_public_names(package: Path, bench: Path) -> list[str]:
    """``module.name`` for each public top-level def or class of the
    package's library modules that no package or benchmark file uses."""
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    used = _referenced_names(sources + sorted(bench.glob("*.py")))
    unused = []
    for path in sources:
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in used:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert unreferenced_public_names(PACKAGE, ROOT / "perfbench") == []
