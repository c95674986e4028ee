"""The package exports only what its command line and the benchmark use.

Every public top-level ``def`` or ``class`` of a ``src/formationlab`` module
(``cli.py``, the entry point, and ``__init__.py`` aside) must be used by
another package module or by ``perfbench/*.py``, outside ``__init__.py``:
imported by name from its module, or read as an attribute of its module
(``_kernels.close_mask``, also through an alias such as ``corpus as c``).
A bare name counts only inside the defining module, so a local variable
that happens to share a dead function's name elsewhere does not keep it.
Code that only tests call belongs in ``tests/oracles.py`` (reference
algorithms) or ``tests/conftest.py`` (helpers).  Words in table lookups
(a product of products, ``mul[mul[``) are written in ``_kernels.py`` only.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formationlab"


def _module_uses(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each name the file imports from a module or reads
    as ``module.name``, modules by their last dotted component."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}  # local name -> module it stands for
    uses: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # "import a.b" binds a, "import a.b as c" binds b
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name.split(".")[-1] if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                uses.add((module, alias.name))
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                uses.add((modules[value.id], node.attr))
            elif isinstance(value, ast.Attribute):
                uses.add((value.attr, node.attr))
    return uses


def unreferenced_public_names(package: Path, bench: Path) -> list[str]:
    """``module.name`` for each public top-level def or class of the
    package's library modules that no package or benchmark file uses."""
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    users = {path: _module_uses(path) for path in sources + sorted(bench.glob("*.py"))}
    unused = []
    for path in sources:
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        elsewhere = set().union(*(uses for other, uses in users.items() if other != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in local and (path.stem, node.name) not in elsewhere:
                    unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert unreferenced_public_names(PACKAGE, ROOT / "perfbench") == []


def test_a_same_named_local_elsewhere_is_not_a_use(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "perms.py").write_text("def identity(n):\n    return n\n\n\ndef parse(t):\n    return t\n")
    (package / "kernels.py").write_text("def sweep():\n    identity = 0\n    return identity\n")
    (package / "cli.py").write_text("from .perms import parse\n")
    (bench / "run.py").write_text("from pkg import kernels as k\n\nk.sweep()\n")
    assert unreferenced_public_names(package, bench) == ["perms.identity"]


def test_table_words_live_in_the_kernels():
    nested = [p.name for p in sorted(PACKAGE.glob("*.py")) if p.name != "_kernels.py" and "mul[mul[" in p.read_text()]
    assert nested == []
