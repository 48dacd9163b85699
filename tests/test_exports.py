"""Every public name and every module-level function or class of the package has
a caller besides the tests.

A name that ``rotprox/__init__.py`` exports, and every ``def`` or ``class`` at
the top level of a module in ``src/rotprox``, must be used somewhere in ``src/``
other than its own definition, or by the benchmark in ``bench/``, or by the
``python`` code blocks of ``README.md`` that ``test_readme.py`` runs; a mention
in README prose does not count. Code that only tests reach belongs in
``tests/support.py``.
"""

import ast
import collections
import re
from pathlib import Path

from test_readme import python_blocks

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotprox"


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _reads(tree: ast.AST) -> collections.Counter:
    """Identifiers read (not bound) under `tree`, with their counts."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def top_level_definitions(modules) -> list[tuple[str, ast.AST]]:
    """(module, def) for every function and class defined at a module's top level."""
    return [
        (name, node)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def _outside_text() -> str:
    return "\n".join([*(p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")), *python_blocks()])


def _mentioned(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def test_every_export_has_a_non_test_caller():
    modules = _modules()
    used = sum((_reads(tree) for tree in modules.values()), collections.Counter())
    text = _outside_text()
    orphans = [name for name in exported_names() if not used[name] and not _mentioned(name, text)]
    assert orphans == []


def test_every_module_level_definition_has_a_non_test_caller():
    # a read inside the definition itself (recursion, a class naming itself) is not a caller
    modules = _modules()
    used = sum((_reads(tree) for tree in modules.values()), collections.Counter())
    text = _outside_text()
    orphans = [
        f"{module}:{node.name}"
        for module, node in top_level_definitions(modules)
        if used[node.name] - _reads(node)[node.name] <= 0 and not _mentioned(node.name, text)
    ]
    assert orphans == []
