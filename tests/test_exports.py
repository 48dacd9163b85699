"""Every public name of the package has a caller besides the tests.

A name that ``rotprox/__init__.py`` exports must be used somewhere in ``src/``
other than its own definition, or by the benchmark in ``bench/``, or be
documented in ``README.md``. Code that only tests reach belongs in
``tests/support.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rotprox"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_in_src() -> set[str]:
    """Identifiers read (not bound) anywhere in the package's modules."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_non_test_caller():
    used = names_used_in_src()
    text = "\n".join(p.read_text(encoding="utf-8") for p in [*(ROOT / "bench").glob("*.py"), ROOT / "README.md"])
    orphans = [
        name for name in exported_names()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert orphans == []
