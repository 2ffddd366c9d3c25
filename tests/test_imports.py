"""Unused-import check for the package and its tests (stdlib ``ast``, no linter).

An import binding a name that the module never reads fails the check.  Names
listed in a module's ``__all__`` count as read, and every import in an
``__init__.py`` is a re-export.  ``from __future__`` imports are directives.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted((ROOT / "src" / "cwchaos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str, is_init: bool = False) -> list[tuple[int, str]]:
    """(line, name) of every imported name that ``source`` never reads."""
    tree = ast.parse(source)
    if is_init:
        return []
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from math import exp, sqrt\n"
        "from .space import Kernel\n"
        "__all__ = ['Kernel']\n"
        "x = sqrt(2.0) + numpy.linalg.norm([1.0])\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "exp")]
    assert unused_imports(source, is_init=True) == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in CHECKED
             for line, name in unused_imports(path.read_text(), path.name == "__init__.py")]
    assert found == []
