"""Import checks for the package and its tests (stdlib ``ast``, no linter).

An import binding a name that the module never reads fails the check.  Names
listed in a module's ``__all__`` count as read, and every import in an
``__init__.py`` is a re-export.  ``from __future__`` imports are directives.

Every name in a package module's ``__all__`` must be bound at its top level,
and every name a package module imports from a sibling (``from .mod import
name``, the ``cwchaos`` re-exports included) must be bound at the sibling's
top level, so ``from cwchaos.mod import *`` and ``import cwchaos`` never meet
a dangling name.

The package itself may import only the standard library, numpy and its own
modules, at any depth (imports inside functions included), so its runtime
dependencies stay numpy alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cwchaos").glob("*.py"))
CHECKED = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
RUNTIME = set(sys.stdlib_module_names) | {"numpy", "cwchaos"}


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


def bound_names(source: str) -> set[str]:
    """Names bound by the top-level statements of ``source``: definitions,
    classes, assignment targets and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def dangling_names(source: str, siblings: dict[str, set[str]]) -> list[tuple[int, str]]:
    """(line, name) of every ``__all__`` entry that ``source`` does not bind, and
    of every name a relative import takes from a sibling module that does not
    bind it; ``siblings`` maps each sibling module to its ``bound_names``."""
    tree = ast.parse(source)
    own = bound_names(source)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            found += [(node.lineno, e.value) for e in node.value.elts
                      if isinstance(e, ast.Constant) and e.value not in own]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from . import name`` takes a sibling module or a name of the package
            have = (siblings.get(node.module, set()) if node.module
                    else set(siblings) | siblings.get("__init__", set()))
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name not in have]
    return sorted(found)


def test_checker_flags_only_dangling_names():
    source = (
        "from .space import Kernel, Missing\n"
        "from . import space, __version__, gone_module\n"
        "import os.path\n"
        "def f(): pass\n"
        "class C: pass\n"
        "X: int = 1\n"
        "Y = Z = 2\n"
        "def g():\n"
        "    Inner = 1\n"
        "__all__ = ['f', 'C', 'X', 'Y', 'Z', 'os', 'Kernel', 'space', 'Inner', 'Gone']\n"
    )
    siblings = {"__init__": {"__version__"}, "space": {"Kernel"}}
    assert dangling_names(source, siblings) == [
        (1, "Missing"), (2, "gone_module"), (10, "Gone"), (10, "Inner")]


def test_exports_and_reexports_are_bound():
    siblings = {path.stem: bound_names(path.read_text()) for path in PACKAGE}
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in PACKAGE for line, name in dangling_names(path.read_text(), siblings)]
    assert found == []


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of every absolute import, at any depth, whose top-level
    package is not in ``RUNTIME``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, m) for m in modules if m.split(".")[0] not in RUNTIME]
    return found


def test_checker_flags_only_foreign_modules():
    source = (
        "from __future__ import annotations\n"
        "import os, scipy\n"
        "import numpy.linalg\n"
        "from . import space\n"
        "from cwchaos.space import Kernel\n"
        "def f():\n"
        "    from scipy.optimize import linear_sum_assignment\n"
        "    import concurrent.futures\n"
    )
    assert foreign_imports(source) == [(2, "scipy"), (7, "scipy.optimize")]


def test_package_imports_only_stdlib_and_numpy():
    found = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for path in PACKAGE for line, module in foreign_imports(path.read_text())]
    assert found == []
