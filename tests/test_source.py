"""Source hygiene: no module of the package imports a name it never uses,
and no private function outlives its last reference."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stripflow"


def unused_imports(path):
    """(line, name) of each name an import in the module at path binds and
    nothing in the module reads: no load of the name, no attribute chain
    rooted at it, no entry of __all__. An import whose first line is marked
    `# noqa: F401` is kept for its side effect."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_check_sees_a_leftover(tmp_path):
    # a solve moved out of a module leaves its scipy.linalg import behind; a
    # marked side-effect import, a name in __all__ and an attribute root count
    # as used
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "import scipy.linalg as sla\n"
        "import scipy.sparse  # noqa: F401  loaded for its side effect\n"
        "from .fields import FullField, StripField\n"
        "__all__ = ['FullField']\n"
        "def f(x):\n"
        "    return np.sum(x)\n")
    assert unused_imports(mod) == [(2, "sla"), (4, "StripField")]


def unreferenced_private_functions(src):
    """(file name, name) of each module-level function whose name starts
    with a single "_" and that no module under src refers to: no load of
    the name, no attribute of that name, no import of it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return sorted((name, node.name) for name, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                  and not node.name.startswith("__") and node.name not in referenced)


def test_no_unreferenced_private_functions():
    assert unreferenced_private_functions(SRC) == []


def test_unreferenced_function_check_sees_a_leftover(tmp_path):
    # a refactor that inlines a helper leaves its definition behind; a call,
    # an import from another module and an attribute of the module count as
    # references, and a dunder is never reported
    (tmp_path / "a.py").write_text(
        "def _called():\n    return 1\n"
        "def _imported():\n    return 2\n"
        "def _by_attribute():\n    return 3\n"
        "def _left_behind():\n    return _called()\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _imported\n"
        "def f():\n    return a._by_attribute() + _imported()\n")
    assert unreferenced_private_functions(tmp_path) == [("a.py", "_left_behind")]
