"""Source hygiene: no module of the package imports a name it never uses
or a scipy subpackage beyond scipy.linalg and scipy.sparse, and no private
function or class member outlives its last reference."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stripflow"


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


# every run loads these, so their mapped code is the floor of its peak
# resident size; scipy.fft, scipy.special and the rest stay unloaded
SCIPY_ALLOWED = ("scipy.linalg", "scipy.sparse")


def scipy_imports(path):
    """(line, module) of each scipy module that an import in the module at
    path names, other than those of SCIPY_ALLOWED: `import scipy.x`, `from
    scipy.x import y` and `from scipy import x` name scipy.x, a bare
    `import scipy` names scipy."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "scipy":
            names = [f"scipy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] == "scipy" and name not in SCIPY_ALLOWED]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_no_scipy_beyond_linalg_and_sparse(path):
    assert scipy_imports(path) == []


def test_scipy_import_check_sees_each_form(tmp_path):
    # a convolution back on scipy.fft, a subpackage of an allowed one, a
    # name from scipy itself and a bare scipy, at module level or in a
    # function; the allowed two in every form pass, and so does a name that
    # only starts with scipy
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import scipy.linalg\n"
        "import scipy.sparse as sp\n"
        "from scipy.linalg import cho_solve\n"
        "from scipy import sparse\n"
        "import scipy_like\n"
        "from . import scipy\n"
        "import scipy.fft\n"
        "from scipy.sparse.linalg import splu\n"
        "from scipy import special, linalg\n"
        "import scipy\n"
        "def f():\n"
        "    from scipy.integrate import quad\n"
        "    return quad\n")
    assert scipy_imports(mod) == [(7, "scipy.fft"), (8, "scipy.sparse.linalg"),
                                  (9, "scipy.special"), (10, "scipy"),
                                  (12, "scipy.integrate")]


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


def unreferenced_members(src, readers):
    """(class name, member) of each method, property or annotated field
    (a dataclass or NamedTuple field) of a module-level class in a module
    under src that no attribute read in any module under the directories
    readers names. A dunder is never reported."""
    read = set()
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out = []
    for path in sorted(src.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in read:
                    out.append((cls.name, name))
    return sorted(out)


def test_no_unreferenced_class_members():
    assert unreferenced_members(SRC, [ROOT / "src", ROOT / "tests", ROOT / "stripbench"]) == []


def test_unreferenced_member_check_sees_a_leftover(tmp_path):
    # a method whose last caller moved to the constructor stays behind; a
    # call, a property read, a field read from another module and a method
    # taken as a value count as reads, a field only written does not, and
    # a dunder is never reported
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    read: int\n"
        "    written: int = 0\n"
        "    def __post_init__(self):\n        self.written = 1\n"
        "    def called(self):\n        return self.read\n"
        "    @property\n    def size(self):\n        return 2\n"
        "    def taken(self):\n        return 3\n"
        "    def left_behind(self):\n        return 4\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box\n"
        "def f(box):\n    g = Box.taken\n    return box.called() + box.size + g(box)\n")
    assert unreferenced_members(tmp_path, [tmp_path]) == [("Box", "left_behind"),
                                                          ("Box", "written")]
