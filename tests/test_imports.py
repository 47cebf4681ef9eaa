"""No module of the package imports a name it never uses.

Each module under src/oddsgamma is parsed with the standard library's
ast; every name an import statement binds must appear as a name in the
module's code, or be re-exported through its __all__.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oddsgamma"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """The names the module's import statements bind, with their lines."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree):
    """The string entries of a module-level __all__ list or tuple."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_package_modules_found():
    assert PACKAGE / "family.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kept = _used_names(tree) | _exported_names(tree)
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in kept
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse(
        "import math\nfrom numpy import pi as PI, e\n__all__ = ['e']\nx = math.tau\n"
    )
    kept = _used_names(tree) | _exported_names(tree)
    assert {n for n in _imported_names(tree) if n not in kept} == {"PI"}
