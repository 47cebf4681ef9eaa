"""No module of the package imports a name it never uses, and none
imports scipy when it is itself imported.

Each module under src/oddsgamma is parsed with the standard library's
ast; every name an import statement binds must appear as a name in the
module's code, or be re-exported through its __all__. scipy is loaded
on first use, through specfun's handles, so no import statement that
runs at module import (outside a function body) names scipy. scipy's
incomplete gamma, gammainc and gammaincc, is named in specfun alone, so
a new kernel for it is a change to that module only.
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


def _import_time_scipy_imports(tree):
    """The lines of import statements naming scipy that run when the
    module is imported: every one outside a function body."""
    lines, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            todo.extend(ast.iter_child_nodes(node))
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import_at_module_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _import_time_scipy_imports(tree)
    assert not lines, f"{path.name} imports scipy at module import, lines {lines}"


def test_detects_a_module_level_scipy_import():
    tree = ast.parse(
        "import numpy\nfrom scipy import special\n"
        "if True:\n    import scipy.optimize as opt\n"
        "class C:\n    from scipy.integrate import quad\n"
        "def f():\n    from scipy import stats\n"
    )
    assert _import_time_scipy_imports(tree) == [2, 4, 6]


INCOMPLETE_GAMMA = {"gammainc", "gammaincc"}


def _incomplete_gamma_uses(tree):
    """The lines that name gammainc or gammaincc, as an attribute or an
    imported name."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in INCOMPLETE_GAMMA:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name in INCOMPLETE_GAMMA for alias in node.names
        ):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_incomplete_gamma_only_in_specfun(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _incomplete_gamma_uses(tree)
    if path.name == "specfun.py":
        assert lines, "specfun.py no longer calls scipy's incomplete gamma"
    else:
        assert not lines, f"{path.name} calls scipy's incomplete gamma, lines {lines}"


def test_detects_an_incomplete_gamma_use():
    tree = ast.parse(
        "from .specfun import special\nq = special.gammaincc(1.0, 2.0)\n"
        "def f():\n    from scipy.special import gammainc\n"
        "p = special.gammaincinv(1.0, 0.5)\n"
    )
    assert _incomplete_gamma_uses(tree) == [2, 4]
