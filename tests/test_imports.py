"""Every module-level import in the package is used by its own module.

An import that only a deleted caller needed, or that stays alive only so
that something outside the module can reach the name through it, fails
here.  Names a package lists in ``__all__`` count as used.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdcprobe"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(path):
    """Names bound by the module's top-level imports that nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_modules_found():
    assert PACKAGE / "cli.py" in MODULES and PACKAGE / "nnet" / "autodiff.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, json as js\n"
                      "from .a import b, c\n"
                      "__all__ = ['c']\n"
                      "def f():\n    return os.sep\n")
    assert unused_imports(module) == ["b (line 3)", "js (line 2)"]
