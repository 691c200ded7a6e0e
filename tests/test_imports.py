"""Every module-level import in the package is used by its own module,
every module-level private name is read somewhere in the package, and no
module imports another module's private name.

An import that only a deleted caller needed, or that stays alive only so
that something outside the module can reach the name through it, fails
here.  Names a package lists in ``__all__`` count as used.  So fails a
private function, class or constant (``_name``, dunders aside) that no
module of the package reads any more, such as a helper whose last caller
was folded into another path; tests do not count as readers.  A module
that needs another's private name should get a public one instead; only
the modules of ``nnet/`` share private helpers among themselves (the
layers use autodiff's im2col and gradient helpers).  ``nnet/`` is the
bottom layer: besides itself it imports only ``errors``, ``fileio`` and
``bitfloat``, so everything above can import it without a cycle.
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


def _bound_names(target):
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def dead_private_names(paths):
    """Module-level private names defined in paths that no module in paths
    reads: as a name, as an attribute or through an import."""
    defined, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [n for t in node.targets for n in _bound_names(t)]
            elif isinstance(node, ast.AnnAssign):
                names = _bound_names(node.target)
            else:
                continue
            for name in names:
                if _is_private(name):
                    defined[f"{path.stem}.{name}"] = (name, node.lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{where} (line {line})" for where, (name, line) in defined.items()
                  if name not in read)


def private_imports(paths, shared_within):
    """Private names the modules in paths import from another module, except
    a module in the directory shared_within importing from its sibling."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or (
                    path.parent == shared_within and node.level == 1):
                continue
            found += [f"{path.stem}: {alias.name} (line {node.lineno})"
                      for alias in node.names if _is_private(alias.name)]
    return sorted(found)


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


def test_no_dead_private_names():
    assert dead_private_names(MODULES) == []


def test_the_scan_sees_a_dead_private_name(tmp_path):
    (tmp_path / "a.py").write_text("import numpy as np\n"
                                   "_USED, (_PAIR, _DEAD_PAIR) = 1, (2, 3)\n"
                                   "_DEAD: int = 4\n"
                                   "__version__ = '1'\n"
                                   "def _helper():\n    return _USED + _PAIR\n"
                                   "def _orphan():\n    return np.pi\n"
                                   "class _Imported:\n    pass\n"
                                   "class _Read:\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n"
                                   "from .a import _Imported\n"
                                   "def f():\n    return a._helper(), a._Read, _Imported\n")
    assert dead_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a._DEAD (line 3)", "a._DEAD_PAIR (line 2)", "a._orphan (line 7)"]


def test_no_private_name_imported_from_another_module():
    assert private_imports(MODULES, PACKAGE / "nnet") == []


def test_the_scan_sees_a_private_import(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (tmp_path / "a.py").write_text("from __future__ import annotations\n"
                                   "from .b import _helper, public, __version__\n"
                                   "def f():\n    from .sub.c import _late\n    return _late\n")
    (sub / "c.py").write_text("from .d import _shared\nfrom ..a import _leak\n")
    assert private_imports([tmp_path / "a.py", sub / "c.py"], sub) == [
        "a: _helper (line 2)", "a: _late (line 4)", "c: _leak (line 2)"]


def outside_imports(root, sub, allowed):
    """The modules of the package at root, named by their first part below
    it, that the modules under root/sub import, except sub and allowed."""
    found = set()
    for path in sorted((root / sub).rglob("*.py")):
        package = list(path.relative_to(root).parent.parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                dotted = [a.name.split(".") for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                # absolute dotted path of each imported name
                base = [root.name] + package[:len(package) + 1 - node.level] if node.level else []
                module = node.module.split(".") if node.module else []
                dotted = [base + module + [a.name] for a in node.names]
            else:
                continue
            found |= {f"{path.stem}: {d[1]} (line {node.lineno})" for d in dotted
                      if d[0] == root.name and d[1:2] and d[1] not in allowed | {sub}}
    return sorted(found)


def test_nnet_imports_no_module_above_it():
    assert outside_imports(PACKAGE, "nnet", {"errors", "fileio", "bitfloat"}) == []


def test_the_scan_sees_an_import_from_above(tmp_path):
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "a.py").write_text("from ..errors import E\n"
                                       "from .. import fat, fileio\n"
                                       "from ..fault_model import FaultSite\n"
                                       "import pkg.campaign, numpy\n"
                                       "from pkg import cli\n"
                                       "from pkg.bitfloat import x\n"
                                       "from .b import y\n"
                                       "def f():\n    from ..injector import z\n")
    assert outside_imports(root, "sub", {"errors", "fileio", "bitfloat"}) == [
        "a: campaign (line 4)", "a: cli (line 5)", "a: fat (line 2)",
        "a: fault_model (line 3)", "a: injector (line 9)"]
