"""Every module-level import in the package modules, demos, tools and tests is
used, and the package exports exactly its modules' ``__all__``.

A stdlib ``ast`` pass standing in for a linter: a name bound by a top-level
``import`` must appear as a name somewhere in the same module or be listed
in its ``__all__``.  ``__init__.py`` is skipped there: it holds only its
docstring, ``__version__`` and a relative ``import *`` of each module that
has an ``__all__``, so the package's public names are the union of those
lists, no name in two of them.  Every constant in ``tolerances.py`` is also read
somewhere in the package or the tests, so none is documented but dead.
An exported name that only the tests use is named in the README, which
says why it stays public.
"""

import ast
import inspect
import pathlib
import re

import pytest

import bosonic_bounds

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bosonic_bounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PROGRAMS = sorted(p for d in ("demos", "tools") for p in (ROOT / d).glob("*.py"))
SCRIPTS = sorted(PROGRAMS + list((ROOT / "tests").glob("*.py")))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported_names(tree))
    return sorted(set(_imported_names(tree)) - used)


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import json as js\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n"
        "    '''pi appears only in this docstring.'''\n"
        "    return js.dumps(1)\n"
    )
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_exactly_its_modules_all():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    docstring, version, *imports = init.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert isinstance(version, ast.Assign)
    assert [t.id for t in version.targets] == ["__version__"]
    starred = [
        node.module
        for node in imports
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]
    assert len(starred) == len(imports)
    lists = {
        path.stem: _exported_names(ast.parse(path.read_text()))
        for path in MODULES
    }
    assert sorted(starred) == sorted(name for name, names in lists.items() if names)
    union = [name for names in lists.values() for name in names]
    assert len(union) == len(set(union)), "a name is in two modules' __all__"
    public = {
        name
        for name, value in vars(bosonic_bounds).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(union)


def _loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_tolerance_is_read():
    tolerances = PACKAGE / "tolerances.py"
    defined = {
        target.id
        for node in ast.parse(tolerances.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        if path != tolerances:
            read.update(_loaded_names(ast.parse(path.read_text())))
    assert defined and sorted(defined - read) == []


def _referenced_names(tree):
    yield from _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def unreferenced_exports(modules, sources):
    """Names in the modules' __all__ that no source names, reads or imports."""
    referenced = set()
    for source in sources:
        referenced.update(_referenced_names(ast.parse(source)))
    exported = set()
    for source in modules:
        exported.update(_exported_names(ast.parse(source)))
    return sorted(exported - referenced)


def test_export_detector_flags_only_unreferenced_names():
    module = (
        "__all__ = ['used', 'called', 'imported', 'dead']\n"
        "def used(): return called()\n"
        "def called(): pass\n"
        "def imported(): pass\n"
        "def dead(): 'dead appears only in strings'\n"
    )
    script = "from pkg.mod import imported\nprint(pkg.used, 'dead')\n"
    assert unreferenced_exports([module], [module, script]) == ["dead"]


def test_every_exported_name_is_used():
    # __init__.py only re-exports; an import there is not a use.
    sources = [p.read_text() for p in MODULES + SCRIPTS]
    assert unreferenced_exports([p.read_text() for p in MODULES], sources) == []


def test_every_export_only_tests_use_is_named_in_the_readme():
    exports = [p.read_text() for p in MODULES]
    test_only = unreferenced_exports(exports, exports + [p.read_text() for p in PROGRAMS])
    readme = (ROOT / "README.md").read_text()
    unnamed = [name for name in test_only if not re.search(rf"`{name}[`(]", readme)]
    assert test_only and unnamed == []
