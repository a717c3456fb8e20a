"""Every module-level import in the package modules, demos, tools and tests is
used, and every re-export of the package is public in its defining module.

A stdlib ``ast`` pass standing in for a linter: a name bound by a top-level
``import`` must appear as a name somewhere in the same module or be listed
in its ``__all__``.  ``__init__.py`` is skipped there because its imports are
the package's re-exports; those must instead be listed in the ``__all__`` of
the module defining them, so ``import *`` and the module's own public list
agree with the package.  Every constant in ``tolerances.py`` is also read
somewhere in the package or the tests, so none is documented but dead.
An exported name that only the tests use is named in the README, which
says why it stays public.
"""

import ast
import pathlib
import re

import pytest

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
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
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


def _defined_names(tree):
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_package_reexports_are_in_module_all():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    missing = []
    for node in init.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        tree = ast.parse((PACKAGE / f"{node.module}.py").read_text())
        exported = _exported_names(tree)
        if not exported:
            continue  # without __all__, import * takes every public name
        defined = _defined_names(tree)
        missing += [
            f"{node.module}.{alias.name}"
            for alias in node.names
            if alias.name in defined and alias.name not in exported
        ]
    assert missing == []


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
        exported |= _exported_names(ast.parse(source))
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
