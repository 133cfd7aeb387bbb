"""Every name a module imports is used in that module, and the package
imports nothing outside itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "ulrichbundles"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names bound by the import statements of a module, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def used_names(tree):
    """Names loaded anywhere, string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def imported_modules(tree):
    """The top-level names of the absolute imports of a module, at any
    depth; relative imports stay inside the package and are skipped."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_stdlib_only(path):
    tree = ast.parse(path.read_text())
    outside = imported_modules(tree) - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert sorted(outside) == []


def test_a_third_party_import_is_found():
    tree = ast.parse("import os.path\nfrom . import picard\n"
                     "def f():\n    import numpy as np\n    from yaml import load\n")
    assert imported_modules(tree) - set(sys.stdlib_module_names) == {"numpy", "yaml"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from os import path, sep\nimport sys\n"
                     "def f(x: 'sep') -> None:\n    return x\n")
    assert imported_names(tree) - used_names(tree) == {"path", "sys"}
