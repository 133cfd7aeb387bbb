"""Every name a module imports is used in that module, the package
imports nothing outside itself and the standard library, and its modules
import each other at module level only, without a cycle."""

import ast
import sys
from graphlib import CycleError, TopologicalSorter
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


def package_graph(sources: dict, package: str = PACKAGE.name) -> tuple:
    """``(graph, nested)`` for the package modules ``{stem: source}``: graph
    maps each module to the package modules it imports at any depth (a
    name that is no module is read from ``__init__``), and nested lists
    ``"stem:line"`` for each of those imports below module level."""
    graph, nested = {}, []
    for stem, source in sources.items():
        tree = ast.parse(source)
        top = set(map(id, tree.body))
        graph[stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level <= 1:
                base = node.module if not node.level else (
                    f"{package}.{node.module}" if node.module else package)
                dotted = ([f"{base}.{alias.name}" for alias in node.names]
                          if base == package else [base])
            else:
                continue
            targets = {name.split(".")[1] if name.count(".") else "__init__"
                       for name in dotted if name.split(".")[0] == package}
            targets = {t if t in sources else "__init__" for t in targets}
            graph[stem] |= targets
            if targets and id(node) not in top:
                nested.append(f"{stem}:{node.lineno}")
    return graph, nested


def import_cycle(graph: dict):
    """A cycle ``[a, ..., a]`` of the module graph, or None."""
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as err:
        return err.args[1]
    return None


PACKAGE_GRAPH = package_graph({p.stem: p.read_text() for p in PACKAGE.glob("*.py")})


def test_package_imports_form_a_dag():
    assert import_cycle(PACKAGE_GRAPH[0]) is None


def test_package_imports_sit_at_module_level():
    assert PACKAGE_GRAPH[1] == []


def test_a_planted_cycle_is_found():
    graph, nested = package_graph({
        "a": "import os\nfrom ulrichbundles.b import g\n",
        "b": "from . import c\nfrom . import f\n",
        "c": "def h():\n    from .a import f\n    import json\n"})
    assert graph == {"a": {"b"}, "b": {"c", "__init__"}, "c": {"a"}}
    assert nested == ["c:2"]
    cycle = import_cycle(graph)
    assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b", "c"}
    graph["c"] = set()
    assert import_cycle(graph) is None
