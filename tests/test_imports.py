"""Every module of the package reads each name it imports, and some module uses each private helper."""

import ast
import pathlib

import pytest

import distkaczmarz

PACKAGE = pathlib.Path(distkaczmarz.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # re-exports


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_``-prefixed functions and classes (dunder names excluded)."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_orphaned_private_helpers():
    """Every private helper of the package is referenced by some module of it."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    orphans = [
        f"{name}: {helper}"
        for name, tree in sorted(trees.items())
        for helper in _private_definitions(tree)
        if helper not in referenced
    ]
    assert orphans == []
