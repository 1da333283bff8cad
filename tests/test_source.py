import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "replab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_runtime_checks_are_raised_errors(path):
    # an assert vanishes under python -O, so no runtime check may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == [], f"{path.name} asserts at lines {asserts}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_lines_fit_in_99_columns(path):
    long = [number for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 99]
    assert long == [], f"{path.name} is over 99 columns at lines {long}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export; __future__ imports switch features on
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name} never uses these imports (name: line): {unused}"


def _private_definitions(tree):
    """The module-level ``_name``s a module defines (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_private_names_are_used_in_src():
    # a private helper that only the tests call is code the package does not need
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    used = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    unused = sorted(f"{module}: {name}" for module, tree in trees.items()
                    for name in _private_definitions(tree) - used)
    assert unused == [], f"defined but never used in src/: {unused}"
