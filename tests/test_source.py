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
