"""Static checks on the package source."""

import ast
from pathlib import Path

import neumannlab

SOURCES = sorted(Path(neumannlab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # checks must survive python -O: raise a typed NeumannLabError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
