"""Static checks on the package source."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: every module of the package source tree, whichever copy is imported
SOURCES = sorted((REPO / "src" / "neumannlab").rglob("*.py"))


def test_no_assert_statements():
    # checks must survive python -O: raise a typed NeumannLabError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


#: files whose references make a package name used: the package modules
#: (re-exports in __init__ do not count), the scripts, the benchmark, and the
#: acceptance gate with its fixtures; the per-module unit tests do not count
CALLER_FILES = (
    [path for path in SOURCES if path.name != "__init__.py"]
    + sorted((REPO / "scripts").glob("*.py"))
    + sorted((REPO / "perfbench").glob("*.py"))
    + [REPO / "tests" / "test_acceptance.py", REPO / "tests" / "conftest.py"]
)


def _public_names(tree):
    """Public top-level functions and classes, and the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item.lineno


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_public_names_have_callers():
    # a public function, class or method that only its own unit tests call is
    # surface to delete, not to keep
    used = set()
    for path in CALLER_FILES:
        used |= _referenced(ast.parse(path.read_text()))
    unused = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name, lineno in _public_names(ast.parse(path.read_text()))
        if name not in used
    ]
    assert not unused, unused
