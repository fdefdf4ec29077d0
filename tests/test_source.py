import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tracealign").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_runtime_check_depends_on_assert(path):
    # ``python -O`` strips assert statements, so a check made with one can vanish.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def test_sources_are_found():
    assert len(SOURCES) >= 7


def _private_definitions(tree):
    """Each private module-level function, class or constant, with the node defining it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree):
    """How often each name is read, looked up as an attribute or imported under ``tree``."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    return uses


def test_every_private_helper_is_used():
    # A helper whose last caller went is dead code that still reads as part of the design.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{file}:{name}"
        for file, tree in trees.items()
        for name, node in _private_definitions(tree)
        if uses[name] == _uses(node)[name]
    ]
    assert unused == [], f"private names never used outside their own definition: {unused}"


def _imported_names(tree):
    """Each name a module-level import binds, with its line; ``__future__`` binds none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_import_is_used(path):
    # ``__init__.py`` imports names to re-export them, so it is not checked.
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in read]
    assert unused == [], f"{path.name} never reads the imports {unused}"
