"""Guards on the package source that no runtime test would notice."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qwalk1d").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a numerical guard must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement at line(s) {lines}"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exports(tree):
    """The names of the module's ``__all__``, or None if it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def definitions(tree):
    """The names the module binds at its top level by ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


EXPORTING = [path for path in SOURCES if exports(parse(path)) is not None]


@pytest.mark.parametrize("path", EXPORTING, ids=[path.name for path in EXPORTING])
def test_every_export_is_defined_in_its_module(path):
    tree = parse(path)
    stale = sorted(set(exports(tree)) - definitions(tree))
    assert stale == [], f"{path.name}: __all__ names {stale}, which the module does not define"


def test_the_package_imports_only_exported_names():
    package = SOURCES[0].parent
    unlisted = []
    for node in parse(package / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = exports(parse(package / f"{node.module}.py"))
            if listed is not None:
                unlisted += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in listed]
    assert unlisted == [], f"__init__.py imports {unlisted}, which no __all__ lists"


@pytest.mark.parametrize("path", EXPORTING, ids=[path.name for path in EXPORTING])
def test_no_export_is_a_memo_wrapper(path):
    # a public name is a plain function over a private memo, so that callers
    # and wrappers from outside see one function (``lru_cache`` wrappers have ``cache_info``)
    module = importlib.import_module(f"qwalk1d.{path.stem}")
    memos = [name for name in exports(parse(path)) if hasattr(getattr(module, name), "cache_info")]
    assert memos == [], f"{path.name}: __all__ names the memo wrappers {memos}"
