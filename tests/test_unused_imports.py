"""No ``repro`` module imports a name it never uses.

A stdlib :mod:`ast` scan: every name a module binds with a module-level
``import`` must appear somewhere else in that module. Names used only in
annotations count, string annotations and ``TYPE_CHECKING`` blocks
included. Package ``__init__`` modules (whose imports are re-exports)
and names listed in a module's ``__all__`` are exempt.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
MODULES = sorted(
    p for p in SRC.rglob("*.py") if p.name != "__init__.py"
)


def _module_imports(tree: ast.Module):
    """``(name, lineno)`` of each name bound by a module-level import,
    including imports nested in top-level ``if`` / ``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _string_annotations(tree: ast.Module):
    """The expressions inside quoted annotations."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    try:
                        yield ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        pass


def _used_names(tree: ast.Module):
    names = set()
    for root in [tree, *_string_annotations(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _exported(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str):
    """``(name, lineno)`` of every module-level import ``source`` never
    uses."""
    tree = ast.parse(source)
    used = _used_names(tree) | _exported(tree)
    return sorted(
        (name, lineno) for name, lineno in _module_imports(tree)
        if name not in used
    )


class TestScanner:
    def test_flags_an_unused_import(self):
        assert unused_imports(
            "import os\nfrom typing import List, Optional\nx: List = []\n"
        ) == [("Optional", 2), ("os", 1)]

    def test_annotations_type_checking_and_all_count_as_use(self):
        assert unused_imports(
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING, Dict\n"
            "if TYPE_CHECKING:\n"
            "    from pathlib import Path\n"
            "from json import dumps\n"
            "__all__ = ['dumps']\n"
            "def f(p: 'Path') -> Dict: ...\n"
        ) == []


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
