"""Static checks on the sources, on the standard library's `ast` alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "evalcodes").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nimport a.b\nfrom c import d as e\n" \
             "def f(x: e) -> None:\n    return a.b(sys)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's re-exports
    assert unused_imports(path.read_text()) == []


def unread_helpers(sources: list[str]) -> list[str]:
    """Single-underscore functions, methods and classes that no Name or
    Attribute in the sources reads."""
    defined, read = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_the_check_finds_an_unread_helper():
    sources = ["class _A:\n    def _m(self): pass\n    def _unused(self): pass\n"
               "    def __len__(self): return 0\ndef _f(): return _A()._m()\n",
               "def g(): return _f\ndef _orphan(): pass\n"]
    assert unread_helpers(sources) == ["_unused", "_orphan"]


def test_no_unread_helpers():
    # tests do not count as readers: a helper only they reach belongs in them
    assert unread_helpers([path.read_text() for path in SOURCES]) == []
