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


def read_names(sources: list[str]) -> set[str]:
    """The names that some Name or Attribute in the sources reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}


def unread_definitions(sources: list[str]) -> list[str]:
    """Functions, methods and classes, dunders aside, whose name no Name or
    Attribute in the sources reads.  An import is no read, so a name that
    only the package __init__ re-exports is flagged."""
    defined = [node.name for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))]
    read = read_names(sources)
    return [name for name in defined if name not in read]


def test_the_check_finds_unread_definitions():
    # unread methods (unused, _unused), unread functions (run, _orphan), and
    # g and k, which only the __init__ names: an import (g as h) is no read
    sources = ["from .a import f, g as h, C\nfrom .b import k\n",
               "def f(): return C().used()\nclass C:\n    def used(self): pass\n"
               "    def unused(self): pass\ndef g(): pass\n",
               "def k(): return 0\ndef main(): return f()\nmain()\n",
               "class _A:\n    def _m(self): pass\n    def _unused(self): pass\n"
               "    def __len__(self): return 0\ndef _f(): return _A()._m()\n",
               "def run(): return _f\ndef _orphan(): pass\n"]
    assert unread_definitions(sources) == ["g", "unused", "k", "_unused", "run", "_orphan"]


def test_the_check_finds_an_unread_helper():
    # the private-helper check's old input: g, its public caller, is now flagged too
    sources = ["class _A:\n    def _m(self): pass\n    def _unused(self): pass\n"
               "    def __len__(self): return 0\ndef _f(): return _A()._m()\n",
               "def g(): return _f\ndef _orphan(): pass\n"]
    assert unread_definitions(sources) == ["_unused", "g", "_orphan"]


def test_the_check_finds_an_unread_export():
    # the re-export check's old input: k is only re-exported, and main has no reader
    sources = ["from .a import f, g as h, C\nfrom .b import k\n",
               "def f(): return C()\nclass C: pass\n", "import a\ndef k(): return a.g\n",
               "def main(): return f()\n"]
    assert unread_definitions(sources) == ["k", "main"]


# Definitions that nothing in src/ reads, each kept for the reason given.  The
# list must match exactly, so a name that src/ comes to read leaves it.
UNREAD_DEFINITIONS = {
    "apply_projective_transform": "a monomially equivalent code with its verified witness, "
                                  "which acceptance criterion 9d tests invariance through",
}


def test_every_definition_is_read_or_allowed():
    # tests do not count as readers: code only they reach belongs in them
    unread = unread_definitions([path.read_text() for path in SOURCES])
    assert sorted(unread) == sorted(UNREAD_DEFINITIONS)


def test_no_unread_helpers():
    unread = unread_definitions([path.read_text() for path in SOURCES])
    assert [name for name in unread if name.startswith("_")] == []


def test_every_export_is_read_or_allowed():
    init = ROOT / "src" / "evalcodes" / "__init__.py"
    exported = {a.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    unread = unread_definitions([path.read_text() for path in SOURCES])
    assert sorted(exported & set(unread)) == sorted(exported & set(UNREAD_DEFINITIONS))


def unread_fields(sources: list[str]) -> list[str]:
    """Class.field for each field of a @dataclass class whose name no
    attribute load in the sources reads; a store (self.x = ...) is no read."""
    fields, loads = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    return [field for field in fields if field.split(".")[1] not in loads]


def test_the_check_finds_unread_fields():
    # b is only stored and c only named in a string; D is no dataclass, and
    # a read through any object counts (x.a reads P.a)
    sources = ["@dataclass\nclass P:\n    a: int\n    b: int = 0\n    c: str = ''\n"
               "    def f(self):\n        self.b = 1\n        return 'c'\n",
               "@dataclass(frozen=True)\nclass Q:\n    e: int\n    a: int\n",
               "class D:\n    g: int\n",
               "def h(x):\n    return x.a\n"]
    assert unread_fields(sources) == ["P.b", "P.c", "Q.e"]


def test_every_dataclass_field_is_read():
    assert unread_fields([path.read_text() for path in SOURCES]) == []


# The package's modules in import order: each may import only those before it.
LAYERS = ["gf", "gflinalg", "poly", "bounds", "projective", "codes", "families", "cli"]


def layering_faults(module: str, source: str) -> list[tuple[str, str]]:
    """(imported module, fault) for each package-relative import that is not
    at module level or reaches a module not before `module` in LAYERS."""
    tree = ast.parse(source)
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for target in [node.module] if node.module else [a.name for a in node.names]:
                if node not in tree.body:
                    faults.append((target, "function-local"))
                if LAYERS.index(target) >= LAYERS.index(module):
                    faults.append((target, "backwards"))
    return faults


def test_the_check_finds_a_local_and_a_backwards_import():
    source = "from . import gf\nfrom .poly import f\nfrom .codes import g\n" \
             "def h():\n    from .gf import k\n    return k\n"
    assert layering_faults("projective", source) == [("codes", "backwards"), ("gf", "function-local")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.stem)
def test_imports_are_module_level_and_follow_the_layers(path):
    # __init__.py is skipped: it re-exports every layer
    assert layering_faults(path.stem, path.read_text()) == []
