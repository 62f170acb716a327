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


def unread_helpers(sources: list[str]) -> list[str]:
    """Single-underscore functions, methods and classes that no Name or
    Attribute in the sources reads."""
    defined = [node.name for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    read = read_names(sources)
    return [name for name in defined if name not in read]


def test_the_check_finds_an_unread_helper():
    sources = ["class _A:\n    def _m(self): pass\n    def _unused(self): pass\n"
               "    def __len__(self): return 0\ndef _f(): return _A()._m()\n",
               "def g(): return _f\ndef _orphan(): pass\n"]
    assert unread_helpers(sources) == ["_unused", "_orphan"]


def test_no_unread_helpers():
    # tests do not count as readers: a helper only they reach belongs in them
    assert unread_helpers([path.read_text() for path in SOURCES]) == []


# Re-exports that nothing in src/ reads, each kept for the reason given until
# a command reaches it or it is removed.  An entry that src/ comes to read
# fails the check too, so the list stays exact.
UNREAD_EXPORTS = {
    "component_search": "certifies that a section curve has no low-degree factor (NS alarm evidence)",
    "fq_general_check": "checks that forms vanishing on X(F_q) vanish on X (F_q-generality)",
    "hyperplane_section": "the plane curve of a hyperplane section, input of component_search",
    "singular_points": "the Jacobian scan by extension degree, level_scan's smoothness check",
    "apply_projective_transform": "a monomially equivalent code with its verified witness",
    "equivalence_evidence": "weight-enumerator evidence that two codes are not equivalent",
    "sv_plane_bound": "the Stöhr-Voloch point bound for plane curves, valid once deg <= sqrt(q)",
    "cayley_salmon_c12": "a C12 cubic from explicit conjugate-plane coefficients",
    "dp6_quadric_ideal": "the 9 quadrics that cut out the Del Pezzo sextic",
}


def unread_exports(init: str, sources: list[str]) -> list[str]:
    """Names the package __init__ imports from its modules that no Name or
    Attribute in the other sources reads."""
    exported = [a.asname or a.name for node in ast.walk(ast.parse(init))
                if isinstance(node, ast.ImportFrom) for a in node.names]
    read = read_names(sources)
    return [name for name in exported if name not in read]


def test_the_check_finds_an_unread_export():
    init = "from .a import f, g as h, C\nfrom .b import k\n"
    sources = ["def f(): return C()\nclass C: pass\n", "import a\ndef k(): return a.g\n",
               "def main(): return f()\n"]
    assert unread_exports(init, sources) == ["h", "k"]


def test_every_export_is_read_or_allowed():
    init = ROOT / "src" / "evalcodes" / "__init__.py"
    unread = unread_exports(init.read_text(), [p.read_text() for p in SOURCES if p != init])
    assert sorted(unread) == sorted(UNREAD_EXPORTS)
