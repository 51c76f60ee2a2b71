"""No module under src/lipkit/, tests/ or demos/ imports a name it
never reads.

The repository runs no linter, so a name left imported after the code
that read it is gone would stay.  An import binds its alias, or the
first component of a dotted module; the module reads the name when an
ast.Name loads it anywhere in the file, or when the module's __all__
lists it, as a package re-exports what it imports.  __future__
imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/lipkit/*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


def exported(tree):
    """The string literals an __all__ assignment lists."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def unread_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= exported(tree)
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"line {node.lineno}: {name}")
    return unread


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import os\nfrom a.b import c as d, e\ne()\n") \
        == ["line 1: os", "line 2: d"]
    assert unread_imports("from __future__ import annotations\n"
                          "import os.path\nos.sep\n") == []
    assert unread_imports("from .a import b, c\n__all__ = ['b']\n") \
        == ["line 1: c"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
