"""No module under tests/ or demos/ imports a name it never reads.

The repository runs no linter, so a name left imported after the code
that read it is gone would stay.  An import binds its alias, or the
first component of a dotted module; the module reads the name when an
ast.Name loads it anywhere in the file.  __future__ imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def unread_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
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


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
