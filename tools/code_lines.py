"""Lines of code in src/lipkit/*.py, without docstrings, comments or
blank lines, per module and in total.

    python tools/code_lines.py [ROOT]

ROOT is the checkout to count (the one holding this script when left
out).  A line counts when it holds a token of code, a line of a
multi-line string included; a docstring, the leading string statement
of a module, class or function (found with ast), does not count.
Unlike `wc -l`, the count falls only when code goes, not when a comment
or a docstring shrinks.  Standard library only.
"""

from __future__ import annotations

import ast
import glob
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set:
    """The lines of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "lipkit", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {os.path.basename(path)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
