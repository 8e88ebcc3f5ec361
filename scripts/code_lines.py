"""Count the code lines of Python sources: every line that holds part of a
statement, not counting blank lines, lines that hold only a comment, or the
docstrings of modules, classes and functions.

    python scripts/code_lines.py src/sgmstereo

prints one ``count path`` line per file and then ``count total``.  Each
argument is a Python file or a directory, searched for ``*.py``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories")
    args = parser.parse_args()
    files = [f for p in args.paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
