"""Count the code lines of each ``src/detrec`` module, and their total.

    python3 tools/code_lines.py [DIR]

A code line is a source line that holds some code: blank lines, lines
holding only a comment, and the lines of module, class and function
docstrings are not counted.  ``DIR`` defaults to ``src/detrec`` beside
this script; every ``*.py`` file directly in it is counted.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "detrec")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.dir.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
