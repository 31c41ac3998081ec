"""Count the code lines of Python files.

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring (the string that opens a
module, class or function body). Blank lines, comment lines and
docstrings are not counted; a multi-line string or bracketed expression
counts every line it spans.

    python3 tools/code_lines.py [PATH ...]

prints each file's count and the total. A PATH may be a file or a
directory, which is searched for `*.py` files; the default is `src`.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

# tokens that are not code
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one file's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(path: str):
    if os.path.isfile(path):
        yield path
        return
    for root, dirs, names in os.walk(path):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in paths:
        for name in _files(path):
            with open(name, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
