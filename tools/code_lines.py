"""Count the code lines of Python and C files.

In a Python file, a code line is a physical line that holds part of a
token other than a comment, and that is not part of a docstring (the
string that opens a module, class or function body). Blank lines, comment
lines and docstrings are not counted; a multi-line string or bracketed
expression counts every line it spans. In a C file, a code line holds a
character other than white space outside `/* */` and `//` comments; a
comment marker inside a string or character literal starts no comment.

    python3 tools/code_lines.py [PATH ...]

prints each file's count, then the Python total and the C total. A PATH
may be a file or a directory, which is searched for `*.py` and `*.c`
files; the default is `src`.
"""

from __future__ import annotations

import ast
import bisect
import io
import os
import re
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


# a C comment (an unterminated one runs to the end), or a piece of code: a
# string or character literal, a run of other characters, or a lone `/`
_C_TOKEN = re.compile(r"""
    (?P<comment> /\*.*?(?:\*/|\Z) | //(?:\\\n|[^\n])* )
  | (?P<code> "(?:\\.|[^"\\\n])*"? | '(?:\\.|[^'\\\n])*'? | [^\s/"']+ | / )
""", re.S | re.X)


def c_code_lines(source: str) -> int:
    """The number of code lines of one C file's source text."""
    newlines = [k for k, ch in enumerate(source) if ch == "\n"]
    lines = set()
    for tok in _C_TOKEN.finditer(source):
        if tok.lastgroup == "code":
            lines.update(range(bisect.bisect(newlines, tok.start()),
                               bisect.bisect(newlines, tok.end() - 1) + 1))
    return len(lines)


# the counter of each language, by file suffix
LANGUAGES = {".py": ("Python", code_lines), ".c": ("C", c_code_lines)}


def _files(path: str):
    if os.path.isfile(path):
        if os.path.splitext(path)[1] not in LANGUAGES:
            raise SystemExit(f"{path}: neither a .py nor a .c file")
        yield path
        return
    for root, dirs, names in os.walk(path):
        dirs.sort()
        for name in sorted(names):
            if os.path.splitext(name)[1] in LANGUAGES:
                yield os.path.join(root, name)


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    totals = {language: 0 for language, _ in LANGUAGES.values()}
    for path in paths:
        for name in _files(path):
            language, count_lines = LANGUAGES[os.path.splitext(name)[1]]
            with open(name, encoding="utf-8") as fh:
                count = count_lines(fh.read())
            totals[language] += count
            print(f"{count:6d}  {name}")
    for language, total in totals.items():
        print(f"{total:6d}  total {language}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
