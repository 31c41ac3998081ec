"""tools/code_lines.py: the code lines of Python and C sources."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 11 lines hold code: the #include and each line from `int x` to the
# closing brace, both lines of the backslash-continued string among them.
C_SOURCE = r"""/* a block comment
   over two lines */
#include <stdio.h>

// a line comment
// that a backslash continues \
   onto this line
int x = 1; /* code, then a comment */
/* a comment, then code */ int y = 2;
const char *s = "/* not a comment";
const char *u = "// nor this";
char q = '"'; char b = '\\';
char e = '\'';
const char *w = "a string \
over two lines";
int z = 4 / 2;
    }
/* a comment that never ends
int dead = 0;
"""


def test_c_lines_outside_comments_count():
    assert code_lines.c_code_lines(C_SOURCE) == 11


@pytest.mark.parametrize("source, want", [
    ("", 0),
    ("\n\n", 0),
    ("a", 1),
    ("a\n/**/\nb /* c\n d */ e\n", 3),
    ("x = 1; // y = 2;\n", 1),
])
def test_small_c_sources(source, want):
    assert code_lines.c_code_lines(source) == want


def test_python_and_c_totals_apart(tmp_path, capsys):
    """A directory's Python and C files are counted by their own rules and
    totalled apart; other files are not read."""
    (tmp_path / "a.py").write_text('"""doc"""\n\n# note\nx = 1\n')
    (tmp_path / "b.c").write_text("/* note */\nint x;\nint y;\n")
    (tmp_path / "c.h").write_text("int z;\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["1", str(tmp_path / "a.py")],
        ["2", str(tmp_path / "b.c")],
        ["1", "total", "Python"],
        ["2", "total", "C"],
    ]
