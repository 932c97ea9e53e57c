"""`tools/code_lines.py`: which lines of a source file count as code."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 5 code lines: the import, the class, def and async def lines, the return
DOCUMENTED = '''\
"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""

        # an indented comment
        return os.sep


async def g():
    """Async function docstring."""
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines(DOCUMENTED) == 5


@pytest.mark.parametrize("source, lines", [
    # one expression over three lines
    ("x = (1 +\n     2 +\n     3)\n", 3),
    # a backslash continuation
    ("x = 1 + \\\n    2\n", 2),
    # a string over two lines that is no docstring, and a bare string
    # after a function's first statement
    ('x = """a\nb"""\n', 2),
    ('def f():\n    pass\n    """not first"""\n', 3),
    ("", 0),
])
def test_each_spanned_line_counts_once(source, lines):
    assert code_lines.code_lines(source) == lines


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "pkg" / "b.py").write_text("y = (1,\n     2)\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "a.py"], ["2", "pkg/b.py"], ["3", "total"]]
