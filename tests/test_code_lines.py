"""tools/code_lines.py: the code-line counter the change log quotes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 8 code lines: the import, def, the two lines of the string assigned to
# s, return, class and the two lines of y; the docstrings, comments and
# blank lines do not count.
SNIPPET = '''"""Module docstring
over two lines."""

import math  # a trailing comment is on a code line


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is
    not a docstring"""
    return math.sqrt(x) + len(s)


class C:
    """Class docstring."""

    y = (1,
         2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    assert _tool().code_lines(SNIPPET) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  a.py\n     1  b.py\n     9  total\n"


def test_compares_a_base_and_a_change(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    change.mkdir()
    (base / "a.py").write_text(SNIPPET)
    (base / "gone.py").write_text("x = 1\ny = 2\n")
    (change / "a.py").write_text(SNIPPET + "z = 3\n")
    (change / "new.py").write_text("x = 1\n")
    assert _tool().main([str(base), str(change)]) == 0
    assert capsys.readouterr().out == (
        "  base  change    diff  module\n"
        "     8       9      +1  a.py\n"
        "     2       0      -2  gone.py\n"
        "     0       1      +1  new.py\n"
        "    10      10      +0  total\n")


def test_rejects_three_directories(tmp_path, capsys):
    assert _tool().main([str(tmp_path)] * 3) == 2
    assert capsys.readouterr().err.startswith("usage:")
