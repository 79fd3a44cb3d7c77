"""Count the code lines of the Python modules in a directory.

A code line holds a token of a statement.  Blank lines, comment-only
lines and the lines of docstrings (a string that is the first statement
of a module, class or function) do not count.

    python3 tools/code_lines.py src/extremesum

prints one ``<lines>  <module>`` line per module, sorted by name, and
then ``<total>  total``.  Given two directories, a base and a change,

    python3 tools/code_lines.py BASE/src/extremesum src/extremesum

prints a header and then ``<base>  <change>  <difference>  <module>`` per
module of either directory (0 where a module is absent) and for the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def _counts(directory) -> dict:
    """{module file name: code lines} of the Python modules in ``directory``."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in Path(directory).glob("*.py")}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: code_lines.py DIRECTORY | code_lines.py BASE CHANGE", file=sys.stderr)
        return 2
    counts = [_counts(directory) for directory in args]
    rows = [(name, [c.get(name, 0) for c in counts]) for name in sorted(set().union(*counts))]
    rows.append(("total", [sum(c.values()) for c in counts]))
    if len(counts) == 2:
        print(f"{'base':>6}  {'change':>6}  {'diff':>6}  module")
    for name, lines in rows:
        if len(lines) == 2:
            lines.append(f"{lines[1] - lines[0]:+d}")
        print("".join(f"{x:>6}  " for x in lines) + name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
