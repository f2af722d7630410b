#!/usr/bin/env python3
"""Print the code lines of Python files, one line per file and a total.

A code line holds a token of code: blank lines, comment lines and the lines
of module, class and function docstrings do not count, and a statement or
string spanning several lines counts each of them.  With no arguments the
script counts ``src/trideco/*.py`` and ``scripts/*.py``, each group with its
own total; given paths, it counts those files.

    python3 scripts/code_lines.py [FILE ...]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_GROUPS = ("src/trideco/*.py", "scripts/*.py")

#: token types that carry no code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _report(paths) -> int:
    total = 0
    for path in paths:
        count = code_lines(Path(path).read_text(encoding="utf-8"))
        total += count
        print(f"{count:>6}  {path}")
    return total


def main(argv: list[str]) -> int:
    if argv:
        print(f"{_report(argv):>6}  total")
        return 0
    for pattern in DEFAULT_GROUPS:
        folder, _, glob = pattern.rpartition("/")
        paths = sorted(str(path.relative_to(ROOT)) for path in (ROOT / folder).glob(glob))
        print(f"{_report(paths):>6}  total {pattern}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
