"""Count the source lines of albertkit: total lines and code lines, per module and for the package.

A code line holds at least one token that is not a comment, not part of a
string statement (a docstring, or any other bare string expression) and
not whitespace. A multi-line token that is code counts every line it spans.
Stdlib only:

    python tools/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/albertkit next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def count(text: str) -> tuple:
    """(total lines, code lines) of one module's source text."""
    strings = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT and not any(start <= tok.start < end for start, end in strings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main(argv: list) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "albertkit"
    total = code = 0
    print("%-20s %6s %6s" % ("module", "lines", "code"))
    for path in sorted(package.glob("*.py")):
        lines, loc = count(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + loc
        print("%-20s %6d %6d" % (path.name, lines, loc))
    print("%-20s %6d %6d" % (package.name, total, code))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
