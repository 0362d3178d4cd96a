"""Count the code lines of Python files.

    python3 tools/code_lines.py src/cnotroute/*.py

A code line holds at least one token other than a comment; blank and
comment-only lines do not count, and neither do the lines of module,
class and function docstrings.  Prints one line per file and the total
last, so line counts quoted for the package can be reproduced.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
