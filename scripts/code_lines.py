"""Count the code lines of each Python file in a directory, and their total.

A code line holds part of a token other than a comment or layout; lines
inside a module, class or function docstring do not count.  So blank lines,
comments and docstrings are dropped, and a statement over several lines
counts each of them.

Usage: python3 scripts/code_lines.py DIR
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(src: str) -> int:
    docs, code = set(), set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip())
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
