"""Count code lines per module of a Python package.

A code line holds a token other than a comment, a newline, an indent or a
dedent, and lies outside every module, class and function docstring.
Blank lines, comment lines and docstrings therefore do not count.

Usage: python tools/code_lines.py PATH

PATH is a directory, searched recursively for ``*.py`` files, or one file.
Prints one line per module, largest first, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: code_lines.py PATH", file=sys.stderr)
        return 2
    root = Path(argv[1])
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    counts = {path: code_lines(path) for path in files}
    for path, count in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{count:6d}  {path.relative_to(root) if root.is_dir() else path}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
