"""Count code lines per module of ``src/cyclestat``.

A code line is a physical line that holds a token other than a comment,
outside the module, class and function docstrings: blank lines, comment
lines and docstrings do not count, and a token that spans lines (a
multi-line string or bracket) counts every line it covers.

    python3 tests/size.py [DIRECTORY]

prints one line per module, sorted by name, then the total. DIRECTORY
defaults to ``src/cyclestat``. Needs only the standard library; pytest
does not collect this file.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyclestat"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    counts = {path.stem: code_lines(path) for path in sorted(directory.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
