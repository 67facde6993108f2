"""Code-line counter: the repo's size metric (``python -m repro.devtools loc``).

A *code line* carries at least one token that is not a comment and is
not part of a docstring — so blank lines, comment-only lines and
documentation never count, and a PR cannot shrink the number by deleting
them.  ROADMAP's "net-negative ``src/`` code lines" is this count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Sequence

__all__ = ["code_lines", "count_tree", "main"]

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` carrying a token, minus docstring lines."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, (doc.end_lineno or 0) + 1))
    return len(lines)


def count_tree(root: Path) -> dict[str, int]:
    """Code lines of every ``*.py`` under ``root``, per top-level package
    (the first directory below ``root``; ``.`` for files directly in it)."""
    counts: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0] if len(parts) > 1 else "."
        counts[package] = counts.get(package, 0) + code_lines(path.read_text())
    return counts


def main(argv: Sequence[str] | None = None) -> int:
    """Print the per-package table and total for each PATH (default ``src/repro``)."""
    for arg in list(sys.argv[1:] if argv is None else argv) or ["src/repro"]:
        root = Path(arg)
        if not root.is_dir():
            print(f"error: not a directory: {root}", file=sys.stderr)
            return 2
        counts = count_tree(root)
        print(f"{root}:")
        for package, count in sorted(counts.items()):
            print(f"  {count:6d}  {package}")
        print(f"  {sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":  # the job runs only through the package CLI
    raise SystemExit("run this job as: python -m repro.devtools loc")
