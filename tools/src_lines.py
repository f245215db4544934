"""Count the lines of the modecast package, module by module.

    python tools/src_lines.py [PACKAGE_DIR]

For each module of ``PACKAGE_DIR`` (default ``src/modecast``) and in total,
prints three counts:

- ``lines``: every line of the file, as ``wc -l`` counts them;
- ``code``: the lines that an AST node spans, less blank lines, lines
  holding only a comment, and docstring lines;
- ``docstring``: the lines of the module, class and function docstrings.

So a cut in docstrings or comments shows in ``lines`` but not in ``code``.
Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple:
    """(lines, code lines, docstring lines) of one module's source."""
    lines = source.splitlines()
    tree = ast.parse(source)
    spanned, docstrings = set(), set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = [n for n in spanned - docstrings
            if lines[n - 1].strip() and not lines[n - 1].lstrip().startswith("#")]
    return len(lines), len(code), len(docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "modecast"
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(r[1:] for r in rows)))))
    print(f"{'module':<20}{'lines':>7}{'code':>7}{'docstring':>11}")
    for name, lines, code, docstring in rows:
        print(f"{name:<20}{lines:>7}{code:>7}{docstring:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
