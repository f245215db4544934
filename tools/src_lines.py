"""Count the lines of the modecast package, module by module.

    python tools/src_lines.py [PACKAGE_DIR] [--against REV]

For each module of ``PACKAGE_DIR`` (default ``src/modecast``) and in total,
prints three counts:

- ``lines``: every line of the file, as ``wc -l`` counts them;
- ``code``: the lines that an AST node spans, less blank lines, lines
  holding only a comment, and docstring lines;
- ``docstring``: the lines of the module, class and function docstrings.

So a cut in docstrings or comments shows in ``lines`` but not in ``code``.
With ``--against REV``, the same counts of the package at the git revision
REV (read with ``git show``) are printed beside the tree's, so a change
reports before and after in one table. A revision that git cannot read,
or a package directory with no modules, is one line on stderr and exit
status 1. Standard library and git only.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        message = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[0]
        sys.exit(f"src_lines.py: git {args[0]} {args[-1]}: {message}")
    return done.stdout


def _rows(sources: dict) -> dict:
    """Module name -> counts, plus the total, for ``{name: source}``."""
    rows = {name: count(source) for name, source in sorted(sources.items())}
    rows["total"] = tuple(sum(column) for column in zip(*rows.values())) or (0, 0, 0)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=ROOT / "src" / "modecast", type=Path,
                        help="package directory (default: src/modecast)")
    parser.add_argument("--against", metavar="REV",
                        help="also print the counts of the package at git revision REV")
    args = parser.parse_args(argv)
    modules = {path.name: path.read_text(encoding="utf-8") for path in args.package.glob("*.py")}
    if not modules:
        sys.exit(f"src_lines.py: no modules (*.py) in {args.package}")
    columns = [("tree", _rows(modules))]
    if args.against:
        if not args.package.resolve().is_relative_to(ROOT):
            sys.exit(f"src_lines.py: --against needs a package inside {ROOT}")
        where = args.package.resolve().relative_to(ROOT).as_posix()
        names = _git("ls-tree", "--name-only", f"{args.against}:{where}").split()
        columns.insert(0, (args.against, _rows({
            name: _git("show", f"{args.against}:{where}/{name}")
            for name in names if name.endswith(".py")})))
    names = sorted({name for _, rows in columns for name in rows} - {"total"}) + ["total"]
    if args.against:
        print(f"{'':<20}" + "".join(f"{label:>25}" for label, _ in columns))
    print(f"{'module':<20}" + f"{'lines':>7}{'code':>7}{'docstring':>11}" * len(columns))
    for name in names:
        cells = [rows.get(name, ("-",) * 3) for _, rows in columns]
        print(f"{name:<20}" + "".join(f"{a:>7}{b:>7}{c:>11}" for a, b, c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
