"""``tools/src_lines.py``: what each of its three counts takes in, and its
failures, each one stderr line and exit status 1."""

import runpy
import subprocess
import sys

from conftest import REPO

TOOL = REPO / "tools" / "src_lines.py"

# 20 lines: docstrings on lines 1-2, 10 and 17-18; code on lines 6, 9, 12,
# 13, 16 and 20; the rest blank or comment only
SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line

import os  # a trailing comment


def f(x):
    """One-line docstring."""
    # a comment inside a function
    return (x +
            1)


class C:
    """Class
    docstring."""

    y = 2
'''


def _tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=REPO,
                          capture_output=True, text=True)


def test_count_splits_lines_into_code_and_docstrings():
    count = runpy.run_path(str(TOOL))["count"]
    assert count(SOURCE) == (20, 6, 5)


def test_package_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    done = _tool(str(tmp_path))
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[1:] == [["a.py", "20", "6", "5"], ["b.py", "3", "1", "0"],
                        ["total", "23", "7", "5"]]


def test_unknown_revision_is_one_line_and_exit_one():
    done = _tool("--against", "nosuchrev")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("src_lines.py: git ls-tree nosuchrev:src/modecast: ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


def test_directory_without_modules_is_one_line_and_exit_one(tmp_path):
    (tmp_path / "notes.txt").write_text("no modules here\n")
    done = _tool(str(tmp_path))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"src_lines.py: no modules (*.py) in {tmp_path}\n"


def test_against_with_a_package_outside_the_repository_is_one_line(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    done = _tool(str(tmp_path), "--against", "HEAD")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"src_lines.py: --against needs a package inside {REPO}\n"
