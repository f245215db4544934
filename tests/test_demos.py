"""Smoke test of the demos: each runs as a script with numeric warnings as
errors, exits 0 and writes nothing to stderr.

Demo 05 is left out: it is the golden benchmark experiment, about 25 s on
its own, and ``test_c09`` already runs that configuration.
"""

import os
import subprocess
import sys

import pytest

from conftest import REPO

DEMOS = sorted(p.name for p in (REPO / "demos").glob("0[1-4]_*.py"))


def test_demo_set_is_complete():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(REPO / "demos" / name)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
