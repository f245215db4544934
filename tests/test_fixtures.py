"""The committed data fixtures are what ``tools/make_fixtures.py`` writes: the
generator runs on a copy of itself under a temporary root, and its four CSV
files must equal ``data/*.csv`` byte for byte."""

import shutil
import subprocess
import sys

from conftest import DATA, REPO


def test_make_fixtures_reproduces_data(tmp_path):
    (tmp_path / "tools").mkdir()
    shutil.copy(REPO / "tools" / "make_fixtures.py", tmp_path / "tools")
    proc = subprocess.run([sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in DATA.glob("*.csv"))
    assert len(committed) == 4
    assert sorted(p.name for p in (tmp_path / "data").glob("*.csv")) == committed
    for name in committed:
        assert (tmp_path / "data" / name).read_bytes() == (DATA / name).read_bytes(), name
