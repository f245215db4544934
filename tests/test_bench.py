"""``tools/bench.py``: one workload, run for a second, written as
``BENCH_<pr>.json`` with its result, metrics and run record."""

import json
import subprocess
import sys

from conftest import REPO


def test_one_workload_writes_its_result_metrics_and_record(tmp_path):
    done = subprocess.run([sys.executable, str(REPO / "tools" / "bench.py"), "7",
                           "--workload", "long_dtw", "--seconds", "1", "--out", str(tmp_path)],
                          cwd=REPO, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    written = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert (written["pr"], written["seed"], written["seconds"]) == (7, 1, 1.0)
    assert list(written["workloads"]) == ["long_dtw"]
    result = written["workloads"]["long_dtw"]
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["record"]["workload"] == "long_dtw" and result["record"]["ops"] >= 1
    assert done.stdout.startswith("long_dtw: correct=True setup_s ")
