"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import modecast  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    result, record = bench.run(name, seed=3, seconds=0.0, trace=trace, tiny=True, probes=1)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == (3 if trace else 2)  # op 0 (+ traced) + replay
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def _bindings() -> dict:
    owners = [modecast] + [importlib.import_module(f"modecast.{layer}")
                           for layer in tracing.LAYERS]
    owners += [modecast.ForecastSession, modecast.TimeSeries]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_wrappers_cover_every_binding_and_are_removed():
    before = _bindings()
    with tracing.Tracer().installed(op=0):
        during = _bindings()
    after = _bindings()
    replaced = {key for key in before if during[key] is not before[key]}
    for key in [("modecast.pipeline", "train"), ("modecast.evaluation", "run_framework"),
                ("modecast.cli", "eemd"), ("modecast.decomposition", "emd"),
                ("modecast.grouping", "dtw_distance"), ("modecast", "run_framework"),
                ("ForecastSession", "step"), ("TimeSeries", "__post_init__")]:
        assert key in replaced, key
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_layer_metrics_without_calls_are_zero():
    metrics = tracing.Tracer().layer_metrics(1)
    assert metrics and all(v == 0.0 for v in metrics.values())


def test_layer_metrics_are_per_op_and_ratios_of_totals():
    tracer = tracing.Tracer()
    for op in (0, 1):  # one BPNN training of 10 pairs x 100 epochs per op, 1 s each
        tracer.spans.append(["predictors.train", 5.0 * op, 5.0 * op + 1.0, -1, op,
                             ["BPNN", 10, 100], None])
    metrics = tracer.layer_metrics(2, time_scale=0.5)
    assert metrics["predictors.train.calls"] == 1.0
    assert metrics["predictors.train.BPNN.busy_s"] == 0.5
    assert metrics["predictors.pair_epochs"] == 1000.0
    assert metrics["predictors.train.BPNN.ns_per_pair_epoch"] == 0.5e9 / 1000


def test_workload_seed_moves_only_generated_inputs(tmp_path):
    digests = {}
    for seed in (1, 2):
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(ROOT, seed, tmp_path / f"{name}-{seed}")
            workload.setup()
            digests[name, seed] = workload.input_digest()
    for name in ("golden", "vtf_enn"):
        assert digests[name, 1] == digests[name, 2], name
    for name in ("long_dtw", "eemd_decompose"):
        assert digests[name, 1] != digests[name, 2], name


def test_golden_mean_re_matches_cli_benchmark(tmp_path):
    runs = 2
    golden = workloads.Golden(ROOT, 1, tmp_path / "work")
    golden.setup()
    accuracy = workloads.accuracy([golden.op(i) for i in range(runs)])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "modecast.cli", "--out", str(tmp_path / "cli"),
                    "benchmark", "configs/benchmark_synthetic.json", "--runs", str(runs)],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    doc = json.loads((tmp_path / "cli" / "benchmark_runs.json").read_text())
    assert len(doc["reports"]) == 4
    for report in doc["reports"]:
        variant = golden.variant_of[report["label"]]
        assert accuracy[f"mean_re.{variant}"] == report["re_mean_over_runs"], variant


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "golden",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
