"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the benchmark-ordering criterion uses the committed golden config
(configs/benchmark_synthetic.json) and its fixed seed list.
"""

import json
import time

import numpy as np
import pytest

from modecast.cli import main
from modecast.core import TimeSeries, load_csv
from modecast.decomposition import (
    EemdConfig,
    count_zero_crossings,
    emd,
    find_extrema,
)
from modecast.dtw import dtw_distance, euclidean_distance
from modecast.evaluation import evaluate_run
from modecast.grouping import GroupingConfig, TrainingSet
from modecast.pipeline import FrameworkSpec, run_framework
from modecast.predictors import PredictorConfig, gradient_check, predict, train

from conftest import REPO, random_smooth_series
from test_dtw import brute_force_dtw


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def random_decompositions():
    """100 random smooth series decomposed once, timed."""
    rng = np.random.default_rng(314159)
    cases = []
    started = time.perf_counter()
    for _ in range(100):
        x = random_smooth_series(rng, int(rng.integers(64, 513)))
        decomp = emd(TimeSeries(x))
        cases.append((x, decomp, decomp.sift_stats))
    elapsed = time.perf_counter() - started
    return cases, elapsed


def test_c01_emd_completeness(random_decompositions):
    cases, elapsed = random_decompositions
    worst = 0.0
    for x, decomp, _ in cases:
        err = np.max(np.abs(decomp.reconstruct() - x)) / np.max(np.abs(x))
        worst = max(worst, err)
    report(1, worst < 1e-9 and elapsed < 10.0,
           f"completeness worst rel err {worst:.2e} over 100 series in {elapsed:.1f}s")


def test_c02_imf_admissibility(random_decompositions):
    cases, _ = random_decompositions
    checked = 0
    worst_gap = 0
    for _, decomp, stats in cases:
        for imf, stat in zip(decomp.imfs, stats):
            if not stat.converged:
                continue
            maxima, minima = find_extrema(imf.values)
            gap = abs(maxima.size + minima.size - count_zero_crossings(imf.values))
            worst_gap = max(worst_gap, gap)
            checked += 1
    report(2, worst_gap <= 1,
           f"|#extrema - #zero_crossings| <= 1 on {checked} converged IMFs "
           f"(worst gap {worst_gap})")


def test_c03_two_tone_separation():
    t = np.arange(512)
    fast = np.sin(2 * np.pi * 8 * t / 512)
    decomp = emd(TimeSeries(fast + np.sin(2 * np.pi * t / 512)))
    corr = np.corrcoef(decomp.imfs[0].values, fast)[0, 1] if decomp.n_imfs else 0.0
    report(3, decomp.n_imfs >= 2 and corr > 0.95,
           f"{decomp.n_imfs} IMFs, IMF1-to-fast-tone correlation {corr:.4f}")


def test_c04_dtw_oracle():
    rng = np.random.default_rng(271828)
    mismatches = 0
    for _ in range(1000):
        y = rng.integers(-2, 3, int(rng.integers(1, 7))).astype(float)
        z = rng.integers(-2, 3, int(rng.integers(1, 7))).astype(float)
        dist, _ = dtw_distance(y, z)
        if abs(dist - brute_force_dtw(y, z)) > 1e-12:
            mismatches += 1
    props_ok = True
    for _ in range(1000):
        k = int(rng.integers(2, 10))
        y, z = rng.normal(size=k), rng.normal(size=k)
        d_yz, _ = dtw_distance(y, z)
        d_zy, _ = dtw_distance(z, y)
        d_self, _ = dtw_distance(y, y)
        props_ok &= d_self == 0.0
        props_ok &= abs(d_yz - d_zy) < 1e-9
        props_ok &= d_yz <= euclidean_distance(y, z) + 1e-12
    report(4, mismatches == 0 and props_ok,
           f"exhaustive-path oracle matched on 1000 pairs ({mismatches} mismatches); "
           f"identity/symmetry/dominance on 1000 random pairs")


def test_c05_shift_advantage():
    y = [0.0, 0.0, 1.0, 0.0, 0.0]
    z = [0.0, 1.0, 0.0, 0.0, 0.0]
    dtw, _ = dtw_distance(y, z)
    euclid = euclidean_distance(y, z)
    report(5, dtw < euclid, f"unit-shifted pulse: DTW {dtw:g} < Euclidean {euclid:g}")


def test_c06_gradient_checks():
    rng = np.random.default_rng(66)
    worst = 0.0
    for kind in ("BPNN", "WNN", "ENN"):
        for seed in range(20):
            inputs = rng.normal(size=(4, 3))
            training = TrainingSet(
                inputs=inputs,
                targets=rng.normal(size=4),
                offsets=np.arange(1, 5),
            )
            err = gradient_check(
                PredictorConfig(kind=kind, hidden_units=3, seed=seed), training
            )
            worst = max(worst, err)
    report(6, worst < 1e-4,
           f"BPNN/WNN/ENN analytic vs central differences over 20 seeds each, "
           f"worst relative error {worst:.2e}")


def test_c07_grnn_interpolation():
    rng = np.random.default_rng(77)
    interp_ok = True
    convex_ok = True
    for _ in range(20):
        inputs = rng.normal(size=(6, 3))
        targets = rng.normal(size=6)
        training = TrainingSet(
            inputs=inputs, targets=targets,
            offsets=np.arange(1, 7),
        )
        model = train(training, PredictorConfig(kind="GRNN", grnn_sigma=1e-3))
        for x, y in zip(inputs, targets):
            interp_ok &= abs(predict(model, x) - y) < 1e-6
        for _ in range(5):
            value = predict(model, rng.normal(size=3))
            convex_ok &= targets.min() - 1e-12 <= value <= targets.max() + 1e-12
    report(7, interp_ok and convex_ok,
           "GRNN sigma=1e-3 interpolates training inputs within 1e-6; output "
           "stays within [min, max] of targets")


def _payload_bytes(result):
    return json.dumps({
        "combined": result.combined.tolist(),
        "components": {name: v.tolist() for name, v in result.per_component},
        "split": result.metadata["split"],
    }).encode()


def test_c08_degenerate_chain_equivalence():
    t = np.arange(96)
    series = TimeSeries(0.05 * t + np.sin(2 * np.pi * t / 6) + 2 * np.sin(2 * np.pi * t / 24))
    common = dict(
        predictor=PredictorConfig(kind="BPNN", epochs=60, seed=13),
        grouping=GroupingConfig(segment_length=8, group_size=10),
        horizon=4,
    )
    plain = run_framework(series, FrameworkSpec(variant="EMD_DTW_NN", **common))
    degenerate = run_framework(
        series,
        FrameworkSpec(
            variant="EEMD_DTW_NN",
            eemd=EemdConfig(ensemble_size=1, noise_amplitude=0.0, seed=13),
            **common,
        ),
    )
    same = _payload_bytes(plain) == _payload_bytes(degenerate)
    report(8, same, "EEMD+DTW+NN with noise 0 / ensemble 1 serializes "
                    "byte-identically to EMD+DTW+NN under fixed seeds")


def test_c09_framework_ordering_golden_config(golden_benchmark):
    out, elapsed = golden_benchmark
    runs = json.loads((out / "benchmark_runs.json").read_text(encoding="utf-8"))
    means = {r["label"]: r["re_mean_over_runs"] for r in runs["reports"]}
    ok = (
        means["EMD+DTW+BPNN"] <= means["BPNN"]
        and means["EEMD+DTW+BPNN"] <= means["EMD+BPNN"]
        and elapsed < 300.0
    )
    table = ", ".join(f"{label}={re:.4f}" for label, re in means.items())
    report(9, ok, f"over {runs['runs']} runs: {table} ({elapsed:.0f}s)")


def test_c10_table_fixture_arithmetic(data_dir):
    actuals = load_csv(data_dir / "vtf_table1_actuals.csv", column=2, has_header=True)
    published_mean_row = [33.25, 36.43, 35.07, 39.22, 46.12, 38.70, 37.11, 33.28]
    result = evaluate_run(actuals, published_mean_row)
    ok = 0.015 <= result.mean_re <= 0.025
    report(10, ok, f"holdout-table fixture mean RE {result.mean_re:.4f} in [0.015, 0.025]")


def test_c11_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    t = np.arange(512)
    two_tone = tmp_path / "two_tone.csv"
    two_tone.write_text(
        "\n".join(repr(float(v)) for v in
                  np.sin(2 * np.pi * 8 * t / 512) + np.sin(2 * np.pi * t / 512)) + "\n"
    )
    short = tmp_path / "short.csv"
    short.write_text("1.0\n2.0\n3.0\n")

    bench_cfg = {
        "schema_version": 1,
        "dataset": {"path": str(two_tone)},
        "holdout": 504,
        "runs": 2,
        "seeds": [5, 6],
        "frameworks": [
            {"variant": "NN", "predictor": {"epochs": 30, "seed": 0},
             "grouping": {"segment_length": 6}},
            {"variant": "EMD_NN", "predictor": {"epochs": 30, "seed": 0},
             "grouping": {"segment_length": 6}},
        ],
    }
    bench_path = tmp_path / "bench.json"
    bench_path.write_text(json.dumps(bench_cfg))

    commands = {
        "decompose": lambda out, threads: [
            "--threads", threads, "--seed", "3", "--out", out, "decompose",
            str(two_tone), "--method", "eemd", "--ensemble", "6"],
        "dtw": lambda out, threads: ["dtw", str(short), str(short), "--path"],
        "predict": lambda out, threads: [
            "--threads", threads, "--out", out, "predict",
            "configs/predict_vtf.json", "--horizon", "2"],
        "benchmark": lambda out, threads: [
            "--threads", threads, "--out", out, "benchmark", str(bench_path)],
        "gradcheck": lambda out, threads: ["gradcheck", "--trials", "2"],
    }

    all_ok = True
    for name, argv in commands.items():
        outputs = []
        for run, threads in (("a", "1"), ("b", "2")):
            out = tmp_path / name / run
            code = main(argv(str(out), threads))
            assert code == 0, f"{name} exited {code}"
            # drop console lines that echo the (per-run) output location
            stdout = "\n".join(
                line for line in capsys.readouterr().out.splitlines()
                if str(out) not in line
            )
            files = {
                p.name: p.read_bytes() for p in sorted(out.glob("*"))
            } if out.exists() else {}
            outputs.append((stdout, files))
        all_ok &= outputs[0] == outputs[1]
    report(11, all_ok, "decompose/dtw/predict/benchmark/gradcheck rerun "
                       "byte-identically, including --threads 2")
