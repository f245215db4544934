import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modecast.cli import main
from modecast.core import load_csv
from modecast.decomposition import emd

from conftest import REPO


def write_series(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


@pytest.fixture
def two_tone_csv(tmp_path):
    t = np.arange(512)
    x = np.sin(2 * np.pi * 8 * t / 512) + np.sin(2 * np.pi * t / 512)
    path = tmp_path / "two_tone.csv"
    write_series(path, x)
    return path


class TestDecompose:
    def test_two_tone_reports_imf_count(self, two_tone_csv, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "out"), "decompose", str(two_tone_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 IMFs" in out
        header = (tmp_path / "out" / "components.csv").read_text().splitlines()[0]
        assert header == "imf_1,imf_2,residual"
        stats = json.loads((tmp_path / "out" / "decompose_stats.json").read_text())
        assert stats["n_imfs"] == 2
        assert len(stats["sift_stats"]) == 2

    def test_monotone_reports_residual_only(self, tmp_path, capsys):
        path = tmp_path / "ramp.csv"
        write_series(path, np.arange(1.0, 21.0))
        code = main(["--out", str(tmp_path / "out"), "decompose", str(path)])
        assert code == 0
        assert "0 IMFs, residual only" in capsys.readouterr().out

    def test_eemd_degenerate_matches_emd_bytes(self, two_tone_csv, tmp_path):
        main(["--out", str(tmp_path / "a"), "decompose", str(two_tone_csv),
              "--method", "emd"])
        main(["--out", str(tmp_path / "b"), "decompose", str(two_tone_csv),
              "--method", "eemd", "--noise", "0", "--ensemble", "1"])
        a = (tmp_path / "a" / "components.csv").read_bytes()
        b = (tmp_path / "b" / "components.csv").read_bytes()
        assert a == b

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_components_csv_reads_back_bit_exact(self, scale, tmp_path):
        path = tmp_path / "series.csv"
        write_series(path, np.random.default_rng(5).normal(size=96) * scale)
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", str(path)]) == 0
        decomp = emd(load_csv(path))
        names = [f"imf_{i + 1}" for i in range(decomp.n_imfs)] + ["residual"]
        assert decomp.n_imfs >= 2
        for name, comp in zip(names, decomp.components()):
            back = load_csv(out / "components.csv", column=name, has_header=True)
            assert back.values.tobytes() == comp.values.tobytes(), name

    # argparse alone would read "-1e-4" and "-inf" as option names
    @pytest.mark.parametrize("value", ["-1e-4", "-inf", "-2E+3", "-nan"])
    @pytest.mark.parametrize("flags, message", [
        (["--sd-threshold"], "sd_threshold must be positive and finite"),
        (["--method", "eemd", "--noise"], "noise_amplitude must be finite and >= 0"),
    ], ids=["sd-threshold", "noise"])
    def test_negative_float_after_a_space_is_named(self, flags, message, value,
                                                    two_tone_csv, tmp_path):
        code, err, _ = _run(["--out", str(tmp_path / "out"), "decompose", str(two_tone_csv),
                             *flags, value])
        assert (code, err) == (1, f"config error: {message}, got {float(value)}\n")

    @pytest.mark.parametrize("method", ["emd", "eemd"])
    def test_huge_magnitudes_decompose_cleanly(self, method, tmp_path, capsys):
        # squares of 1e300 overflow; the sift ratio and the EEMD noise
        # amplitude must not
        path = tmp_path / "huge.csv"
        write_series(path, np.random.default_rng(0).normal(size=64) * 1e300)
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", str(path), "--method", method]) == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        stats = json.loads((out / "decompose_stats.json").read_text(), parse_constant=reject)
        if method == "emd":
            assert all(s["converged"] for s in stats["sift_stats"])

    @pytest.mark.parametrize("method", ["emd", "eemd"])
    def test_near_float_max_decomposes_cleanly(self, method, tmp_path, capsys):
        # the envelope spline of raw samples overflows above about 5e307
        x = np.random.default_rng(0).normal(size=64)
        path = tmp_path / "near_max.csv"
        write_series(path, x / np.max(np.abs(x)) * 1.5e308)
        out = tmp_path / "out"
        assert main(["--out", str(out), "decompose", str(path), "--method", method]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "components.csv").read_text().splitlines()[1:]
        assert np.isfinite(np.array([r.split(",") for r in rows], dtype=float)).all()


    @pytest.mark.parametrize("method", ["emd", "eemd"])
    def test_component_past_float_range_is_named_data_error(self, method, tmp_path, capsys):
        path = tmp_path / "past_max.csv"
        write_series(path, np.random.default_rng(0).uniform(-1, 1, 26) * 1.79e308)
        assert main(["--out", str(tmp_path / "out"), "decompose", str(path),
                     "--method", method]) == 2
        assert capsys.readouterr().err == (
            "data error: imf_1: scaling the component back to the series' magnitude "
            "passes the float range\n")


class TestDtw:
    def test_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, [1.0, 2.0, 3.0])
        assert main(["dtw", str(a), str(a)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0"

    def test_known_distance(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series(a, [1.0, 2.0, 3.0])
        write_series(b, [1.0, 3.0])
        assert main(["dtw", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1"

    def test_cost_beyond_float_range_is_inf(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_series(a, [0.0, 1.0, 2.0])
        write_series(b, [1e308, -1e308])
        assert main(["dtw", str(a), str(b)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["inf"] and captured.err == ""

    def test_path_on_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, [4.0, 5.0, 6.0])
        assert main(["dtw", str(a), str(a), "--path"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0", "(1,1)", "(2,2)", "(3,3)"]

    # argparse alone would read "-1e-4" and "-inf" as option names
    @pytest.mark.parametrize("weight", ["nan", "inf", "0", "-inf", "-1e-4", "-1.5E2"])
    def test_weight_not_positive_and_finite_is_config_error(self, weight, tmp_path):
        a = tmp_path / "a.csv"
        write_series(a, [4.0, 5.0, 6.0])
        code, err, caught = _run(["dtw", str(a), str(a), "--weight", weight])
        assert (code, caught) == (1, [])
        assert err == (f"config error: weight must be positive and finite, "
                       f"got {float(weight)}\n")


class TestPredict:
    def test_annual_horizon_ten(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        code = main(["--out", str(out), "predict", "configs/predict_annual.json",
                     "--horizon", "10"])
        assert code == 0
        rows = (out / "forecast.csv").read_text().splitlines()
        assert len(rows) == 10
        doc = json.loads((out / "forecast.json").read_text())
        assert len(doc["combined"]) == 10
        assert "elapsed_seconds" not in doc["metadata"]

    def test_vtf_horizon_eight(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        code = main(["--out", str(out), "predict", "configs/predict_vtf.json",
                     "--horizon", "8"])
        assert code == 0
        assert len((out / "forecast.csv").read_text().splitlines()) == 8

    def test_invalid_split_names_constraint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        cfg = json.loads((REPO / "configs" / "predict_annual.json").read_text())
        cfg["framework"]["split"] = [4, 4]
        path = tmp_path / "bad_split.json"
        path.write_text(json.dumps(cfg))
        code = main(["--out", str(tmp_path / "out"), "predict", str(path)])
        assert code == 1
        assert "P+Q=N+1" in capsys.readouterr().err

    def test_dump_groups(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        code = main(["--out", str(out), "predict", "configs/predict_annual.json",
                     "--horizon", "3", "--dump-groups"])
        assert code == 0
        groups = json.loads((out / "groups.json").read_text())
        assert groups  # one entry per fast component
        for steps in groups.values():
            assert len(steps) == 3
            assert {"offset", "distance"} <= set(steps[0]["candidates"][0])

    def test_rerun_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)
        args = ["predict", "configs/predict_annual.json", "--horizon", "4"]
        main(["--out", str(tmp_path / "a")] + args)
        main(["--out", str(tmp_path / "b")] + args)
        for name in ("forecast.json", "forecast.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_forecast_beyond_float_range_is_numeric_failure(self, tmp_path):
        # the components' forecasts denormalize past -1.8e308
        data = tmp_path / "huge.csv"
        write_series(data, [0.0] * 11 + [-1.7230281982522544e308])
        cfg = _tiny_configs(tmp_path)["predict"]
        cfg["dataset"] = {"path": str(data)}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, caught = _run(["--out", str(tmp_path / "out"), "predict", str(config)])
        assert not caught and code == 3
        assert err.startswith("numeric failure: component ") and err.count("\n") == 1
        assert err.endswith("beyond the float range\n")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "surprise": 1}))
        assert main(["predict", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_line_breaks_in_a_config_key_are_escaped(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "a\rb": 1, "c\nd": 2}))
        code, err, _ = _run(["predict", str(path)])
        assert code == 1
        assert err.startswith("config error: unknown key") and "\r" not in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "a\\rb" in err and "c\\nd" in err

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        assert main(["predict", str(path)]) == 1

    def test_config_with_byte_order_mark_reads_as_without(self, tmp_path):
        cfg = json.dumps(_tiny_configs(tmp_path)["predict"])
        (tmp_path / "plain.json").write_text(cfg, encoding="utf-8")
        (tmp_path / "bom.json").write_text(cfg, encoding="utf-8-sig")
        for name in ("plain", "bom"):
            code, err, _ = _run(["--out", str(tmp_path / name), "predict",
                                 str(tmp_path / f"{name}.json")])
            assert (code, err) == (0, "")
        for name in ("forecast.json", "forecast.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "bom" / name).read_bytes()


def small_benchmark_config(tmp_path, data_csv):
    predictor = {"kind": "BPNN", "epochs": 40, "seed": 0}
    grouping = {"segment_length": 6, "group_size": 8}
    return {
        "schema_version": 1,
        "dataset": {"path": str(data_csv), "column": 1, "has_header": False},
        "holdout": 56,
        "runs": 2,
        "seeds": [21, 22],
        "frameworks": [
            {"variant": "NN", "predictor": predictor, "grouping": grouping},
            {"variant": "EMD_NN", "predictor": predictor, "grouping": grouping},
            {"variant": "EMD_DTW_NN", "predictor": predictor, "grouping": grouping},
        ],
        "output_dir": str(tmp_path / "default_out"),
    }


class TestBenchmark:
    @pytest.fixture
    def bench_config(self, tmp_path):
        t = np.arange(64)
        x = 5 + 0.1 * t + 2 * np.sin(2 * np.pi * t / 12) + np.sin(2 * np.pi * t / 5)
        data = tmp_path / "series.csv"
        write_series(data, x)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(small_benchmark_config(tmp_path, data)))
        return path

    def test_summary_and_row_count(self, bench_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "benchmark", str(bench_config)]) == 0
        printed = capsys.readouterr().out
        assert "BPNN" in printed and "EMD+BPNN" in printed
        rows = (out / "benchmark.csv").read_text().splitlines()
        assert len(rows) == 1 + 3  # header + one row per framework
        doc = json.loads((out / "benchmark_runs.json").read_text())
        assert doc["runs"] == 2
        assert [r["label"] for r in doc["reports"]] == ["BPNN", "EMD+BPNN", "EMD+DTW+BPNN"]

    def test_rerun_byte_identical(self, bench_config, tmp_path):
        main(["--out", str(tmp_path / "a"), "benchmark", str(bench_config)])
        main(["--out", str(tmp_path / "b"), "benchmark", str(bench_config)])
        for name in ("benchmark.csv", "benchmark_runs.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_runs_flag_limits_seed_use(self, bench_config, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "benchmark", str(bench_config),
                     "--runs", "1"]) == 0
        doc = json.loads((tmp_path / "o" / "benchmark_runs.json").read_text())
        assert doc["runs"] == 1 and doc["seeds"] == [21]

    def test_needs_two_frameworks(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "dataset": {"path": "x.csv"},
            "holdout": 10,
            "seeds": [1],
            "frameworks": [{"variant": "NN"}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        assert main(["benchmark", str(path)]) == 1

    @pytest.mark.parametrize("runs", [0, -1])
    def test_config_runs_below_one_is_named(self, runs, tmp_path):
        config = tmp_path / "runs.json"
        config.write_text(json.dumps({**_tiny_configs(tmp_path)["benchmark"], "runs": runs}))
        code, err, _ = _run(["--out", str(tmp_path / "out"), "benchmark", str(config)])
        assert (code, err) == (1, f"config error: runs: expected integer >= 1, got {runs}\n")

    def test_labels_with_commas_quotes_and_newlines_read_back(self, tmp_path, capsys):
        labels = ['plain, "NN"', "EMD\nNN", "a\rb"]
        doc = _tiny_configs(tmp_path)["benchmark"]
        config = tmp_path / "labels.json"
        config.write_text(json.dumps({**doc, "frameworks": doc["frameworks"] + doc["frameworks"][1:],
                                      "labels": labels}))
        assert main(["--out", str(tmp_path / "out"), "benchmark", str(config)]) == 0
        with open(tmp_path / "out" / "benchmark.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == labels
        assert len({len(row) for row in rows}) == 1
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 1 + len(labels)
        assert any("EMD\\nNN" in line for line in table)  # one line per label
        assert any("a\\rb" in line for line in table)

    def test_golden_config_yields_four_row_summary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        code = main(["--out", str(out), "benchmark",
                     "configs/benchmark_synthetic.json", "--runs", "1"])
        assert code == 0
        rows = (out / "benchmark.csv").read_text().splitlines()
        assert len(rows) == 1 + 4
        summary = capsys.readouterr().out
        for label in ("BPNN", "EMD+BPNN", "EMD+DTW+BPNN", "EEMD+DTW+BPNN"):
            assert label in summary


class TestExitCodes:
    def test_too_short_series_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_series(path, [1.0, 2.0, 3.0])
        assert main(["--out", str(tmp_path / "out"), "decompose", str(path)]) == 2
        assert capsys.readouterr().err == "data error: decomposition needs length >= 4, got 3\n"

    def test_data_file_shorter_than_holdout_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        write_series(data, 5 + np.sin(np.arange(12.0)))
        cfg = dict(small_benchmark_config(tmp_path, data), holdout=12)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path / "out"), "benchmark", str(path)]) == 2
        assert capsys.readouterr().err == (
            "data error: holdout 12 leaves nothing to forecast in a series of 12 points\n")

    # a numpy warning leaking out of training would surface as the failure
    # message instead of being collected by pytest
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_failure_is_exit_three(self, tmp_path, capsys):
        data = tmp_path / "series.csv"
        t = np.arange(40)
        write_series(data, 5 + np.sin(2 * np.pi * t / 8) + 0.05 * t)
        cfg = {
            "schema_version": 1,
            "dataset": {"path": str(data)},
            "framework": {
                "variant": "NN",
                "predictor": {"kind": "BPNN", "learning_rate": 1e12,
                              "epochs": 300, "seed": 1},
                "grouping": {"segment_length": 6},
                "horizon": 2,
            },
        }
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        code = main(["--out", str(tmp_path / "out"), "predict", str(path)])
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: component 1 (series): BPNN training loss became "
            "non-finite at epoch 13 (learning_rate=1000000000000.0)\n"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("section, field", [
        ("grouping", "dtw_weight"), ("grouping", "threshold_alpha"),
        ("sift", "sd_threshold"), ("eemd", "noise_amplitude"),
        ("predictor", "learning_rate"), ("predictor", "grnn_sigma"),
    ])
    def test_non_finite_config_float_is_config_error(self, section, field, value,
                                                     tmp_path, capsys):
        cfg = json.loads((REPO / "configs" / "predict_vtf.json").read_text())
        cfg["dataset"]["path"] = str(REPO / cfg["dataset"]["path"])
        cfg["framework"].setdefault(section, {})[field] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(cfg))  # writes the NaN / Infinity literals
        code = main(["--out", str(tmp_path / "out"), "predict", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: ") and field in err
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("column", [0, -1])
    @pytest.mark.parametrize("command", ["decompose", "dtw", "predict"])
    def test_column_below_one_is_config_error(self, command, column, tmp_path, capsys):
        """A column number below 1 is a bad flag or config value, named as
        such, not a data error."""
        data = tmp_path / "series.csv"
        write_series(data, np.sin(np.arange(64.0)))
        if command == "predict":
            cfg = _tiny_configs(tmp_path)["predict"]
            cfg["dataset"]["column"] = column
            config = tmp_path / "predict.json"
            config.write_text(json.dumps(cfg))
            argv, name = ["predict", str(config)], "dataset.column"
        else:
            argv = [command, str(data)] + [str(data)] * (command == "dtw")
            argv, name = argv + [f"--column={column}"], "--column"
        assert main(["--out", str(tmp_path / "out"), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and f"got {column}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["predict", "benchmark"])
    def test_config_directory_is_config_error(self, command, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "out"), command, str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["predict", "decompose"])
    def test_out_below_a_regular_file_is_config_error(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        if command == "predict":
            given = tmp_path / "predict.json"
            given.write_text(json.dumps(_tiny_configs(tmp_path)["predict"]))
        else:
            given = tmp_path / "series.csv"
            write_series(given, np.sin(np.arange(64.0)))
        assert main(["--out", str(blocker / "sub"), command, str(given)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(blocker / "sub") in err
        assert err.count("\n") == 1


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def _run(argv) -> tuple:
    """(exit code, stderr, recorded warnings) of one in-process CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), caught


def _tiny_configs(root):
    """A small valid predict config (EEMD_DTW_NN, every section given) and a
    small valid benchmark config, over a 40-point CSV under ``root``."""
    t = np.arange(40)
    data = root / "series.csv"
    write_series(data, 5 + 0.05 * t + np.sin(2 * np.pi * t / 6) + np.sin(2 * np.pi * t / 17))
    framework = {
        "variant": "EEMD_DTW_NN",
        "predictor": {"kind": "BPNN", "hidden_units": 3, "learning_rate": 0.05,
                      "epochs": 3, "grnn_sigma": 0.1, "seed": 1},
        "sift": {"sd_threshold": 0.2, "max_sift_iterations": 20, "max_imfs": 4,
                 "boundary_mode": "mirror"},
        "eemd": {"ensemble_size": 2, "noise_amplitude": 0.1, "seed": 2},
        "split": "auto",
        "grouping": {"segment_length": 4, "group_size": 5, "dtw_weight": 1.0,
                     "znormalize": False, "selection": "topk", "threshold_alpha": 1.0},
        "horizon": 1,
    }
    dataset = {"path": str(data), "column": 1, "has_header": False}
    predict = {"schema_version": 1, "dataset": dataset, "framework": framework,
               "output_dir": "out", "seed": 3}
    nn = {"variant": "NN", "predictor": framework["predictor"], "grouping": {"segment_length": 4}}
    benchmark = {"schema_version": 1, "dataset": dataset, "frameworks": [nn, framework],
                 "labels": ["a", "b"], "holdout": 39, "runs": 1, "seeds": [5],
                 "output_dir": "out"}
    return {"predict": predict, "benchmark": benchmark}


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


MISTYPED = [
    ("benchmark", ("holdout",), None),
    ("benchmark", ("dataset",), [1]),
    ("benchmark", ("frameworks",), 5),
    ("benchmark", ("seeds",), [1.5]),
    ("predict", ("dataset", "column"), 1.5),
    ("predict", ("dataset", "has_header"), "false"),
    ("predict", ("framework", "predictor", "epochs"), 1.5),
    ("predict", ("framework", "predictor", "epochs"), True),
    ("predict", ("framework", "grouping", "znormalize"), "no"),
    ("predict", ("framework", "horizon"), 2.7),
    ("predict", ("seed",), "x"),
    ("predict", ("framework", "predictor"), [1]),
]


class TestTypedConfig:
    @pytest.mark.parametrize("command, path, value", MISTYPED, ids=[
        f"{command}:{'.'.join(path)}={json.dumps(value)}" for command, path, value in MISTYPED])
    def test_mistyped_value_is_one_config_error(self, command, path, value, tmp_path):
        cfg = _tiny_configs(tmp_path)[command]
        _set(cfg, path, value)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, _ = _run(["--out", str(tmp_path / "out"), command, str(config)])
        assert code == 1
        assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert path[-1] in err

    scalars = {bool: st.booleans(), int: st.integers(-2, 5), float: st.floats(),
               str: st.text(max_size=4)}
    json_values = st.recursive(
        st.none() | st.one_of(*scalars.values()),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=2),
        max_leaves=4)

    # any JSON value, or one of the key's own type (so that most runs get past
    # the parser); epochs, ensemble sizes, horizons and window lengths stay
    # small because drawn integers lie in -2..5
    @settings(deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_fuzzed_key_exits_cleanly(self, tmp_path, data):
        configs = _tiny_configs(tmp_path)
        command = data.draw(st.sampled_from(sorted(configs)))
        cfg = configs[command]
        path = data.draw(st.sampled_from(sorted(_key_paths(cfg))))
        original = cfg
        for key in path:
            original = original[key]
        same_type = self.scalars.get(type(original), self.json_values)
        _set(cfg, path, data.draw(same_type | self.json_values))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, caught = _run(["--out", str(tmp_path / "out"), command, str(config),
                                  "--horizon" if command == "predict" else "--runs", "1"])
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert err == ""
        else:
            prefix = {1: "config error: ", 2: "data error: ", 3: "numeric failure: "}[code]
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


CSV_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.3e}")
               | st.integers(-10 ** 20, 10 ** 20)).map(str)
CSV_CELLS = CSV_NUMBERS | st.text(max_size=3) | st.sampled_from(
    ["", " 1.5 ", "+1", "1.", ".5", "-0", "1_0", "1e400", "nan", "-Infinity", "x", '"2"',
     "\x00", "\udcff"])  # "\udcff" is written as the byte 0xff, which is not UTF-8


@st.composite
def csv_files(draw, lengths=st.integers(0, 6) | st.integers(12, 40)):
    """(bytes, column, has_header): mostly numeric rows of 1-3 cells, any
    magnitude, with odd cells, blank and ragged rows and a header now and
    then."""
    width = draw(st.integers(1, 3))
    length = draw(lengths)
    rows = draw(st.lists(st.lists(CSV_NUMBERS, min_size=width, max_size=width),
                         min_size=length, max_size=length))
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = draw(st.sampled_from([[], [""], rows[i][:1], rows[i] + ["7"]]))
            if rows[i] and draw(st.booleans()):
                rows[i][-1] = draw(CSV_CELLS)
    has_header = draw(st.booleans())
    header = draw(st.lists(st.sampled_from(["value", "t", "a b", ""]) | st.text(max_size=3),
                           min_size=1, max_size=width))
    if has_header or draw(st.integers(0, 9)) == 0:
        rows.insert(0, header)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(",".join(r) for r in rows)
    column = draw(st.sampled_from([1, width] + header * has_header))
    if draw(st.integers(0, 9)) == 0:  # a column the file may not have
        column = draw(st.sampled_from([2, str(width)] + header))
    return text.encode("utf-8", "surrogateescape"), column, has_header


class TestCsvFuzz:
    """Fuzzed data files under valid commands: a run either succeeds with an
    empty stderr or fails with one line, as a data error or a numeric
    failure (never a config error, since the config is valid), and never
    warns."""

    @settings(deadline=None, max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files(), st.sampled_from(["emd", "eemd", "predict"]))
    def test_fuzzed_data_file_exits_cleanly(self, tmp_path, case, command):
        raw, column, has_header = case
        data = tmp_path / "data.csv"
        data.write_bytes(raw)
        if command == "predict":
            cfg = _tiny_configs(tmp_path)["predict"]
            cfg["dataset"] = {"path": str(data), "column": column, "has_header": has_header}
            config = tmp_path / "config.json"
            config.write_text(json.dumps(cfg))
            argv = ["predict", str(config)]
        else:
            argv = ["decompose", str(data), f"--column={column}", "--method", command,
                    "--ensemble", "2"] + ["--has-header"] * has_header
        code, err, caught = _run(["--out", str(tmp_path / "out"), *argv])
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert err == ""
        else:
            prefix = {2: "data error: ", 3: "numeric failure: "}[code]
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")

    # at least 16 rows: up to three blank ones still leave the 12 training
    # points and one to forecast
    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files(lengths=st.integers(16, 40)))
    def test_fuzzed_data_file_under_benchmark_exits_cleanly(self, tmp_path, case):
        """Two frameworks (NN and EEMD_DTW_NN), two runs, a 12-point
        training window."""
        raw, column, has_header = case
        data = tmp_path / "data.csv"
        data.write_bytes(raw)
        cfg = _tiny_configs(tmp_path)["benchmark"]
        cfg.update(dataset={"path": str(data), "column": column, "has_header": has_header},
                   holdout=12, runs=2, seeds=[5, 6])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, caught = _run(["--out", str(tmp_path / "out"), "benchmark", str(config)])
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert err == ""
        else:
            prefix = {2: "data error: ", 3: "numeric failure: "}[code]
            assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")


NEGATIVE_SEEDS = [
    ("predict", ("seed",), "seed"),
    ("predict", ("framework", "predictor", "seed"), "predictor.seed"),
    ("predict", ("framework", "eemd", "seed"), "eemd.seed"),
    ("benchmark", ("seeds",), "seeds[1]"),
    ("benchmark", ("frameworks", 1, "predictor", "seed"), "predictor.seed"),
]
SEED_FLAG_COMMANDS = ["predict", "benchmark", "decompose-emd", "decompose-eemd", "dtw",
                      "gradcheck"]


class TestNegativeSeed:
    @pytest.mark.parametrize("command, path, key", NEGATIVE_SEEDS,
                             ids=[f"{c}:{k}" for c, _, k in NEGATIVE_SEEDS])
    def test_config_seed_names_its_key(self, command, path, key, tmp_path):
        cfg = _tiny_configs(tmp_path)[command]
        doc = cfg
        for step in path[:-1]:
            doc = doc[step]
        doc[path[-1]] = [5, -1] if key.startswith("seeds") else -1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        code, err, _ = _run(["--out", str(tmp_path / "out"), command, str(config)])
        assert (code, err) == (1, f"config error: {key}: expected non-negative integer, got -1\n")

    @pytest.mark.parametrize("command", SEED_FLAG_COMMANDS)
    def test_seed_flag_names_itself(self, command, tmp_path):
        configs = _tiny_configs(tmp_path)
        data = configs["predict"]["dataset"]["path"]
        argv = {"decompose-emd": ["decompose", data, "--method", "emd"],
                "decompose-eemd": ["decompose", data, "--method", "eemd"],
                "dtw": ["dtw", data, data], "gradcheck": ["gradcheck", "--trials", "1"]}
        if command in configs:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(configs[command]))
            argv[command] = [command, str(config)]
        code, err, _ = _run(["--seed", "-2", "--out", str(tmp_path / "out"), *argv[command]])
        assert (code, err) == (1, "config error: --seed: expected non-negative integer, got -2\n")


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command, flag", [
    ("decompose", "--max-imfs"), ("decompose", "--max-sift-iterations"),
    ("decompose", "--ensemble"), ("predict", "--horizon"), ("benchmark", "--runs")])
def test_count_flag_below_one_names_itself(command, flag, value, tmp_path):
    configs = _tiny_configs(tmp_path)
    argv = [command, configs["predict"]["dataset"]["path"], "--method", "eemd"]
    if command in configs:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(configs[command]))
        argv = [command, str(config)]
    code, err, _ = _run(["--out", str(tmp_path / "out"), *argv, flag, value])
    assert (code, err) == (1, f"config error: {flag}: expected integer >= 1, got {value}\n")


class TestOutputDirectory:
    """``--out`` overrides the config's ``output_dir``, ``.`` included."""

    @pytest.mark.parametrize("command, written", [("predict", "forecast.csv"),
                                                  ("benchmark", "benchmark.csv")])
    @pytest.mark.parametrize("out, where", [(None, "out"), (".", "."), ("given", "given")])
    def test_out_overrides_output_dir(self, command, written, out, where, tmp_path,
                                      monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_configs(tmp_path)[command]))  # output_dir "out"
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, err, _ = _run(([] if out is None else ["--out", out]) + [command, str(config)])
        assert (code, err) == (0, "")
        assert [p.relative_to(cwd).parent.as_posix() for p in cwd.rglob(written)] == [where]


class TestConfigErrorLine:
    """A config or usage error exits 1 with exactly one stderr line."""

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "missing.json"
        code, err, _ = _run(["predict", str(missing)])
        assert (code, err) == (1, f"config error: config file not found: {missing}\n")

    def test_invalid_json(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("not json")
        code, err, _ = _run(["benchmark", str(config)])
        assert (code, err) == (1, "config error: config is not valid JSON: "
                                  "Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("holdout"), "holdout is required"),
        (lambda doc: doc.update(labels=["a"]), "labels must match the number of frameworks"),
    ])
    def test_benchmark_config(self, edit, message, tmp_path):
        doc = _tiny_configs(tmp_path)["benchmark"]
        edit(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, err, _ = _run(["--out", str(tmp_path / "out"), "benchmark", str(config)])
        assert (code, err) == (1, f"config error: {message}\n")

    def test_runs_above_seed_count(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_configs(tmp_path)["benchmark"]))  # one seed
        code, err, _ = _run(["--out", str(tmp_path / "out"), "benchmark", str(config),
                             "--runs", "2"])
        assert (code, err) == (1, "config error: config provides 1 seeds, need 2\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["decompose", "x.csv", "--method", "foo"],
         "argument --method: invalid choice: 'foo' (choose from 'emd', 'eemd')"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
                         "'decompose', 'dtw', 'predict', 'benchmark', 'gradcheck')"),
        (["predict"], "the following arguments are required: config"),
    ])
    def test_usage_error(self, argv, message):
        code, err, _ = _run(argv)
        assert (code, err) == (1, f"config error: {message}\n")


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code = main(["gradcheck", "--trials", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPNN" in out and "WNN" in out and "ENN" in out and "OK" in out

    def test_error_at_or_above_tolerance_is_exit_three(self, capsys):
        assert main(["gradcheck", "--trials", "1", "--tolerance", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"numeric failure: worst error \d\.\d{3}e-\d\d >= tolerance 1e-300\n",
                            captured.err)
        assert captured.out.splitlines()[-1].startswith("ENN: max relative error ")

    def test_rejects_non_gradient_kind(self):
        assert main(["gradcheck", "--kinds", "GRNN"]) == 1

    @pytest.mark.parametrize("flag", ["--trials", "--pairs", "--window", "--hidden"])
    def test_count_below_one_names_its_flag(self, flag):
        code, err, _ = _run(["gradcheck", flag, "0"])
        assert (code, err) == (1, f"config error: {flag}: expected integer >= 1, got 0\n")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1", "-1e-4", "-inf", "-NaN"])
    def test_tolerance_not_positive_and_finite_names_its_flag(self, tolerance):
        code, err, _ = _run(["gradcheck", "--trials", "1", "--tolerance", tolerance])
        assert (code, err) == (1, "config error: --tolerance: expected positive finite "
                                  f"number, got {float(tolerance)}\n")


def test_cli_import_leaves_scipy_interpolate_out():
    # the envelope spline is solved in modecast; scipy.interpolate, which
    # loads scipy.linalg too, would add about 0.6 s to every command's start-up
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, modecast.cli; print('scipy.interpolate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def _fresh(code: str, *args: str) -> str:
    """The last line ``code`` prints when run with ``args`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


def _around_main(module: str) -> str:
    """Code that prints whether ``module`` is loaded before and after one
    CLI run, and the run's exit code."""
    return ("import sys; from modecast.cli import main; "
            f"print({module!r} in sys.modules, main(sys.argv[1:]), {module!r} in sys.modules)")


@pytest.mark.parametrize("module", ["modecast", "modecast.cli"])
def test_import_leaves_scipy_linalg_out(module):
    assert _fresh(f"import sys, {module}; print('scipy.linalg' in sys.modules)") == "False"


@pytest.mark.parametrize("command", ["predict-NN", "dtw", "gradcheck", "config-error"])
def test_command_without_a_spline_leaves_scipy_linalg_out(command, tmp_path):
    # scipy.linalg is imported at the first envelope spline solve, and these
    # commands solve none
    configs = _tiny_configs(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**configs["predict"],
                                  "framework": configs["benchmark"]["frameworks"][0]}))
    series = configs["predict"]["dataset"]["path"]
    argv, code = {"predict-NN": (["predict", str(config)], 0),
                  "dtw": (["dtw", series, series], 0),
                  "gradcheck": (["gradcheck", "--trials", "1"], 0),
                  "config-error": (["decompose", series, "--max-imfs", "0"], 1)}[command]
    assert _fresh(_around_main("scipy.linalg"), "--out", str(tmp_path / "out"), *argv) \
        == f"False {code} False"


def test_first_spline_solve_in_fresh_interpreter_is_bit_identical(two_tone_csv, tmp_path):
    argv = ["decompose", str(two_tone_csv), "--method", "emd"]
    # the fresh run loads scipy.linalg at its first solve, not before
    assert _fresh(_around_main("scipy.linalg"), "--out", str(tmp_path / "fresh"), *argv) \
        == "False 0 True"
    import scipy.linalg.lapack  # noqa: F401  (loaded before this run's first solve)
    assert main(["--out", str(tmp_path / "loaded"), *argv]) == 0
    assert (tmp_path / "fresh" / "components.csv").read_bytes() \
        == (tmp_path / "loaded" / "components.csv").read_bytes()


@pytest.mark.parametrize("module", ["modecast", "modecast.cli"])
def test_import_leaves_scipy_special_out(module):
    assert _fresh(f"import sys, {module}; print('scipy.special' in sys.modules)") == "False"


@pytest.mark.parametrize("command", ["predict-NN", "dtw"])
def test_command_without_an_enn_leaves_scipy_special_out(command, tmp_path):
    # scipy.special is imported where an ENN context fill or forecast
    # session is built, and these commands build none
    configs = _tiny_configs(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**configs["predict"],
                                  "framework": configs["benchmark"]["frameworks"][0]}))
    series = configs["predict"]["dataset"]["path"]
    argv = {"predict-NN": ["predict", str(config)], "dtw": ["dtw", series, series]}[command]
    assert _fresh(_around_main("scipy.special"), "--out", str(tmp_path / "out"), *argv) \
        == "False 0 False"


def test_first_enn_in_fresh_interpreter_is_bit_identical(tmp_path):
    # the NN variant forecasts 4 steps with an ENN, carrying its context
    configs = _tiny_configs(tmp_path)
    nn = configs["benchmark"]["frameworks"][0]
    framework = {**nn, "predictor": {**nn["predictor"], "kind": "ENN"}, "horizon": 4}
    config = tmp_path / "enn.json"
    config.write_text(json.dumps({**configs["predict"], "framework": framework}))
    argv = ["predict", str(config)]
    # the fresh run loads scipy.special at its first ENN, not before
    assert _fresh(_around_main("scipy.special"), "--out", str(tmp_path / "fresh"), *argv) \
        == "False 0 True"
    import scipy.special  # noqa: F401  (loaded before this run's first ENN)
    assert main(["--out", str(tmp_path / "loaded"), *argv]) == 0
    for name in ("forecast.json", "forecast.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() \
            == (tmp_path / "loaded" / name).read_bytes()
