import json

import numpy as np
import pytest

from modecast.cli import main

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

    def test_path_on_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_series(a, [4.0, 5.0, 6.0])
        assert main(["dtw", str(a), str(a), "--path"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0", "(1,1)", "(2,2)", "(3,3)"]


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "surprise": 1}))
        assert main(["predict", str(path)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        assert main(["predict", str(path)]) == 1


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


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code = main(["gradcheck", "--trials", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BPNN" in out and "WNN" in out and "ENN" in out and "OK" in out

    def test_rejects_non_gradient_kind(self):
        assert main(["gradcheck", "--kinds", "GRNN"]) == 1
