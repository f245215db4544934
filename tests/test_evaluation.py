import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecast.core import TimeSeries
from modecast.decomposition import EemdConfig
from modecast.evaluation import (
    EvalReport,
    aggregate_runs,
    benchmark,
    evaluate_run,
    framework_label,
    relative_error,
)
from modecast.grouping import GroupingConfig
from modecast.pipeline import VARIANTS, FrameworkSpec
from modecast.predictors import KINDS, PredictorConfig

from test_pipeline_oracle import series_values

TABLE_ACTUALS = [34.0, 37.0, 36.0, 41.0, 48.0, 39.0, 38.0, 34.0]


class TestRelativeError:
    def test_table_value(self):
        assert relative_error(34.00, 33.25) == pytest.approx(0.0220588, abs=1e-6)

    def test_identity(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 1.0)

    def test_negative_actual_uses_magnitude(self):
        assert relative_error(-2.0, -1.0) == 0.5


class TestEvaluateRun:
    def test_identity_on_table_actuals(self):
        actuals = TimeSeries(TABLE_ACTUALS)
        result = evaluate_run(actuals, TABLE_ACTUALS)
        assert result.mean_re == 0.0
        assert all(re == 0.0 for re in result.per_point_re)

    def test_uniform_ten_percent(self):
        actuals = TimeSeries(TABLE_ACTUALS)
        result = evaluate_run(actuals, [1.1 * y for y in TABLE_ACTUALS])
        assert result.mean_re == pytest.approx(0.10, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(1, 10, 12)
        yhat = y + rng.normal(0, 0.5, 12)
        base = evaluate_run(TimeSeries(y), yhat)
        scaled = evaluate_run(TimeSeries(3.5 * y), 3.5 * yhat)
        assert np.allclose(base.per_point_re, scaled.per_point_re, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate_run(TimeSeries([1.0, 2.0]), [1.0])

    @pytest.mark.parametrize("actuals, predictions", [
        ([1.0, 2.0, 3.0, 4.0], np.ones((2, 2))), ([1.0], np.float64(1.0))], ids=["2-D", "0-D"])
    def test_predictions_must_be_1d(self, actuals, predictions):
        shape = re.escape(str(predictions.shape))
        with pytest.raises(ValueError, match=f"^predictions must be 1-D, got shape {shape}$"):
            evaluate_run(TimeSeries(actuals), predictions)

    def test_negative_actuals_scored_against_magnitude(self):
        result = evaluate_run(TimeSeries([4.0, -2.0, -8.0]), [5.0, -3.0, -6.0])
        assert result.per_point_re == (0.25, 0.5, 0.25)
        assert result.mean_re == 1.0 / 3.0


class TestAggregation:
    def test_single_run_zero_std(self):
        actuals = TimeSeries(TABLE_ACTUALS)
        report = aggregate_runs("x", actuals, [np.array(TABLE_ACTUALS) * 1.05])
        assert report.runs == 1
        assert report.re_std_over_runs == 0.0

    def test_mean_over_runs_matches_resummation(self):
        rng = np.random.default_rng(2)
        actuals = TimeSeries(rng.uniform(5, 15, 6))
        preds = [actuals.values + rng.normal(0, 1, 6) for _ in range(7)]
        report = aggregate_runs("x", actuals, preds)
        # straightforward oracle: recompute each run mean and average
        means = [np.mean(np.abs(actuals.values - p) / actuals.values) for p in preds]
        assert report.re_mean_over_runs == pytest.approx(np.mean(means), abs=1e-12)
        assert report.re_std_over_runs == pytest.approx(np.std(means), abs=1e-12)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            EvalReport(label="x", per_point=((1.0, 1.0, 0.0),), per_point_std=(0.0,),
                       mean_re=0.0, runs=0, re_mean_over_runs=0.0,
                       re_std_over_runs=0.0, per_run_mean_re=(), per_run_predictions=())


def quick_specs():
    kwargs = dict(
        predictor=PredictorConfig(kind="BPNN", epochs=40, seed=0),
        grouping=GroupingConfig(segment_length=6, group_size=8),
        eemd=EemdConfig(ensemble_size=3, noise_amplitude=0.2, seed=5),
    )
    return [FrameworkSpec(variant="NN", **kwargs),
            FrameworkSpec(variant="EMD_NN", **kwargs)]


def bench_series():
    t = np.arange(64)
    return TimeSeries(0.1 * t + 2 * np.sin(2 * np.pi * t / 12) + np.sin(2 * np.pi * t / 5) + 5)


class TestBenchmark:
    def test_identical_specs_identical_reports(self):
        series = bench_series()
        specs = quick_specs()
        reports = benchmark(series, 58, [specs[1], specs[1]], 2, [11, 12],
                            labels=["first", "second"])
        a, b = reports
        assert a.per_run_predictions == b.per_run_predictions
        assert a.re_mean_over_runs == b.re_mean_over_runs

    def test_reports_in_framework_family_order(self):
        series = bench_series()
        specs = list(reversed(quick_specs()))  # EMD_NN first on input
        reports = benchmark(series, 58, specs, 1, [3])
        assert [r.label for r in reports] == ["BPNN", "EMD+BPNN"]

    def test_determinism(self):
        series = bench_series()
        specs = quick_specs()
        a = benchmark(series, 58, specs, 2, [7, 8])
        b = benchmark(series, 58, specs, 2, [7, 8])
        for ra, rb in zip(a, b):
            assert ra.per_run_predictions == rb.per_run_predictions

    def test_seed_count_enforced(self):
        with pytest.raises(ValueError, match="seeds"):
            benchmark(bench_series(), 58, quick_specs(), 3, [1, 2])

    def test_holdout_must_leave_training_data(self):
        with pytest.raises(ValueError, match="training points"):
            benchmark(bench_series(), 8, quick_specs(), 1, [1])

    @pytest.mark.parametrize("labels", [["BPNN"], ["a", "b", "c"]], ids=["short", "long"])
    def test_one_label_per_spec(self, labels):
        """A label list of the wrong length is refused by name before any
        cell runs, not an IndexError after all of them, nor labels dropped."""
        with pytest.raises(ValueError, match=r"need one label per spec \(2\), got \d labels"):
            benchmark(bench_series(), 58, quick_specs(), 1, [1], labels=labels)

    @pytest.mark.parametrize("holdout, match", [(58.0, "holdout must be an integer, got 58.0"),
                                                (True, "holdout must be an integer, got True"),
                                                (0, "holdout must be >= 1, got 0")])
    def test_holdout_must_be_a_positive_integer(self, holdout, match):
        with pytest.raises(ValueError, match=match):
            benchmark(bench_series(), holdout, quick_specs(), 1, [1])

    @pytest.mark.parametrize("runs, seeds, match", [(0, [], "runs must be >= 1, got 0"),
                                                    (2.0, [1, 2], "runs must be an integer")])
    def test_runs_must_be_a_positive_integer(self, runs, seeds, match):
        with pytest.raises(ValueError, match=match):
            benchmark(bench_series(), 58, quick_specs(), runs, seeds)

    def test_labels(self):
        specs = quick_specs()
        assert framework_label(specs[0]) == "BPNN"
        assert framework_label(specs[1]) == "EMD+BPNN"


def metamorphic_specs(kind):
    predictor = PredictorConfig(kind=kind, hidden_units=3, epochs=20, seed=0)
    grouping = GroupingConfig(segment_length=6, group_size=6)
    eemd = EemdConfig(ensemble_size=3, seed=0)
    return [FrameworkSpec(variant=v, predictor=predictor, grouping=grouping, eemd=eemd)
            for v in VARIANTS]


def predictions_bytes(report, run=None):
    rows = report.per_run_predictions if run is None else [report.per_run_predictions[run]]
    return np.array(rows).tobytes()


nonzero_actuals = st.floats(0.5, 50) | st.floats(-50, -0.5)


class TestMetamorphic:
    """Whole-benchmark properties: a forecast never sees the holdout, and a
    run's seed reaches that run alone."""

    @settings(deadline=None, max_examples=30)
    @given(series_values(min_length=40, max_length=56), st.sampled_from(KINDS),
           st.integers(2, 4).flatmap(lambda h: st.tuples(
               st.lists(nonzero_actuals, min_size=h, max_size=h),
               st.lists(nonzero_actuals, min_size=h, max_size=h))))
    def test_no_look_ahead(self, train, kind, holdouts):
        before, after = [
            benchmark(TimeSeries(np.concatenate([train.values, holdout])), len(train),
                      metamorphic_specs(kind), 2, [4, 9])
            for holdout in holdouts]
        for a, b in zip(before, after):
            assert predictions_bytes(a) == predictions_bytes(b)
            if holdouts[0] != holdouts[1]:
                assert [re for *_, re in a.per_point] != [re for *_, re in b.per_point]

    # GRNN draws nothing from the seed, so its NN and EMD runs would not move
    @settings(deadline=None, max_examples=30)
    @given(series_values(min_length=44, max_length=56), st.sampled_from(["BPNN", "WNN"]),
           st.lists(st.integers(0, 2**32), min_size=3, max_size=3), st.integers(0, 2),
           st.integers(1, 2**16))
    def test_seed_locality(self, series, kind, seeds, run, shift):
        specs = metamorphic_specs(kind)
        changed = seeds[:run] + [seeds[run] + shift] + seeds[run + 1:]
        holdout = len(series) - 3
        for a, b in zip(benchmark(series, holdout, specs, 3, seeds),
                        benchmark(series, holdout, specs, 3, changed)):
            for r in range(3):
                same = predictions_bytes(a, r) == predictions_bytes(b, r)
                assert same == (r != run), (a.label, r)
