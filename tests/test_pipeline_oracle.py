"""The lockstep framework runner against the frozen sequential runners:
``legacy_pipeline.run_framework`` (one branch per variant, one ``train``
call per model) and ``legacy_evaluation.benchmark`` (one run after another).
Component names and bytes, the combined forecast, metadata, reports, the
group records against the legacy group trace, and any exception's type,
message and cause must be bit-identical, cell by cell."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legacy_evaluation
import legacy_pipeline as legacy
from modecast.core import DataError, TimeSeries
from modecast.decomposition import EemdConfig, emd, eemd
from modecast.evaluation import benchmark
from modecast.grouping import GroupingConfig
from modecast.pipeline import VARIANTS, FrameworkSpec, run_framework, run_frameworks
from modecast.predictors import KINDS, PredictorConfig


@st.composite
def series_values(draw, min_length=6, max_length=48):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # short series against long windows make too-short components
    length = draw(st.integers(min_length, max_length))
    t = np.arange(length)
    values = (rng.uniform(-0.1, 0.1) * t + np.sin(2 * np.pi * t / rng.uniform(2.5, 6))
              + 2 * np.sin(2 * np.pi * t / rng.uniform(8, 24)))
    return TimeSeries(values + rng.normal(0, draw(st.sampled_from([0, 0.3])), length))


def predictors():
    return st.builds(
        PredictorConfig,
        kind=st.sampled_from(KINDS),
        hidden_units=st.integers(1, 4),
        learning_rate=st.sampled_from([0.05, 0.5, 1e300]),  # 1e300 diverges
        epochs=st.integers(1, 12),
        grnn_sigma=st.sampled_from([0.1, 0.02]),
        seed=st.integers(0, 2**16),
    )


def groupings():
    return st.builds(
        GroupingConfig,
        segment_length=st.integers(2, 10),
        group_size=st.integers(1, 12),
        znormalize=st.booleans(),
        selection=st.sampled_from(["topk", "threshold"]),
    )


@st.composite
def specs(draw, series, predictor, grouping, horizon):
    """(spec, seed) of one cell, its split auto, explicit or inconsistent."""
    spec = FrameworkSpec(
        variant=draw(st.sampled_from(VARIANTS)),
        predictor=predictor,
        eemd=EemdConfig(ensemble_size=draw(st.integers(1, 3)),
                        noise_amplitude=draw(st.sampled_from([0.0, 0.2])),
                        seed=draw(st.integers(0, 2**16))),
        grouping=grouping,
        horizon=horizon,
    )
    seed = draw(st.none() | st.integers(0, 2**16))
    split = draw(st.sampled_from(["auto", "auto", "explicit", "inconsistent"]))
    if split != "auto" and spec.variant in ("EMD_DTW_NN", "EEMD_DTW_NN"):
        if spec.variant == "EMD_DTW_NN":
            n = emd(series, spec.sift).n_imfs
        else:
            n = eemd(series, spec.eemd if seed is None else replace(spec.eemd, seed=seed)).n_imfs
        p = draw(st.integers(0, n))
        q = n + 1 - p if split == "explicit" else n + 2 - p
        spec = replace(spec, split=(p, q))
    return spec, seed


@st.composite
def framework_cases(draw):
    series = draw(series_values())
    spec, seed = draw(specs(series, draw(predictors()), draw(groupings()),
                            draw(st.integers(1, 3))))
    return series, spec, seed


@st.composite
def cell_batches(draw):
    """1-5 cells on one series. Most share one predictor and grouping, as
    the frameworks of a benchmark do, so their models form lockstep groups;
    some bring their own."""
    series = draw(series_values())
    predictor, grouping = draw(predictors()), draw(groupings())
    cells = []
    for _ in range(draw(st.integers(1, 5))):
        own = draw(st.sampled_from([False, False, True]))
        cells.append(draw(specs(series, draw(predictors()) if own else predictor,
                                grouping, draw(st.integers(1, 3)))))
    return series, cells


def raised(exc):
    return type(exc), str(exc), type(exc.__cause__)


def described(result, trace=None):
    """Everything a run exposes, as comparable values; an exception becomes
    its type, message and cause type alone. The group records (``trace``, or
    else the result's own) go through JSON, so floats compare by their
    round-trip repr (signed zeros included)."""
    if isinstance(result, Exception):
        return raised(result)
    parts = [(name, v.dtype.str, v.shape, v.tobytes()) for name, v in result.per_component]
    combined = (result.combined.dtype.str, result.combined.shape, result.combined.tobytes())
    records = result.group_records() if trace is None else trace
    metadata = json.dumps(result.metadata), list(result.metadata)
    return (parts, combined, *metadata), json.dumps(records)


def outcome(series, spec, seed):
    try:
        return described(run_framework(series, spec, seed=seed))
    except Exception as exc:
        return described(exc)


def legacy_outcome(series, spec, seed):
    trace = {}
    try:
        result = legacy.run_framework(series, spec, seed=seed, group_trace=trace)
    except Exception as exc:
        result = exc
    return described(result, trace)


class TestPipelineOracle:
    @settings(deadline=None, max_examples=150)
    @given(framework_cases())
    def test_run_framework_matches_branches(self, case):
        assert outcome(*case) == legacy_outcome(*case)

    @settings(deadline=None, max_examples=150)
    @given(cell_batches())
    def test_run_frameworks_matches_cell_by_cell(self, batch):
        series, cells = batch
        results = run_frameworks(series, cells)
        assert len(results) == len(cells)
        for (spec, seed), result in zip(cells, results):
            assert described(result) == legacy_outcome(series, spec, seed)


@st.composite
def benchmark_cases(draw):
    """A series with its holdout, 1-4 specs sharing one predictor and
    grouping (some with their own), 1-3 runs and maybe labels; now and then
    a zero actual, or a seed count or holdout that the argument checks
    reject."""
    series = draw(series_values(min_length=8, max_length=56))
    rarely = st.sampled_from([False] * 5 + [True])
    if draw(rarely):  # relative error is undefined at a zero actual
        series = TimeSeries(np.append(series.values[:-1], 0.0))
    holdout = len(series) - (0 if draw(rarely) else draw(st.integers(1, 4)))
    train = TimeSeries(series.values[:holdout])
    predictor, grouping = draw(predictors()), draw(groupings())
    frameworks = []
    for _ in range(draw(st.integers(1, 4))):
        own = draw(st.sampled_from([False, False, True]))
        spec, _ = draw(specs(train, draw(predictors()) if own else predictor, grouping, 1))
        frameworks.append(spec)
    runs = draw(st.integers(1, 3))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=runs, max_size=runs))
    if draw(rarely):
        seeds.append(0)
    labels = draw(st.none() | st.just([f"f{i}" for i in range(len(frameworks))]))
    return series, holdout, frameworks, runs, seeds, labels


def reported(run, *args):
    try:
        return [json.dumps(report.to_dict()) for report in run(*args)]
    except Exception as exc:
        return raised(exc)


def legacy_reported(series, holdout, *rest):
    """The frozen loop's reports or error. A series too short for its
    holdout was a ValueError there; it is a DataError naming both lengths."""
    out = reported(legacy_evaluation.benchmark, series, holdout, *rest)
    if out == (ValueError, "holdout leaves nothing to forecast", type(None)):
        return (DataError, f"holdout {holdout} leaves nothing to forecast in a series of "
                           f"{len(series)} points", type(None))
    return out


class TestBenchmarkOracle:
    @settings(deadline=None, max_examples=100)
    @given(benchmark_cases())
    def test_benchmark_matches_run_by_run_loop(self, case):
        assert reported(benchmark, *case) == legacy_reported(*case)

    @pytest.mark.parametrize("diverging_first", [False, True])
    def test_a_report_error_comes_before_a_later_framework_failure(self, diverging_first):
        """NN runs cleanly but cannot be scored (a zero actual); EMD_NN
        diverges in training. NN comes first in family order, whichever
        order the specs are given in, so its report error is raised."""
        t = np.arange(40)
        series = TimeSeries(np.append(5 + np.sin(2 * np.pi * t / 7) + 0.05 * t, 0.0))
        predictor = PredictorConfig(epochs=5)
        grouping = GroupingConfig(segment_length=4)
        frameworks = [FrameworkSpec("NN", predictor=predictor, grouping=grouping),
                      FrameworkSpec("EMD_NN", predictor=replace(predictor, learning_rate=1e300),
                                    grouping=grouping)]
        if diverging_first:
            frameworks.reverse()
        case = series, 40, frameworks, 2, [1, 2], None
        assert reported(benchmark, *case) == reported(legacy_evaluation.benchmark, *case) == (
            DataError, "relative error is undefined for actual = 0", type(None))
