import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecast.core import DataError, Decomposition, TimeSeries, minmax_normalize
from modecast.decomposition import EemdConfig, SiftConfig, emd
from modecast import pipeline
from modecast.grouping import GroupingConfig
from modecast.pipeline import (
    ForecastResult,
    FrameworkSpec,
    PipelineError,
    VARIANTS,
    _high_steps,
    _low_steps,
    run_framework,
    run_frameworks,
    split_components,
)
from modecast.predictors import KINDS, PredictorConfig

from test_pipeline_oracle import series_values


def fake_decomposition(n_imfs, length=16):
    t = np.arange(length)
    imfs = [
        TimeSeries(np.sin(2 * np.pi * t * (n_imfs - i) / length))
        for i in range(n_imfs)
    ]
    return Decomposition(imfs=tuple(imfs), residual=TimeSeries(0.1 * t))


class TestSplitComponents:
    def test_explicit_one_three(self):
        d = fake_decomposition(3)
        s = split_components(d, (1, 3))
        assert s.p_count == 1 and s.q_count == 3

    def test_explicit_three_four(self):
        d = fake_decomposition(6)
        assert split_components(d, (3, 4)) == (3, 4)

    def test_zero_imfs_all_low(self):
        d = emd(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]))
        s = split_components(d, "auto")
        assert s.p_count == 0
        assert s.q_count == 1

    def test_inconsistent_split_names_constraint(self):
        d = fake_decomposition(2)
        with pytest.raises(ValueError, match=r"P\+Q=N\+1"):
            split_components(d, (1, 5))

    def test_auto_at_least_one_high(self):
        # slow IMFs only: crossing counts below T/4, but P is still >= 1
        length = 64
        t = np.arange(length)
        d = Decomposition(
            imfs=(TimeSeries(np.sin(2 * np.pi * t / 32)),),
            residual=TimeSeries(0.1 * t),
        )
        s = split_components(d, "auto")
        assert s.p_count == 1

    def test_auto_counts_fast_imfs(self):
        length = 64
        t = np.arange(length)
        d = Decomposition(
            imfs=(
                TimeSeries(np.sin(2 * np.pi * t / 3)),   # ~42 crossings > 16
                TimeSeries(np.sin(2 * np.pi * t / 4)),   # 32 crossings > 16
                TimeSeries(np.sin(2 * np.pi * t / 32)),  # 4 crossings
            ),
            residual=TimeSeries(0.1 * t),
        )
        s = split_components(d, "auto")
        assert s.p_count == 2


def _run_one(task):
    """Drive one ``_low_steps``/``_high_steps`` generator through the lockstep
    core, as a one-component framework run does; raise its failure."""
    outcome = pipeline._lockstep([(0, task)])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class TestForecastLow:
    def test_linear_trend_extrapolates(self):
        comp = TimeSeries(np.arange(1.0, 21.0))
        cfg = PredictorConfig(kind="BPNN", hidden_units=8, learning_rate=0.5,
                              epochs=20000, seed=2)
        preds = _run_one(_low_steps(comp, cfg, window=4, horizon=3))
        _, scale = minmax_normalize(comp)
        pn = scale.transform(preds)
        tn = scale.transform(np.array([21.0, 22.0, 23.0]))
        assert np.all(np.abs(pn - tn) / np.abs(tn) < 0.05)

    def test_horizon_one(self):
        comp = TimeSeries(np.arange(1.0, 21.0))
        preds = _run_one(_low_steps(comp, PredictorConfig(epochs=50), window=4, horizon=1))
        assert preds.shape == (1,)

    def test_constant_component(self):
        comp = TimeSeries(np.full(20, 7.0))
        preds = _run_one(_low_steps(comp, PredictorConfig(kind="BPNN", epochs=500, seed=1),
                                    window=4, horizon=3))
        # degenerate scale: everything sits at the 0.5 level
        assert np.max(np.abs(preds - 7.0)) < 1e-2 * 7.0

    def test_series_too_short(self):
        with pytest.raises(ValueError):
            _run_one(_low_steps(TimeSeries([1.0, 2.0]), PredictorConfig(), window=4,
                                horizon=1))


class TestForecastHigh:
    def test_periodic_one_step(self):
        t = np.arange(64)
        imf = TimeSeries(np.sin(2 * np.pi * t / 8))
        cfg = PredictorConfig(kind="GRNN", grnn_sigma=1e-3, seed=5)
        preds, _ = _run_one(_high_steps(imf, GroupingConfig(segment_length=8), cfg, horizon=1))
        _, scale = minmax_normalize(imf)
        truth = np.sin(2 * np.pi * 64 / 8)
        err = abs(scale.transform(preds)[0] - scale.transform([truth])[0])
        assert err < 0.10

    def test_recursion_consumes_previous_prediction(self):
        t = np.arange(64)
        imf = TimeSeries(np.sin(2 * np.pi * t / 8))
        cfg = PredictorConfig(kind="GRNN", grnn_sigma=1e-3, seed=5)
        preds, steps = _run_one(_high_steps(imf, GroupingConfig(segment_length=8), cfg,
                                            horizon=2))
        trace = ForecastResult((("imf", preds),), {}, (("imf", steps),)).group_records()["imf"]
        assert trace[1]["step"] == 2
        # the step-2 reference window ends with the step-1 prediction
        assert trace[1]["reference"][-1] == trace[0]["prediction"]
        assert trace[1]["reference_offset"] == trace[0]["reference_offset"] + 1

    def test_k_one_duplicate_returns_successor(self):
        t = np.arange(64)
        values = np.sin(2 * np.pi * t / 8)
        imf = TimeSeries(values)
        cfg = PredictorConfig(kind="GRNN", grnn_sigma=1e-3, seed=5)
        preds, _ = _run_one(_high_steps(imf, GroupingConfig(segment_length=8, group_size=1),
                                        cfg, horizon=1))
        # reference window (offset 57) repeats at offset 49; its successor is
        # the value at 1-based position 57
        assert preds[0] == pytest.approx(values[56], abs=1e-9)

    @pytest.mark.parametrize("horizon", [2, 3])  # the nan at the last step, or before it
    def test_non_finite_prediction_is_data_error(self, horizon, monkeypatch):
        real = pipeline.predict
        calls = []

        def nan_at_step_two(model, x):
            calls.append(x)
            return float("nan") if len(calls) == 2 else real(model, x)

        monkeypatch.setattr(pipeline, "predict", nan_at_step_two)
        spec = small_spec("EMD_DTW_NN", horizon=horizon)
        with pytest.raises(PipelineError) as info:
            run_framework(wiggly_series(), spec)
        assert str(info.value) == "component 1 (imf_1): series contains NaN or infinite values"
        assert len(calls) == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            _run_one(_high_steps(TimeSeries(np.arange(10.0)), GroupingConfig(segment_length=8),
                                 PredictorConfig(), horizon=1))


def small_spec(variant, **kwargs):
    defaults = dict(
        variant=variant,
        predictor=PredictorConfig(kind="BPNN", epochs=40, seed=3),
        grouping=GroupingConfig(segment_length=6, group_size=8),
        eemd=EemdConfig(ensemble_size=4, noise_amplitude=0.2, seed=17),
        horizon=4,
    )
    defaults.update(kwargs)
    return FrameworkSpec(**defaults)


def wiggly_series(length=72):
    t = np.arange(length)
    return TimeSeries(
        0.05 * t + np.sin(2 * np.pi * t / 6) + 2 * np.sin(2 * np.pi * t / 24)
    )


class TestRunFramework:
    def test_monotone_ramp_degenerates(self):
        series = TimeSeries(np.arange(1.0, 31.0))
        result = run_framework(series, small_spec("EMD_DTW_NN"))
        assert result.metadata["split"] == [0, 1]
        assert [name for name, _ in result.per_component] == ["residual"]

    def test_combined_is_exact_ordered_sum(self):
        series = wiggly_series()
        for variant in ("NN", "EMD_NN", "EMD_DTW_NN", "EEMD_DTW_NN"):
            result = run_framework(series, small_spec(variant))
            total = np.zeros_like(result.combined)
            for _, values in result.per_component:
                total = total + values
            assert np.array_equal(total, result.combined)
            assert len(result.combined) == 4  # horizon contract

    def test_degenerate_chain_bit_identical(self):
        series = wiggly_series()
        plain = run_framework(series, small_spec("EMD_DTW_NN"))
        degenerate = run_framework(
            series,
            small_spec("EEMD_DTW_NN",
                       eemd=EemdConfig(ensemble_size=1, noise_amplitude=0.0, seed=3)),
        )
        assert np.array_equal(plain.combined, degenerate.combined)
        for (na, va), (nb, vb) in zip(plain.per_component, degenerate.per_component):
            assert na == nb
            assert np.array_equal(va, vb)

    def test_deterministic_and_parallel_safe(self):
        series = wiggly_series()
        spec = small_spec("EEMD_DTW_NN")
        a = run_framework(series, spec)
        b = run_framework(series, spec)
        assert np.array_equal(a.combined, b.combined)

    def test_seed_override_changes_result(self):
        series = wiggly_series()
        spec = small_spec("EMD_NN")
        a = run_framework(series, spec, seed=1)
        b = run_framework(series, spec, seed=2)
        assert not np.array_equal(a.combined, b.combined)

    def test_component_errors_are_annotated(self):
        # 12 points cannot support segment_length 8 in the grouped stage
        t = np.arange(12)
        series = TimeSeries(np.sin(2 * np.pi * t / 4) + 0.01 * t)
        spec = small_spec("EMD_DTW_NN",
                          grouping=GroupingConfig(segment_length=8), horizon=2)
        with pytest.raises(PipelineError, match=r"component \d+ \(imf_1\)"):
            run_framework(series, spec)

    @pytest.mark.filterwarnings("error")
    def test_components_summing_past_float_max_fail(self):
        # every component forecast is finite; the IMF's and the residual's sum is not
        t = np.arange(31)
        amp = 0.2861298349712619 * 1.79e308
        x = np.minimum(1.797e308 - amp + amp * np.sin(2 * np.pi * t / 3.865 + 5.692), 1.797e308)
        spec = FrameworkSpec(variant="EMD_NN", predictor=PredictorConfig(kind="GRNN"),
                             grouping=GroupingConfig(segment_length=4), horizon=3)
        with pytest.raises(PipelineError, match="^the component forecasts sum beyond the float"):
            run_framework(TimeSeries(x), spec)

    def test_bad_explicit_split_mentions_constraint(self):
        series = wiggly_series()
        spec = small_spec("EMD_DTW_NN", split=(5, 5))
        with pytest.raises(ValueError, match=r"P\+Q=N\+1"):
            run_framework(series, spec)

    def test_group_trace_collects_high_components(self):
        series = wiggly_series()
        result = run_framework(series, small_spec("EMD_DTW_NN"))
        trace = result.group_records()
        p = result.metadata["split"][0]
        assert len(trace) == p
        for name, steps in trace.items():
            assert len(steps) == 4
            assert all("candidates" in s for s in steps)

    @pytest.mark.parametrize("fast_fails", [True, False])
    def test_lowest_failing_component_wins_over_an_earlier_failure(self, fast_fails,
                                                                   monkeypatch):
        """The slow components (imf_2, residual) fail when their sessions
        start, which the lockstep order reaches before the fast imf_1's
        second step. The error is still the one a sequential run meets
        first."""
        real = pipeline.predict
        calls = []

        def nan_at_step_two(model, x):
            calls.append(x)
            return float("nan") if fast_fails and len(calls) == 2 else real(model, x)

        class BrokenSession(pipeline.ForecastSession):
            def step(self, x):
                raise ValueError("session broke")

        monkeypatch.setattr(pipeline, "predict", nan_at_step_two)
        monkeypatch.setattr(pipeline, "ForecastSession", BrokenSession)
        with pytest.raises(PipelineError) as info:
            run_framework(wiggly_series(), small_spec("EMD_DTW_NN"))
        if fast_fails:
            assert str(info.value) == "component 1 (imf_1): series contains NaN or infinite values"
            assert isinstance(info.value.__cause__, DataError)
        else:
            assert str(info.value) == "component 2 (imf_2): session broke"
            assert isinstance(info.value.__cause__, ValueError)


    def test_emd_and_eemd_cells_match_their_runs_alone(self):
        """EMD_NN and EMD_DTW_NN cells with one sift config, one with
        another sift config and an EEMD cell, run in one call: each cell
        matches its run alone."""
        series = wiggly_series()
        cells = [(small_spec("EMD_NN"), 1), (small_spec("EMD_DTW_NN"), 2),
                 (small_spec("EMD_DTW_NN"), 3), (small_spec("EEMD_DTW_NN"), 4),
                 (small_spec("EMD_NN", sift=SiftConfig(max_imfs=1)), 5)]
        alone = [run_framework(series, spec, seed=seed) for spec, seed in cells]
        batched = pipeline.run_frameworks(series, cells)
        for a, b in zip(alone, batched):
            assert a.to_dict() == b.to_dict()


class TestPowerOfTwoEquivariance:
    """Scaling a series by 2^k scales every forecast by 2^k, bit for bit:
    min-max scaling, EMD/EEMD and the EEMD noise scale, DTW ranking and the
    inverse scaling are all exact under a power of two."""

    CELLS = [(small_spec(variant, predictor=PredictorConfig(kind=kind, epochs=60, seed=3),
                         eemd=EemdConfig(ensemble_size=8, seed=3)), 3)
             for variant in VARIANTS for kind in KINDS]

    @settings(deadline=None, max_examples=8)
    @given(series_values(min_length=48, max_length=72), st.integers(-300, 300))
    def test_every_variant_and_kind(self, series, k):
        # the drawn series stay below 2^4 in magnitude, so 2^k x stays
        # well inside the normal range
        scaled = TimeSeries(np.ldexp(series.values, k))
        for plain, big in zip(run_frameworks(series, self.CELLS),
                              run_frameworks(scaled, self.CELLS)):
            assert [name for name, _ in big.per_component] == [
                name for name, _ in plain.per_component]
            for (_, a), (_, b) in zip(plain.per_component, big.per_component):
                assert np.ldexp(a, k).tobytes() == b.tobytes()
            assert np.ldexp(plain.combined, k).tobytes() == big.combined.tobytes()


class TestForecastResult:
    def test_combined_is_the_read_only_ordered_sum(self):
        """``combined`` is derived, not given: ``0.0 + c1 + c2 + ...`` in
        component order, bit for bit (the order matters: 1e16 + 1 + 1 and
        1 + 1 + 1e16 round differently), read-only; a sum beyond the float
        range and an empty component list are rejected."""
        parts = (("a", [1e16, -0.0]), ("b", [1.0, -0.0]), ("c", [1.0, -0.0]))
        result = ForecastResult(parts, {"horizon": 2})
        assert result.combined.tobytes() == np.array([1e16 + 1.0 + 1.0, 0.0]).tobytes()
        assert result.combined.tobytes() != np.array([1.0 + 1.0 + 1e16, 0.0]).tobytes()
        assert not result.combined.flags.writeable
        with pytest.raises(PipelineError, match="sum beyond the float range"):
            ForecastResult((("a", [1e308]), ("b", [1e308])), {})
        with pytest.raises(ValueError, match="at least one component"):
            ForecastResult((), {})

    def test_components_are_read_only_copies(self):
        """Each per-component array is the result's own read-only copy, so
        ``combined`` stays their sum; the caller's array stays writeable."""
        a, b = np.array([1.0, 2.0]), np.array([0.5, 0.25])
        result = ForecastResult((("a", a), ("b", b)), {})
        for (_, kept), given in zip(result.per_component, (a, b)):
            assert kept is not given and np.array_equal(kept, given)
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1e9
        a[0] = 1e9
        assert a.flags.writeable and a[0] == 1e9
        assert result.combined.tolist() == [1.5, 2.25]
        assert (result.per_component[0][1] + result.per_component[1][1]).tolist() == [1.5, 2.25]
