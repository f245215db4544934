"""The one-loop framework runner against the frozen per-variant runner in
``legacy_pipeline``: component names and bytes, the combined forecast,
metadata, the group trace, and any exception's type and message must be
bit-identical."""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import legacy_pipeline as legacy
from modecast.core import TimeSeries
from modecast.decomposition import EemdConfig, emd, eemd
from modecast.grouping import GroupingConfig
from modecast.pipeline import VARIANTS, FrameworkSpec, run_framework
from modecast.predictors import KINDS, PredictorConfig


@st.composite
def framework_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # short series against long windows make too-short components
    length = draw(st.integers(6, 48))
    t = np.arange(length)
    values = (rng.uniform(-0.1, 0.1) * t + np.sin(2 * np.pi * t / rng.uniform(2.5, 6))
              + 2 * np.sin(2 * np.pi * t / rng.uniform(8, 24)))
    series = TimeSeries(values + rng.normal(0, draw(st.sampled_from([0, 0.3])), length))
    spec = FrameworkSpec(
        variant=draw(st.sampled_from(VARIANTS)),
        predictor=PredictorConfig(
            kind=draw(st.sampled_from(KINDS)),
            hidden_units=draw(st.integers(1, 4)),
            learning_rate=draw(st.sampled_from([0.05, 0.5, 1e300])),  # 1e300 diverges
            epochs=draw(st.integers(1, 12)),
            grnn_sigma=draw(st.sampled_from([0.1, 0.02])),
            seed=draw(st.integers(0, 2**16)),
        ),
        eemd=EemdConfig(ensemble_size=draw(st.integers(1, 3)),
                        noise_amplitude=draw(st.sampled_from([0.0, 0.2])),
                        seed=draw(st.integers(0, 2**16))),
        grouping=GroupingConfig(
            segment_length=draw(st.integers(2, 10)),
            group_size=draw(st.integers(1, 12)),
            znormalize=draw(st.booleans()),
            selection=draw(st.sampled_from(["topk", "threshold"])),
        ),
        horizon=draw(st.integers(1, 3)),
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
    return series, spec, seed, draw(st.booleans())


def outcome(run, series, spec, seed, traced):
    """Everything a run exposes, as comparable values; an exception becomes
    its type, message and cause type. The group trace goes through JSON, so
    floats compare by their round-trip repr (signed zeros included)."""
    trace = {} if traced else None
    try:
        result = run(series, spec, seed=seed, group_trace=trace)
    except Exception as exc:
        raised = (type(exc), str(exc), type(exc.__cause__))
        return raised, json.dumps(trace)
    meta = {k: v for k, v in result.metadata.items() if k != "elapsed_seconds"}
    parts = [(name, v.dtype.str, v.shape, v.tobytes()) for name, v in result.per_component]
    combined = (result.combined.dtype.str, result.combined.shape, result.combined.tobytes())
    return (parts, combined, json.dumps(meta), list(result.metadata)), json.dumps(trace)


class TestPipelineOracle:
    @settings(deadline=None, max_examples=150)
    @given(framework_cases())
    def test_run_framework_matches_branches(self, case):
        assert outcome(run_framework, *case) == outcome(legacy.run_framework, *case)
