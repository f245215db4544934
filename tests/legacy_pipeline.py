"""The framework runner as it was before the variants became data, frozen as
a test oracle: one branch per variant (NN, EMD_NN, the DTW pair), the
per-component error annotation in ``_forecast_component`` for the direct
forecasts and an inline try/except for the grouped ones, and the recursive
per-component forecasts ``forecast_low`` and ``forecast_high`` with one
``train`` call per model. ``tests/test_pipeline_oracle.py`` checks that
``modecast.pipeline`` reproduces it bit for bit. Do not edit it to make that
test pass.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from modecast.core import DataError, TimeSeries, derive_seed, minmax_normalize
from modecast.decomposition import emd, eemd
from modecast.grouping import (
    GroupingConfig,
    build_training_set,
    rank_by_similarity,
    select_group,
    sliding_window_set,
)
from modecast.pipeline import (
    ForecastResult,
    FrameworkSpec,
    PipelineError,
    split_components,
)
from modecast.predictors import ForecastSession, PredictorConfig, predict, train


def forecast_low(component: TimeSeries, cfg: PredictorConfig, window: int,
                 horizon: int) -> np.ndarray:
    if len(component) <= window:
        raise ValueError(
            f"component length {len(component)} must exceed window {window}"
        )
    normalized, scale = minmax_normalize(component)
    training_set = sliding_window_set(normalized, window)
    model = train(training_set, cfg, scale=scale)
    session = ForecastSession(model)
    t = len(component)
    buf = np.empty(t + horizon)
    buf[:t] = normalized.values
    for end in range(t, t + horizon):
        buf[end] = session.step(buf[end - window : end])
    return scale.inverse(buf[t:])


def forecast_high(component: TimeSeries, grouping: GroupingConfig,
                  cfg: PredictorConfig, horizon: int,
                  trace: Optional[list] = None) -> np.ndarray:
    length = grouping.segment_length
    if len(component) < 2 * length:
        raise ValueError(
            f"component length {len(component)} must be >= twice the segment "
            f"length ({2 * length})"
        )
    normalized, scale = minmax_normalize(component)
    t = len(component)
    buf = np.empty(t + horizon)
    buf[:t] = normalized.values
    for step in range(horizon):
        extended = buf[: t + step]
        offsets, distances = rank_by_similarity(extended, grouping)
        k = select_group(distances, grouping)
        training_set = build_training_set(extended, offsets[:k], distances[:k], length)
        step_cfg = replace(cfg, seed=derive_seed(cfg.seed, step))
        model = train(training_set, step_cfg, scale=scale)
        reference = extended[-length:]
        value = predict(model, reference)
        if not np.isfinite(value):
            raise DataError("series contains NaN or infinite values")
        if trace is not None:
            trace.append({
                "step": step + 1,
                "reference_offset": t + step - length + 1,
                "reference": reference.tolist(),
                "candidates": [
                    {"offset": offset, "distance": dist}
                    for offset, dist in zip(offsets.tolist(), distances.tolist())
                ],
                "selected_offsets": offsets[:k].tolist(),
                "prediction": float(value),
            })
        buf[t + step] = value
    return scale.inverse(buf[t:])


def _component_names(n_imfs: int) -> list:
    return [f"imf_{i + 1}" for i in range(n_imfs)] + ["residual"]


def run_framework(series: TimeSeries, spec: FrameworkSpec, *,
                  seed: Optional[int] = None,
                  group_trace: Optional[dict] = None) -> ForecastResult:
    started = time.perf_counter()
    pred_cfg = spec.predictor if seed is None else replace(spec.predictor, seed=seed)
    eemd_cfg = spec.eemd if seed is None else replace(spec.eemd, seed=seed)
    eemd_cfg = replace(eemd_cfg, sift=spec.sift)
    root = pred_cfg.seed
    window = spec.grouping.segment_length
    horizon = spec.horizon

    split_meta = None
    if spec.variant == "NN":
        parts = [("series", _forecast_component(
            series, "series", 0, forecast_low, pred_cfg, root, window, horizon))]
        n_imfs = None
    else:
        if spec.variant == "EEMD_DTW_NN":
            decomp = eemd(series, eemd_cfg)
        else:
            decomp = emd(series, spec.sift)
        names = _component_names(decomp.n_imfs)
        n_imfs = decomp.n_imfs
        if spec.variant == "EMD_NN":
            comps = decomp.components()
            parts = [
                (name, _forecast_component(
                    comp, name, idx, forecast_low, pred_cfg, root, window, horizon))
                for idx, (name, comp) in enumerate(zip(names, comps))
            ]
        else:
            fsplit = split_components(decomp, spec.split)
            split_meta = [fsplit.p_count, fsplit.q_count]
            parts = []
            for idx, comp in enumerate(fsplit.high):
                name = names[idx]
                trace = [] if group_trace is not None else None
                comp_cfg = replace(pred_cfg, seed=derive_seed(root, idx))
                try:
                    values = forecast_high(comp, spec.grouping, comp_cfg, horizon,
                                           trace=trace)
                except PipelineError:
                    raise
                except Exception as exc:
                    raise PipelineError(f"component {idx + 1} ({name}): {exc}") from exc
                if group_trace is not None:
                    group_trace[name] = trace
                parts.append((name, values))
            for offset, comp in enumerate(fsplit.low):
                idx = fsplit.p_count + offset
                name = names[idx]
                parts.append((name, _forecast_component(
                    comp, name, idx, forecast_low, pred_cfg, root, window, horizon)))

    combined = np.zeros(horizon)
    for _, values in parts:
        combined = combined + values

    metadata = {
        "variant": spec.variant,
        "root_seed": int(root),
        "split": split_meta,
        "horizon": horizon,
        "n_imfs": n_imfs,
        "elapsed_seconds": time.perf_counter() - started,
    }
    return ForecastResult(combined=combined, per_component=tuple(parts), metadata=metadata)


def _forecast_component(component, name, idx, fn, pred_cfg, root, window, horizon):
    comp_cfg = replace(pred_cfg, seed=derive_seed(root, idx))
    try:
        return fn(component, comp_cfg, window, horizon)
    except Exception as exc:
        raise PipelineError(f"component {idx + 1} ({name}): {exc}") from exc
