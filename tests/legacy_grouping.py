"""The grouping layer as it was before windows became rows of one
``sliding_window_view``, frozen as a test oracle: one frozen ``Segment``
object per window, a ``[(Segment, distance)]`` ranking against any
reference segment, selection and training-set assembly over that list.
``tests/test_grouping_oracle.py`` checks that ``modecast.grouping``
reproduces it bit for bit. Do not edit it to make that test pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modecast.core import TimeSeries
from modecast.dtw import dtw_distances
from modecast.grouping import GroupingConfig, TrainingSet


@dataclass(frozen=True)
class Segment:
    """Contiguous window of a parent component; ``source_offset`` is the
    1-based start index in the parent."""

    source_offset: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.size)


def segmentize(imf: TimeSeries, segment_length: int) -> list:
    t = len(imf)
    if not 2 <= segment_length <= t:
        raise ValueError(f"segment length must be in [2, {t}], got {segment_length}")
    values = imf.values
    return [
        Segment(source_offset=i + 1, values=values[i : i + segment_length])
        for i in range(t - segment_length + 1)
    ]


def _comparison_values(values: np.ndarray, znormalize: bool) -> np.ndarray:
    if not znormalize:
        return values
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    flat = std == 0
    return np.where(flat, 0.0, (values - mean) / np.where(flat, 1.0, std))


def rank_by_similarity(segments, reference: Segment, cfg: GroupingConfig,
                       parent_length: int = None) -> list:
    length = reference.length
    if parent_length is None:
        parent_length = max(s.source_offset + s.length - 1 for s in segments)
    offsets = np.array([s.source_offset for s in segments], dtype=np.int64)
    eligible = (offsets != reference.source_offset) & (offsets + length <= parent_length)
    if not eligible.any():
        raise ValueError(
            f"no eligible candidate segments (parent length {parent_length}, window {length})"
        )
    candidates = [seg for seg, keep in zip(segments, eligible) if keep]
    windows = np.stack([seg.values for seg in candidates])
    distances = dtw_distances(
        _comparison_values(windows, cfg.znormalize),
        _comparison_values(reference.values, cfg.znormalize),
        weight=cfg.dtw_weight,
    )
    order = np.lexsort((-offsets[eligible], distances))
    return [(candidates[k], float(distances[k])) for k in order]


def select_group(ranked, cfg: GroupingConfig) -> list:
    if cfg.selection == "topk":
        return ranked[: cfg.group_size]
    median = float(np.median([d for _, d in ranked]))
    kept = [(s, d) for s, d in ranked if d <= cfg.threshold_alpha * median]
    return kept if kept else ranked[:1]


def build_training_set(ranked, k: int, imf: TimeSeries) -> TrainingSet:
    if k < 1:
        raise ValueError("group size must be >= 1")
    if not ranked:
        raise ValueError("ranked candidate list is empty")
    chosen = ranked[: min(k, len(ranked))]
    length = chosen[0][0].length
    inputs = np.stack([seg.values for seg, _ in chosen])
    targets = np.array([imf.values[seg.source_offset + length - 1] for seg, _ in chosen])
    offsets = [seg.source_offset for seg, _ in chosen]
    return TrainingSet(inputs=inputs, targets=targets, offsets=offsets)


def sliding_window_set(series: TimeSeries, window: int) -> TrainingSet:
    t = len(series)
    if t <= window:
        raise ValueError(f"series length {t} must exceed window {window}")
    values = series.values
    inputs = np.stack([values[i : i + window] for i in range(t - window)])
    targets = values[window:]
    offsets = [i + 1 for i in range(t - window)]
    return TrainingSet(inputs=inputs, targets=targets, offsets=offsets)


def forecast_step(values, cfg: GroupingConfig) -> tuple:
    """One grouped forecast step as the old ``forecast_high`` ran it:
    (ranked, selected, training set, reference)."""
    extended = TimeSeries(values)
    segments = segmentize(extended, cfg.segment_length)
    reference = segments[-1]
    ranked = rank_by_similarity(segments, reference, cfg, parent_length=len(extended))
    selected = select_group(ranked, cfg)
    return ranked, selected, build_training_set(selected, len(selected), extended), reference
