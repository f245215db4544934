"""Overlapping segmentation of a component and DTW-based similarity grouping.

The trailing length-L window of a component is the reference; all other
windows whose successor value exists are ranked by DTW distance to it, and
the closest ones supply (window -> next value) training pairs. Offsets are
1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries
# dtw_distance stays bound here as the per-pair reference of dtw_distances;
# perfbench's tracer wraps it at this binding
from .dtw import dtw_distance, dtw_distances  # noqa: F401

SELECTION_MODES = ("topk", "threshold")


@dataclass(frozen=True)
class Segment:
    """Contiguous window of a parent component.

    ``source_offset`` is the 1-based start index in the parent, so the
    window covers parent positions source_offset .. source_offset+L-1.
    """

    source_offset: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def length(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class GroupingConfig:
    """Similarity-grouping controls.

    ``group_size`` is the number of most-similar segments retained under
    ``selection="topk"``; ``selection="threshold"`` instead keeps candidates
    with distance <= threshold_alpha * median distance (never fewer than
    one). ``znormalize`` standardizes each segment before comparison.
    """

    segment_length: int = 4
    group_size: int = 10
    dtw_weight: float = 1.0
    znormalize: bool = False
    selection: str = "topk"
    threshold_alpha: float = 1.0

    def __post_init__(self):
        if self.segment_length < 2:
            raise ValueError("segment_length must be >= 2")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.dtw_weight <= 0:
            raise ValueError("dtw_weight must be positive")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")
        if self.threshold_alpha <= 0:
            raise ValueError("threshold_alpha must be positive")


@dataclass(frozen=True)
class TrainingSet:
    """Supervised (window -> next value) pairs with per-pair provenance.

    ``provenance`` holds one (source_offset, dtw_distance) tuple per pair;
    every target equals the parent value at source_offset + window length.
    """

    inputs: np.ndarray
    targets: np.ndarray
    provenance: tuple

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 1 or inputs.shape[0] != targets.size:
            raise ValueError("inputs must be (n, L) with n matching targets")
        if targets.size < 1:
            raise ValueError("training set must contain at least one pair")
        inputs.flags.writeable = False
        targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def size(self) -> int:
        return int(self.targets.size)

    @property
    def input_length(self) -> int:
        return int(self.inputs.shape[1])


def segmentize(imf: TimeSeries, segment_length: int) -> list:
    """All maximally overlapping windows of a component.

    Returns exactly T - L + 1 segments with offsets 1 .. T-L+1, stride 1.
    """
    t = len(imf)
    if not 2 <= segment_length <= t:
        raise ValueError(f"segment length must be in [2, {t}], got {segment_length}")
    values = imf.values
    return [
        Segment(source_offset=i + 1, values=values[i : i + segment_length])
        for i in range(t - segment_length + 1)
    ]


def _comparison_values(values: np.ndarray, znormalize: bool) -> np.ndarray:
    """Values as compared: standardized along the last axis when
    ``znormalize`` is set, with a constant window mapping to zeros."""
    if not znormalize:
        return values
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    flat = std == 0
    return np.where(flat, 0.0, (values - mean) / np.where(flat, 1.0, std))


def rank_by_similarity(segments, reference: Segment, cfg: GroupingConfig, parent_length: int = None) -> list:
    """Rank candidate segments by DTW distance to the reference window.

    Only candidates whose successor value exists in the parent
    (source_offset + L <= parent length) are eligible; the reference itself
    is excluded. Ties resolve toward the larger (more recent) offset. All
    eligible windows are scored in one :func:`dtw_distances` call, with
    results bit-identical to :func:`dtw_distance` per candidate.

    Returns
    -------
    list of (Segment, float)
        Ascending by distance; every eligible candidate appears.
    """
    length = reference.length
    if parent_length is None:
        parent_length = max(s.source_offset + s.length - 1 for s in segments)
    offsets = np.array([s.source_offset for s in segments], dtype=np.int64)
    # a candidate needs a successor value to learn from
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
    """Apply the configured selection rule to a ranked candidate list."""
    if cfg.selection == "topk":
        return ranked[: cfg.group_size]
    median = float(np.median([d for _, d in ranked]))
    kept = [(s, d) for s, d in ranked if d <= cfg.threshold_alpha * median]
    return kept if kept else ranked[:1]


def build_training_set(ranked, k: int, imf: TimeSeries) -> TrainingSet:
    """Assemble (window -> successor value) pairs from the top-k candidates.

    Each selected segment contributes its values as the input and the parent
    value at source_offset + L as the target; k clamps to the available
    candidate count.
    """
    if k < 1:
        raise ValueError("group size must be >= 1")
    if not ranked:
        raise ValueError("ranked candidate list is empty")
    chosen = ranked[: min(k, len(ranked))]
    length = chosen[0][0].length
    inputs = np.stack([seg.values for seg, _ in chosen])
    # target at 1-based parent position offset+L
    targets = np.array([imf.values[seg.source_offset + length - 1] for seg, _ in chosen])
    provenance = tuple((seg.source_offset, dist) for seg, dist in chosen)
    return TrainingSet(inputs=inputs, targets=targets, provenance=provenance)


def sliding_window_set(series: TimeSeries, window: int) -> TrainingSet:
    """All (window -> next value) pairs of a series, in time order."""
    t = len(series)
    if t <= window:
        raise ValueError(f"series length {t} must exceed window {window}")
    values = series.values
    inputs = np.stack([values[i : i + window] for i in range(t - window)])
    targets = values[window:]
    provenance = tuple((i + 1, 0.0) for i in range(t - window))
    return TrainingSet(inputs=inputs, targets=targets, provenance=provenance)
