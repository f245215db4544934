"""Overlapping windows of a component and DTW-based similarity grouping.

The windows of a length-T component are the rows of one
``sliding_window_view(values, L)``; row i is the window at 1-based offset
i + 1. The trailing row is the reference. The first T - L rows, the windows
whose successor value exists, are ranked by DTW distance to it, and a
prefix of that ranking supplies (window -> next value) training pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import TimeSeries, check_integers, frozen_copy, pow2_exponent
# dtw_distance is unused here, but perfbench's tracer self-test expects a
# wrapper at this binding
from .dtw import _checked, _distances, dtw_distance, dtw_distances  # noqa: F401

SELECTION_MODES = ("topk", "threshold")


@dataclass(frozen=True)
class GroupingConfig:
    """Similarity-grouping controls.

    ``group_size`` is the number of most-similar windows retained under
    ``selection="topk"``; ``selection="threshold"`` instead keeps candidates
    with distance <= threshold_alpha * median distance (never fewer than
    one). ``znormalize`` standardizes each window before comparison.
    """

    segment_length: int = 4
    group_size: int = 10
    dtw_weight: float = 1.0
    znormalize: bool = False
    selection: str = "topk"
    threshold_alpha: float = 1.0

    def __post_init__(self):
        check_integers(2, segment_length=self.segment_length)
        check_integers(1, group_size=self.group_size)
        if not (math.isfinite(self.dtw_weight) and self.dtw_weight > 0):
            raise ValueError("dtw_weight must be positive and finite")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")
        if not (math.isfinite(self.threshold_alpha) and self.threshold_alpha > 0):
            raise ValueError("threshold_alpha must be positive and finite")


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
        # contiguous rows: matmul on a strided window view skips BLAS and
        # sums in another order
        inputs, targets = frozen_copy(self.inputs), frozen_copy(self.targets)
        if inputs.ndim != 2 or targets.ndim != 1 or inputs.shape[0] != targets.size:
            raise ValueError("inputs must be (n, L) with n matching targets")
        if targets.size < 1:
            raise ValueError("training set must contain at least one pair")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def size(self) -> int:
        return int(self.targets.size)

    @property
    def input_length(self) -> int:
        return int(self.inputs.shape[1])


def _zscores(values: np.ndarray) -> np.ndarray:
    """Values standardized along the last axis, with a constant window
    mapping to zeros. Each window is first scaled by an exact power of two
    (:func:`pow2_exponent`), so its mean and std cannot overflow."""
    values = np.ldexp(values, -pow2_exponent(values, axis=-1))
    mean = values.mean(axis=-1, keepdims=True)
    std = values.std(axis=-1, keepdims=True)
    flat = std == 0
    return np.where(flat, 0.0, (values - mean) / np.where(flat, 1.0, std))


def rank_by_similarity(values, cfg: GroupingConfig) -> tuple:
    """Rank every candidate window by DTW distance to the trailing window.

    The candidates are the first T - L rows of the window view, the windows
    whose successor value exists, with distances bit-identical to
    :func:`dtw_distance` per candidate. Without ``znormalize`` they are
    slices of the series, so their local costs come from one (L, T) table
    over it, in O(T*L + n*L) memory; z-normalized windows are rows that
    :func:`dtw_distances` scores. A series that is not 1-D and finite
    raises.

    Returns
    -------
    (offsets, distances) : (ndarray of int64, ndarray of float64)
        1-based candidate offsets and their distances, ascending by
        distance; ties resolve toward the larger (more recent) offset.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size - cfg.segment_length
    if n < 1:
        raise ValueError(
            f"no eligible candidate windows (series length {values.size}, "
            f"window {cfg.segment_length})"
        )
    values, reference = _checked(values, values[n:], ndim=1)
    if cfg.znormalize:
        windows = sliding_window_view(values, cfg.segment_length)
        distances = dtw_distances(_zscores(windows[:n]), _zscores(reference),
                                  weight=cfg.dtw_weight)
    else:
        distances = _distances(values[:-1], cfg.segment_length, reference, cfg.dtw_weight)
    offsets = np.arange(1, n + 1, dtype=np.int64)
    order = np.lexsort((-offsets, distances))
    return offsets[order], distances[order]


def select_group(distances, cfg: GroupingConfig) -> int:
    """Size k of the selected group, a prefix of the ascending ranking.

    ``topk`` keeps ``group_size`` windows (or all, if fewer);
    ``threshold`` keeps those with distance <= threshold_alpha * median,
    and never fewer than one.
    """
    if cfg.selection == "topk":
        return min(cfg.group_size, len(distances))
    with np.errstate(over="ignore"):  # a median or bound beyond the float range is +inf
        kept = np.count_nonzero(distances <= cfg.threshold_alpha * np.median(distances))
    return max(int(kept), 1)


def build_training_set(values, offsets, distances, length: int) -> TrainingSet:
    """(window -> successor value) pairs of the windows at ``offsets``.

    Pair k takes the length-``length`` window at 1-based offset offsets[k]
    as input and the value at position offsets[k] + length as target; its
    provenance is (offsets[k], distances[k]).
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    starts = offsets - 1
    if starts.size and (starts.min() < 0 or starts.max() + length >= values.size):
        raise ValueError(f"offsets must lie in 1 .. {values.size - length}")
    inputs = sliding_window_view(values, length)[starts]
    provenance = zip(offsets.tolist(), np.asarray(distances, dtype=np.float64).tolist(),
                     strict=True)
    return TrainingSet(inputs=inputs, targets=values[starts + length], provenance=provenance)


def sliding_window_set(series: TimeSeries, window: int) -> TrainingSet:
    """All (window -> next value) pairs of a series, in time order."""
    t = len(series)
    if t <= window:
        raise ValueError(f"series length {t} must exceed window {window}")
    values = series.values
    return TrainingSet(
        inputs=sliding_window_view(values, window)[:-1],
        targets=values[window:],
        provenance=zip(range(1, t - window + 1), itertools.repeat(0.0)),
    )
