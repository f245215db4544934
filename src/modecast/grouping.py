"""Overlapping windows of a component and DTW-based similarity grouping.

The windows of a length-T component are the rows of one
``sliding_window_view(values, L)``; row i is the window at 1-based offset
i + 1. The trailing row is the reference. The first T - L rows, the windows
whose successor value exists, are ranked by DTW distance to it, and a
prefix of that ranking supplies (window -> next value) training pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DataError, TimeSeries, check_integers, check_positive, frozen_copy, pow2_exponent
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
        check_positive(dtw_weight=self.dtw_weight)
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}")
        check_positive(threshold_alpha=self.threshold_alpha)


@dataclass(frozen=True)
class TrainingSet:
    """Finite supervised (window -> next value) pairs and where each came from.

    ``offsets`` holds the 1-based source offset of each pair's window; every
    target equals the parent value at offset + window length.
    """

    inputs: np.ndarray
    targets: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        # contiguous rows: matmul on a strided window view skips BLAS and
        # sums in another order
        inputs, targets = frozen_copy(self.inputs), frozen_copy(self.targets)
        if inputs.ndim != 2 or targets.ndim != 1 or inputs.shape[0] != targets.size:
            raise ValueError("inputs must be (n, L) with n matching targets")
        if targets.size < 1:
            raise ValueError("training set must contain at least one pair")
        offsets = _offsets(self.offsets)
        if offsets.shape != targets.shape:
            raise ValueError(f"offsets must be 1-D with one entry per pair ({targets.size})")
        if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
            raise DataError("training pairs contain NaN or infinite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "offsets", offsets)

    @property
    def size(self) -> int:
        return int(self.targets.size)

    @property
    def input_length(self) -> int:
        return int(self.inputs.shape[1])


def _offsets(offsets) -> np.ndarray:
    """A read-only int64 copy of ``offsets``; a float or bool one raises, as
    :func:`check_integers` treats them (an empty list holds none)."""
    offsets = np.asarray(offsets)
    if offsets.size and offsets.dtype.kind not in "iu":
        raise ValueError(f"offsets must be integers, got dtype {offsets.dtype}")
    return frozen_copy(offsets, np.int64)


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
    distances = np.asarray(distances)
    if distances.ndim != 1 or not distances.size:
        raise ValueError(f"distances must be a non-empty 1-D ranking, got shape {distances.shape}")
    if cfg.selection == "topk":
        return min(cfg.group_size, len(distances))
    with np.errstate(over="ignore"):  # a median or bound beyond the float range is +inf
        kept = np.count_nonzero(distances <= cfg.threshold_alpha * np.median(distances))
    return max(int(kept), 1)


def build_training_set(values, offsets, length: int) -> TrainingSet:
    """(window -> successor value) pairs of the windows at ``offsets``.

    Pair k takes the length-``length`` window at 1-based offset offsets[k]
    as input and the value at position offsets[k] + length as target.
    """
    check_integers(1, length=length)
    values = np.asarray(values, dtype=np.float64)
    offsets = _offsets(offsets)
    starts = offsets - 1
    if starts.size and (starts.min() < 0 or starts.max() + length >= values.size):
        raise ValueError(f"offsets must lie in 1 .. {values.size - length}")
    inputs = sliding_window_view(values, length)[starts]
    return TrainingSet(inputs=inputs, targets=values[starts + length], offsets=offsets)


def sliding_window_set(series: TimeSeries, window: int) -> TrainingSet:
    """All (window -> next value) pairs of a series, in time order."""
    check_integers(1, window=window)
    t = len(series)
    if t <= window:
        raise ValueError(f"series length {t} must exceed window {window}")
    return build_training_set(series.values, np.arange(1, t - window + 1), window)
