"""The window-view grouping layer against the frozen per-``Segment`` layer in
``legacy_grouping``: offsets, distances, group sizes, training-set bytes
and offsets must be bit-identical. Without ``znormalize`` the ranking
reads its local costs from one table over the series, while the frozen
layer scores stacked rows with ``dtw_distances``. Under ``znormalize`` a
window beyond 2**+-500 is compared after an exact power-of-two scaling,
which leaves its z-scores unchanged in exact arithmetic; the legacy layer
overflowed to nan (or underflowed to a zero std) there, so it is given the
scaled window."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import legacy_grouping as legacy
from modecast.core import TimeSeries
from modecast.grouping import (
    GroupingConfig,
    build_training_set,
    rank_by_similarity,
    select_group,
    sliding_window_set,
)


@st.composite
def grouping_cases(draw):
    # plateaus tie distances and make constant windows; +-1e308 overflows
    # point distances to inf, so infinite distances tie too
    runs = draw(st.lists(
        st.tuples(st.floats(-1e3, 1e3, allow_nan=False)
                  | st.sampled_from([0.0, 1.0, 1e308, -1e308]),
                  st.integers(1, 8)),
        min_size=2, max_size=30))
    values = np.repeat([v for v, _ in runs], [k for _, k in runs])
    length = draw(st.integers(2, max(2, min(29, values.size - 1))))
    if values.size <= length:
        values = np.concatenate([values, np.arange(float(length + 1 - values.size))])
    cfg = GroupingConfig(
        segment_length=length,
        group_size=draw(st.integers(1, values.size + 2)),
        dtw_weight=draw(st.sampled_from([1.0]) | st.floats(0.1, 5.0)),
        znormalize=draw(st.booleans()),
        selection=draw(st.sampled_from(["topk", "threshold"])),
        threshold_alpha=draw(st.sampled_from([1.0]) | st.floats(0.05, 3.0)),
    )
    return values, cfg


def _scaled(window):
    e = np.frexp(np.max(np.abs(window)))[1]
    return np.ldexp(window, -e if abs(e) > 500 else 0)


def legacy_step(values, cfg: GroupingConfig) -> tuple:
    """``legacy.forecast_step``, ranking z-normalised windows after
    :func:`_scaled`; selection and the training set use the raw windows."""
    extended = TimeSeries(values)
    segments = legacy.segmentize(extended, cfg.segment_length)
    compared = segments
    if cfg.znormalize:
        compared = [legacy.Segment(s.source_offset, _scaled(s.values)) for s in segments]
    ranked = legacy.rank_by_similarity(compared, compared[-1], cfg, parent_length=len(values))
    ranked = [(segments[s.source_offset - 1], d) for s, d in ranked]
    selected = legacy.select_group(ranked, cfg)
    return ranked, selected, legacy.build_training_set(selected, len(selected), extended), \
        segments[-1]


def _same(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _same_sets(new, old) -> bool:
    """Equal inputs, targets and offsets, the offsets compared as int64
    bytes."""
    return (_same(new.inputs, old.inputs) and _same(new.targets, old.targets)
            and new.offsets.dtype == np.int64 and _same(new.offsets, old.offsets))


class TestGroupingOracle:
    @settings(deadline=None, max_examples=300)
    @given(grouping_cases())
    @example((np.array([0.0, 1e308, 1e308]), GroupingConfig(segment_length=2, znormalize=True)))
    @example((np.round(8 * np.sin(0.3 * np.arange(1028.0))) / 8,  # a long_dtw-sized step
              GroupingConfig(segment_length=24, dtw_weight=0.7)))
    def test_forecast_step_matches_segments(self, case):
        values, cfg = case
        with np.errstate(over="ignore"):  # raw windows near +-1e308 overflow to inf
            ranked, selected, old_set, reference = legacy_step(values, cfg)
            offsets, distances = rank_by_similarity(values, cfg)
            k = select_group(distances, cfg)
        assert offsets.tolist() == [seg.source_offset for seg, _ in ranked]
        assert _same(distances, [d for _, d in ranked])  # inf included
        assert not np.isnan(distances).any()
        assert k == len(selected)
        new_set = build_training_set(values, offsets[:k], cfg.segment_length)
        assert _same_sets(new_set, old_set)
        assert _same(values[-cfg.segment_length:], reference.values)

    @settings(deadline=None)
    @given(grouping_cases(), st.integers(1, 40))
    def test_any_prefix_builds_the_same_set(self, case, k):
        values, cfg = case
        with np.errstate(over="ignore"):
            ranked, _, _, _ = legacy_step(values, cfg)
            offsets, distances = rank_by_similarity(values, cfg)
        extended = TimeSeries(values)
        old_set = legacy.build_training_set(ranked, k, extended)
        new_set = build_training_set(values, offsets[:k], cfg.segment_length)
        assert _same_sets(new_set, old_set)
        assert _same(distances[:k], [d for _, d in ranked[:k]])  # the pairs' distances

    @settings(deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=60),
           st.integers(1, 20))
    def test_sliding_window_set(self, values, window):
        series = TimeSeries(values)
        if window >= len(series):
            window = len(series) - 1
        new, old = sliding_window_set(series, window), legacy.sliding_window_set(series, window)
        assert new.inputs.flags.c_contiguous
        assert _same_sets(new, old)
