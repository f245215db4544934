import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecast.core import DataError, TimeSeries
from modecast.dtw import dtw_distance, dtw_distances
from modecast.grouping import (
    GroupingConfig,
    TrainingSet,
    build_training_set,
    rank_by_similarity,
    select_group,
    sliding_window_set,
)


def _rank(values, length, **kw):
    return rank_by_similarity(np.asarray(values, dtype=np.float64),
                              GroupingConfig(segment_length=length, **kw))


class TestSegmentize:
    """A length-T series has T - L + 1 windows, the rows of its window view;
    the first T - L are candidates and the last is the reference."""

    def test_counts_and_offsets(self):
        offsets, _ = _rank([1.0, 2.0, 3.0, 4.0, 5.0], 3)
        assert sorted(offsets.tolist()) == [1, 2]

    def test_full_length_single_segment(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        offsets, _ = _rank(values, 3)
        assert offsets.tolist() == [1]
        ts = build_training_set(values, offsets, 3)
        assert ts.inputs.tolist() == [[1.0, 2.0, 3.0]]
        assert ts.targets.tolist() == [4.0]

    def test_enumeration(self):
        ts = build_training_set([1.0, 2.0, 3.0, 4.0], [1, 2], 2)
        assert ts.inputs.tolist() == [[1, 2], [2, 3]]
        assert ts.targets.tolist() == [3, 4]

    def test_count_property(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = int(rng.integers(4, 50))
            length = int(rng.integers(2, t))
            offsets, distances = _rank(rng.normal(size=t), length)
            assert sorted(offsets.tolist()) == list(range(1, t - length + 1))
            assert distances.shape == offsets.shape

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            _rank([1.0, 2.0, 3.0], 4)
        with pytest.raises(ValueError):
            GroupingConfig(segment_length=1)
        for offset in (0, 3):  # offset 3 has no successor value
            with pytest.raises(ValueError, match="offsets must lie in 1 .. 2"):
                build_training_set([1.0, 2.0, 3.0, 4.0], [offset], 2)


class TestRankBySimilarity:
    def test_exact_copy_ranks_first(self):
        # the window at offset 1 repeats the reference (offset 5: [5, 1, 4])
        offsets, distances = _rank([5.0, 1.0, 4.0, 9.0, 5.0, 1.0, 4.0], 3)
        assert offsets[0] == 1
        assert distances[0] == 0.0

    def test_periodic_repeats_beat_antiphase(self):
        values = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
        offsets, distances = _rank(values, 3)
        reference = values[4:]  # offset 5: [0, 1, 0]
        # independent oracle: recompute every candidate distance and sort
        expected = sorted(
            (dtw_distance(values[o - 1 : o + 2], reference)[0], -o) for o in range(1, 5)
        )
        assert [(-o, d) for d, o in expected] == list(zip(offsets.tolist(), distances.tolist()))
        assert offsets[0] == 1  # the in-phase repeat [0, 1, 0]

    def test_tie_prefers_recent_offset(self):
        # period 3 makes offsets 2 and 5 identical copies of the reference
        offsets, distances = _rank([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0], 3)
        assert offsets[distances == 0.0].tolist() == [5, 2]

    def test_no_eligible_candidates(self):
        with pytest.raises(ValueError, match="no eligible"):
            _rank([1.0, 2.0, 3.0], 3)

    def test_ranking_is_permutation_with_sorted_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(10, 40))
            length = int(rng.integers(2, 6))
            offsets, distances = _rank(rng.normal(size=t), length)
            assert sorted(offsets.tolist()) == list(range(1, t - length + 1))
            assert distances.tolist() == sorted(distances.tolist())


def _standardized(values):
    # beyond 2**+-500 the window is standardized after an exact power-of-two
    # scaling, so that its mean and std neither overflow nor underflow
    e = np.frexp(np.max(np.abs(values)))[1]
    values = np.ldexp(values, -e if abs(e) > 500 else 0)
    std = values.std()
    return np.zeros_like(values) if std == 0 else (values - values.mean()) / std


@st.composite
def series_with_plateaus(draw):
    # runs of repeated values make constant windows and tied distances
    runs = draw(st.lists(
        st.tuples(st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, 1.0]),
                  st.integers(1, 8)),
        min_size=4, max_size=12))
    values = np.repeat([v for v, _ in runs], [k for _, k in runs])
    # T >= L + 1 leaves at least one candidate beside the trailing reference
    length = draw(st.integers(2, min(6, values.size - 1)))
    return values, length


class TestRankOracle:
    @settings(deadline=None)
    @given(series_with_plateaus(), st.booleans(), st.floats(0.1, 5.0))
    def test_matches_sorted_per_pair_oracle(self, case, znormalize, weight):
        values, length = case
        t = values.size
        reference = values[t - length :]
        cfg = GroupingConfig(segment_length=length, dtw_weight=weight, znormalize=znormalize)
        prepare = _standardized if znormalize else (lambda v: v)
        expected = sorted(
            (dtw_distance(prepare(values[o - 1 : o - 1 + length]), prepare(reference),
                          weight)[0], -o)
            for o in range(1, t - length + 1)
        )
        offsets, distances = rank_by_similarity(values, cfg)
        assert list(zip(offsets.tolist(), distances.tolist())) == [(-o, d) for d, o in expected]


class TestRankEdgeValues:
    """Outside any ``errstate``: pytest turns a leaked RuntimeWarning into an
    error."""

    # slots 0 and 5 lie in candidates only, slot 11 in the reference only
    @pytest.mark.parametrize("znormalize", [False, True])
    @pytest.mark.parametrize("slot", [0, 5, 11])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_raises_without_a_warning(self, bad, slot, znormalize):
        values = np.arange(12.0)
        values[slot] = bad
        with pytest.raises(ValueError, match="^sequences must be finite$"):
            _rank(values, 3, znormalize=znormalize)

    @pytest.mark.parametrize("znormalize", [False, True])
    def test_series_must_be_one_dimensional(self, znormalize):
        with pytest.raises(ValueError, match="^expected a 1-D and a 1-D sequence"):
            _rank(np.arange(12.0).reshape(12, 1), 3, znormalize=znormalize)

    @pytest.mark.parametrize("znormalize", [False, True])
    @pytest.mark.parametrize("weight", [1.0, 3.0])
    def test_overflowing_costs_match_the_materialized_windows(self, weight, znormalize):
        # point distances between +-1e308 plateaus overflow to inf
        values = np.repeat([1e308, -1e308, 0.0, 1e308, -1e308, 1.0, 1e308, -1e308],
                           [3, 2, 4, 1, 3, 2, 3, 2])
        length = 4
        offsets, distances = _rank(values, length, dtw_weight=weight, znormalize=znormalize)
        windows = np.lib.stride_tricks.sliding_window_view(values, length)
        prepare = _standardized if znormalize else (lambda v: v)
        expected = dtw_distances([prepare(w) for w in windows[:-1]], prepare(windows[-1]),
                                 weight)
        by_offset = np.empty_like(distances)
        by_offset[offsets - 1] = distances
        assert by_offset.tobytes() == expected.tobytes()
        assert np.isinf(distances).any() != znormalize


class TestBuildTrainingSet:
    def test_successor_indexing(self):
        values = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        offsets, _ = _rank(values, 2)
        ts = build_training_set(values, offsets, 2)
        # the pairs keep the ranking's order, so pair k has distances[k]
        assert ts.offsets.dtype == np.int64 and ts.offsets.tobytes() == offsets.tobytes()
        by_offset = dict(zip(ts.offsets.tolist(), ts.targets))
        assert by_offset[2] == 40.0
        row = ts.offsets.tolist().index(2)
        assert ts.inputs[row].tolist() == [20.0, 30.0]

    def test_k_clamps_to_available(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        offsets, distances = _rank(values, 2)
        k = select_group(distances, GroupingConfig(segment_length=2, group_size=100))
        assert k == offsets.size == 3
        assert build_training_set(values, offsets[:k], 2).size == 3

    def test_target_contract_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(10, 30))
            length = int(rng.integers(2, 5))
            values = rng.normal(size=t)
            offsets, _ = _rank(values, length)
            k = int(rng.integers(1, offsets.size + 1))
            ts = build_training_set(values, offsets[:k], length)
            for row, offset in enumerate(ts.offsets.tolist()):
                assert ts.targets[row] == values[offset + length - 1]
                assert ts.inputs[row].tolist() == values[offset - 1 : offset - 1 + length].tolist()

    def test_reference_never_in_training_set(self):
        values = np.random.default_rng(5).normal(size=25)
        offsets, _ = _rank(values, 4)
        ts = build_training_set(values, offsets, 4)
        assert 25 - 4 + 1 not in ts.offsets.tolist()

    @pytest.mark.parametrize("length, match", [(0, "length must be >= 1, got 0"),
                                               (-2, "length must be >= 1, got -2"),
                                               (2.0, "length must be an integer, got 2.0")])
    def test_length_must_be_a_positive_integer(self, length, match):
        with pytest.raises(ValueError, match=match):
            build_training_set([1.0, 2.0, 3.0, 4.0, 5.0], [1], length)
        assert build_training_set([1.0, 2.0, 3.0], [1], np.int64(2)).targets.tolist() == [3.0]

    def test_prefix_stability(self):
        values = np.random.default_rng(6).normal(size=30)
        offsets, _ = _rank(values, 3)
        big = build_training_set(values, offsets[:10], 3)
        small = build_training_set(values, offsets[:4], 3)
        assert small.offsets.tobytes() == big.offsets[:4].tobytes()


class TestSelectGroup:
    def test_topk(self):
        cfg = GroupingConfig(segment_length=2, group_size=3)
        assert select_group(np.arange(1.0, 8.0), cfg) == 3

    def test_threshold_keeps_close_candidates(self):
        cfg = GroupingConfig(segment_length=2, selection="threshold", threshold_alpha=1.0)
        # median distance is 1.0
        assert select_group(np.array([0.1, 0.2, 1.0, 5.0, 9.0]), cfg) == 3

    def test_threshold_never_empty(self):
        cfg = GroupingConfig(segment_length=2, selection="threshold", threshold_alpha=0.1)
        assert select_group(np.array([2.0, 4.0]), cfg) == 1

    @pytest.mark.parametrize("selection", ["topk", "threshold"])
    @pytest.mark.parametrize("distances", [np.zeros(0), np.ones((2, 3)), np.float64(1.0)],
                             ids=["empty", "2-D", "0-D"])
    def test_ranking_must_be_non_empty_and_1d(self, selection, distances):
        cfg = GroupingConfig(segment_length=2, group_size=2, selection=selection)
        shape = re.escape(str(distances.shape))
        with pytest.raises(ValueError, match=f"^distances must be a non-empty 1-D ranking, "
                                             f"got shape {shape}$"):
            select_group(distances, cfg)

    @pytest.mark.parametrize("selection, k", [("topk", 2), ("threshold", 3)])
    def test_infinite_distances_are_kept(self, selection, k):
        """``+inf`` is a cost beyond the float range, still a ranking."""
        cfg = GroupingConfig(segment_length=2, group_size=2, selection=selection)
        assert select_group(np.array([1.0, np.inf, np.inf]), cfg) == k


class TestSlidingWindow:
    def test_pairs_in_time_order(self):
        ts = sliding_window_set(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert ts.inputs.tolist() == [[1, 2], [2, 3], [3, 4]]
        assert ts.targets.tolist() == [3.0, 4.0, 5.0]
        assert ts.offsets.dtype == np.int64 and ts.offsets.tolist() == [1, 2, 3]

    def test_requires_room_for_target(self):
        with pytest.raises(ValueError):
            sliding_window_set(TimeSeries([1.0, 2.0]), 2)

    @pytest.mark.parametrize("window, match", [(0, "window must be >= 1, got 0"),
                                               (-1, "window must be >= 1, got -1"),
                                               (2.0, "window must be an integer, got 2.0")])
    def test_window_must_be_a_positive_integer(self, window, match):
        """No set of empty windows whose targets are their own first values."""
        with pytest.raises(ValueError, match=match):
            sliding_window_set(TimeSeries([1.0, 2.0, 3.0, 4.0]), window)


class TestTrainingSetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((0, 3)), targets=np.zeros(0), offsets=[])

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((2, 3)), targets=np.zeros(3), offsets=[1, 2, 3])

    @pytest.mark.parametrize("offsets", [[1], [], [1, 2, 3, 4, 5], [[1, 2, 3, 4]]],
                             ids=["short", "empty", "long", "2-D"])
    def test_one_offset_per_pair(self, offsets):
        """An offset list that is not 1-D with one entry per pair is a
        ValueError naming it, not a set that ENN trains on in part."""
        with pytest.raises(ValueError, match=r"offsets must be 1-D with one entry per pair \(4\)"):
            TrainingSet(inputs=np.zeros((4, 2)), targets=np.zeros(4), offsets=offsets)

    @pytest.mark.parametrize("offsets", [[1.7], [1.0], [True]], ids=["1.7", "1.0", "True"])
    def test_offsets_must_be_integers(self, offsets):
        """Float and bool offsets are refused by name, not truncated."""
        match = "offsets must be integers, got dtype (float64|bool)"
        with pytest.raises(ValueError, match=match):
            build_training_set([1.0, 2.0, 3.0, 4.0, 5.0], offsets, 2)
        with pytest.raises(ValueError, match=match):
            TrainingSet(inputs=np.zeros((1, 2)), targets=np.zeros(1), offsets=offsets)
        assert build_training_set([1.0, 2.0, 3.0, 4.0, 5.0], [np.uint8(1)], 2).offsets.tolist() == [1]

    @pytest.mark.parametrize("field, bad", [("inputs", np.nan), ("inputs", -np.inf),
                                            ("targets", np.nan), ("targets", np.inf)])
    def test_rejects_non_finite_pairs(self, field, bad):
        arrays = {"inputs": np.ones((3, 2)), "targets": np.ones(3)}
        arrays[field].flat[1] = bad
        with pytest.raises(DataError, match="training pairs contain NaN or infinite values"):
            TrainingSet(offsets=[1, 2, 3], **arrays)
