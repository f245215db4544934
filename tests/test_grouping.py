import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modecast.core import TimeSeries
from modecast.dtw import dtw_distance
from modecast.grouping import (
    GroupingConfig,
    Segment,
    TrainingSet,
    build_training_set,
    rank_by_similarity,
    segmentize,
    select_group,
    sliding_window_set,
)


class TestSegmentize:
    def test_counts_and_offsets(self):
        segs = segmentize(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), 3)
        assert [s.source_offset for s in segs] == [1, 2, 3]

    def test_full_length_single_segment(self):
        segs = segmentize(TimeSeries([1.0, 2.0, 3.0]), 3)
        assert len(segs) == 1
        assert segs[0].values.tolist() == [1.0, 2.0, 3.0]

    def test_enumeration(self):
        segs = segmentize(TimeSeries([1.0, 2.0, 3.0, 4.0]), 2)
        assert [s.values.tolist() for s in segs] == [[1, 2], [2, 3], [3, 4]]

    def test_count_property(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = int(rng.integers(4, 50))
            length = int(rng.integers(2, t + 1))
            segs = segmentize(TimeSeries(rng.normal(size=t)), length)
            assert len(segs) == t - length + 1

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            segmentize(TimeSeries([1.0, 2.0, 3.0]), 4)
        with pytest.raises(ValueError):
            segmentize(TimeSeries([1.0, 2.0, 3.0]), 1)


class TestRankBySimilarity:
    def test_exact_copy_ranks_first(self):
        # the window at offset 1 repeats the reference exactly
        imf = TimeSeries([5.0, 1.0, 4.0, 9.0, 5.0, 1.0, 4.0])
        segs = segmentize(imf, 3)
        reference = segs[-1]  # offset 5: [5, 1, 4]
        ranked = rank_by_similarity(segs, reference, GroupingConfig(segment_length=3))
        assert ranked[0][0].source_offset == 1
        assert ranked[0][1] == 0.0

    def test_periodic_repeats_beat_antiphase(self):
        imf = TimeSeries([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0])
        cfg = GroupingConfig(segment_length=3)
        segs = segmentize(imf, 3)
        reference = segs[-1]  # offset 5: [0, 1, 0]
        ranked = rank_by_similarity(segs, reference, cfg)
        # independent oracle: recompute every eligible distance and sort
        expected = sorted(
            (
                (dtw_distance(s.values, reference.values)[0], -s.source_offset)
                for s in segs
                if s.source_offset != 5 and s.source_offset + 3 <= 7
            ),
        )
        assert [(d, -o) for d, o in expected] == [
            (d, s.source_offset) for s, d in ranked
        ]
        assert ranked[0][0].source_offset == 1  # the in-phase repeat [0, 1, 0]

    def test_tie_prefers_recent_offset(self):
        # period 3 makes offsets 2 and 5 identical copies of the reference
        imf = TimeSeries([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0])
        segs = segmentize(imf, 3)
        reference = segs[-1]  # offset 8: [1, 2, 0]
        ranked = rank_by_similarity(segs, reference, GroupingConfig(segment_length=3))
        zero_offsets = [s.source_offset for s, d in ranked if d == 0.0]
        assert zero_offsets == [5, 2]

    def test_no_eligible_candidates(self):
        imf = TimeSeries([1.0, 2.0, 3.0])
        segs = segmentize(imf, 3)
        with pytest.raises(ValueError, match="no eligible"):
            rank_by_similarity(segs, segs[-1], GroupingConfig(segment_length=3))

    def test_ranking_is_permutation_with_sorted_distances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = int(rng.integers(10, 40))
            length = int(rng.integers(2, 6))
            imf = TimeSeries(rng.normal(size=t))
            segs = segmentize(imf, length)
            ranked = rank_by_similarity(segs, segs[-1], GroupingConfig(segment_length=length))
            offsets = sorted(s.source_offset for s, _ in ranked)
            assert offsets == list(range(1, t - length + 1))
            dists = [d for _, d in ranked]
            assert dists == sorted(dists)


def _standardized(values):
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
    # T >= L + 2 leaves an eligible candidate beside any reference
    length = draw(st.integers(2, min(6, values.size - 2)))
    return values, length


class TestRankOracle:
    @settings(deadline=None)
    @given(series_with_plateaus(), st.booleans(), st.floats(0.1, 5.0), st.data())
    def test_matches_sorted_per_pair_oracle(self, case, znormalize, weight, data):
        values, length = case
        t = values.size
        segs = segmentize(TimeSeries(values), length)
        reference = data.draw(st.sampled_from(segs[: t - length]) | st.just(segs[-1]))
        cfg = GroupingConfig(segment_length=length, dtw_weight=weight, znormalize=znormalize)
        prepare = _standardized if znormalize else (lambda v: v)
        expected = sorted(
            (dtw_distance(prepare(s.values), prepare(reference.values), weight)[0],
             -s.source_offset)
            for s in segs
            if s.source_offset != reference.source_offset and s.source_offset + length <= t
        )
        expected = [(-o, d) for d, o in expected]
        for parent_length in (t, None):  # None derives t from the segments
            ranked = rank_by_similarity(segs, reference, cfg, parent_length=parent_length)
            assert [(s.source_offset, d) for s, d in ranked] == expected


class TestBuildTrainingSet:
    def _ranked(self, imf, length):
        segs = segmentize(imf, length)
        return rank_by_similarity(segs, segs[-1], GroupingConfig(segment_length=length))

    def test_successor_indexing(self):
        imf = TimeSeries([10.0, 20.0, 30.0, 40.0, 50.0])
        ranked = self._ranked(imf, 2)
        ts = build_training_set(ranked, 10, imf)
        by_offset = dict(zip((o for o, _ in ts.provenance), ts.targets))
        assert by_offset[2] == 40.0
        row = list(ts.provenance).index((2, dict(
            (s.source_offset, d) for s, d in ranked)[2]))
        assert ts.inputs[row].tolist() == [20.0, 30.0]

    def test_k_clamps_to_available(self):
        imf = TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        ranked = self._ranked(imf, 2)
        ts = build_training_set(ranked, 100, imf)
        assert ts.size == len(ranked)

    def test_target_contract_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            t = int(rng.integers(10, 30))
            length = int(rng.integers(2, 5))
            imf = TimeSeries(rng.normal(size=t))
            ranked = self._ranked(imf, length)
            k = int(rng.integers(1, len(ranked) + 1))
            ts = build_training_set(ranked, k, imf)
            for row, (offset, _) in enumerate(ts.provenance):
                assert ts.targets[row] == imf.values[offset + length - 1]
                assert ts.inputs[row].tolist() == imf.values[offset - 1 : offset - 1 + length].tolist()

    def test_reference_never_in_training_set(self):
        rng = np.random.default_rng(5)
        imf = TimeSeries(rng.normal(size=25))
        segs = segmentize(imf, 4)
        reference = segs[-1]
        ranked = rank_by_similarity(segs, reference, GroupingConfig(segment_length=4))
        ts = build_training_set(ranked, 1000, imf)
        assert reference.source_offset not in [o for o, _ in ts.provenance]

    def test_prefix_stability(self):
        rng = np.random.default_rng(6)
        imf = TimeSeries(rng.normal(size=30))
        ranked = self._ranked(imf, 3)
        big = build_training_set(ranked, 10, imf)
        small = build_training_set(ranked, 4, imf)
        assert small.provenance == big.provenance[:4]


class TestSelectGroup:
    def test_topk(self):
        ranked = [(Segment(i, np.zeros(2)), float(i)) for i in range(1, 8)]
        cfg = GroupingConfig(segment_length=2, group_size=3)
        assert [s.source_offset for s, _ in select_group(ranked, cfg)] == [1, 2, 3]

    def test_threshold_keeps_close_candidates(self):
        ranked = [(Segment(i, np.zeros(2)), d)
                  for i, d in enumerate([0.1, 0.2, 1.0, 5.0, 9.0], start=1)]
        cfg = GroupingConfig(segment_length=2, selection="threshold", threshold_alpha=1.0)
        kept = select_group(ranked, cfg)  # median distance is 1.0
        assert [s.source_offset for s, _ in kept] == [1, 2, 3]

    def test_threshold_never_empty(self):
        ranked = [(Segment(1, np.zeros(2)), 2.0), (Segment(2, np.zeros(2)), 4.0)]
        cfg = GroupingConfig(segment_length=2, selection="threshold", threshold_alpha=0.1)
        assert len(select_group(ranked, cfg)) == 1


class TestSlidingWindow:
    def test_pairs_in_time_order(self):
        ts = sliding_window_set(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert ts.inputs.tolist() == [[1, 2], [2, 3], [3, 4]]
        assert ts.targets.tolist() == [3.0, 4.0, 5.0]
        assert [o for o, _ in ts.provenance] == [1, 2, 3]

    def test_requires_room_for_target(self):
        with pytest.raises(ValueError):
            sliding_window_set(TimeSeries([1.0, 2.0]), 2)


class TestTrainingSetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((0, 3)), targets=np.zeros(0), provenance=())

    def test_rejects_mismatched_counts(self):
        with pytest.raises(ValueError):
            TrainingSet(inputs=np.zeros((2, 3)), targets=np.zeros(3), provenance=())
