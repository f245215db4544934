"""The anti-diagonal DTW kernel against the frozen loops in ``legacy_dtw``:
ranking distances, one-pair distances, cost grids and warping paths must
be byte-identical. Each case draws its values from a pool of a few, so
``min`` meets ties; small integers make plateaus, and magnitudes up to
1e307 overflow cumulative costs to inf."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import legacy_dtw as legacy
from modecast.dtw import dtw_distance, dtw_distances, warp_path

VALUES = st.integers(-3, 3).map(float) | st.floats(-1e307, 1e307)
WEIGHTS = st.floats(0.0, 5.0, exclude_min=True)
# a case holds up to 60 x 30 drawn values, so generation may run long
SETTINGS = settings(deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])


@st.composite
def sequences(draw, shape):
    pool = draw(st.lists(VALUES, min_size=1, max_size=6))
    return draw(arrays(np.float64, shape, elements=st.sampled_from(pool), fill=st.nothing()))


def _bytes(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@SETTINGS
@given(st.integers(1, 60), st.integers(1, 30), st.integers(1, 30), st.data())
def test_distances_match_the_candidate_loop(n, m, length, data):
    windows = data.draw(sequences((n, m)))
    reference = data.draw(sequences(length))
    weight = data.draw(WEIGHTS)
    assert (_bytes(dtw_distances(windows, reference, weight))
            == _bytes(legacy.dtw_distances(windows, reference, weight)))


@SETTINGS
@given(sequences(st.integers(1, 30)), sequences(st.integers(1, 30)), WEIGHTS)
def test_distance_grid_and_path_match_the_scalar_loop(y, z, weight):
    distance, matrix = dtw_distance(y, z, weight)
    expected, expected_matrix = legacy.dtw_distance(y, z, weight)
    assert _bytes(distance) == _bytes(expected)
    assert matrix.shape == expected_matrix.shape
    assert _bytes(matrix) == _bytes(expected_matrix)
    assert warp_path(matrix) == warp_path(expected_matrix)
