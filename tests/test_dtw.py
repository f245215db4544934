import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modecast.dtw import (
    dtw_distance,
    dtw_distances,
    euclidean_distance,
    point_distance,
    warp_path,
)


def brute_force_dtw(y, z, weight=1.0):
    """Exhaustive minimum over all monotone-continuous alignment paths.

    Independent of the dynamic-programming implementation: enumerates every
    path from (0,0) to (m-1,n-1) with steps (+1,0), (0,+1), (+1,+1).
    """
    m, n = len(y), len(z)

    def walk(i, j):
        cost = weight * abs(y[i] - z[j])
        if i == m - 1 and j == n - 1:
            return cost
        options = []
        if i + 1 < m and j + 1 < n:
            options.append(walk(i + 1, j + 1))
        if i + 1 < m:
            options.append(walk(i + 1, j))
        if j + 1 < n:
            options.append(walk(i, j + 1))
        return cost + min(options)

    return walk(0, 0)


class TestPointDistance:
    def test_identity(self):
        assert point_distance(3, 3, 1.0) == 0

    def test_absolute_difference(self):
        assert point_distance(1, 4, 1.0) == 3

    def test_linear_in_weight(self):
        assert point_distance(1, 4, 2.0) == 6

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            point_distance(1, 2, 0.0)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_every_distance_rejects_a_weight_not_positive_and_finite(weight):
    with pytest.raises(ValueError, match="^weight must be positive and finite"):
        point_distance(1, 2, weight)
    with pytest.raises(ValueError, match="^weight must be positive and finite"):
        dtw_distance([1.0, 2.0], [1.0], weight)
    with pytest.raises(ValueError, match="^weight must be positive and finite"):
        dtw_distances([[1.0, 2.0]], [1.0], weight)


@pytest.mark.parametrize("distance, y, z, message", [
    (dtw_distance, np.zeros((2, 2)), [1.0],
     r"expected a 1-D and a 1-D sequence, got shapes \(2, 2\) and \(1,\)"),
    (dtw_distance, 5.0, [1.0], r"expected a 1-D and a 1-D sequence, got shapes \(\) and \(1,\)"),
    (dtw_distance, [1.0], [[1.0]], "expected a 1-D and a 1-D sequence"),
    (dtw_distances, [1.0, 2.0], [1.0], "expected a 2-D and a 1-D sequence"),
    (dtw_distances, np.zeros((3, 0)), [1.0], "sequences must be non-empty"),
    (dtw_distance, [1.0], [], "sequences must be non-empty"),
    (dtw_distance, [np.inf], [np.inf], "sequences must be finite"),
    (dtw_distance, [1.0, np.nan], [1.0], "sequences must be finite"),
    (dtw_distances, [[np.inf]], [np.inf], "sequences must be finite"),
    (dtw_distances, [[1.0]], [-np.inf], "sequences must be finite"),
    (euclidean_distance, [np.inf], [np.inf], "sequences must be finite"),
    (euclidean_distance, [[1.0, 2.0]], [[1.0, 3.0]], "expected a 1-D and a 1-D sequence"),
])
def test_bad_sequences_raise_one_value_error_naming_the_problem(distance, y, z, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        distance(y, z)


class TestDtwDistance:
    def test_identical_sequences(self):
        dist, _ = dtw_distance([1, 5, 2], [1, 5, 2])
        assert dist == 0.0

    def test_unequal_lengths(self):
        dist, _ = dtw_distance([1, 2, 3], [1, 3])
        assert dist == brute_force_dtw([1, 2, 3], [1, 3]) == 1.0

    def test_shifted_pulse_beats_lockstep(self):
        y = [0, 0, 1, 0, 0]
        z = [0, 1, 0, 0, 0]
        dist, _ = dtw_distance(y, z)
        assert dist < euclidean_distance(y, z)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            dtw_distance([], [1.0])

    def test_cost_matrix_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            y = rng.normal(size=rng.integers(2, 8))
            z = rng.normal(size=rng.integers(2, 8))
            _, matrix = dtw_distance(y, z)
            local = np.abs(y[:, None] - z[None, :])
            assert type(matrix) is np.ndarray and not matrix.flags.writeable
            assert matrix[0, 0] == local[0, 0]
            assert np.all(matrix >= local - 1e-12)

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            y = rng.integers(-2, 3, m).astype(float)
            z = rng.integers(-2, 3, n).astype(float)
            dist, _ = dtw_distance(y, z)
            assert dist == pytest.approx(brute_force_dtw(y, z), abs=1e-12)

    def test_symmetry_and_dominance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            y = rng.normal(size=k)
            z = rng.normal(size=k)
            d_yz, _ = dtw_distance(y, z)
            d_zy, _ = dtw_distance(z, y)
            assert d_yz == pytest.approx(d_zy, rel=1e-12)
            assert d_yz >= 0.0
            assert d_yz <= euclidean_distance(y, z) + 1e-12
            d_self, _ = dtw_distance(y, y)
            assert d_self == 0.0


@st.composite
def windows_reference_weight(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 12))
    windows = draw(arrays(np.float64, (n, m), elements=finite))
    reference = draw(arrays(np.float64, draw(st.integers(1, 12)), elements=finite))
    weight = draw(st.floats(0.0, 5.0, exclude_min=True))
    return windows, reference, weight


class TestDtwDistances:
    @settings(deadline=None)
    @given(windows_reference_weight())
    def test_bit_identical_to_reference(self, case):
        windows, reference, weight = case
        with np.errstate(over="ignore"):  # huge inputs overflow to inf on both paths
            batched = dtw_distances(windows, reference, weight)
            expected = [dtw_distance(row, reference, weight)[0] for row in windows]
        assert batched.shape == (windows.shape[0],)
        assert batched.tolist() == expected

    def test_zero_on_exact_copy(self):
        z = [3.0, 1.0, 2.0]
        assert dtw_distances([z, [0.0, 0.0, 0.0]], z).tolist() == [0.0, 6.0]

    def test_rejects_bad_shapes_and_weight(self):
        with pytest.raises(ValueError):
            dtw_distances([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            dtw_distances(np.zeros((3, 0)), [1.0])
        with pytest.raises(ValueError):
            dtw_distances([[1.0]], [])
        with pytest.raises(ValueError):
            dtw_distances([[1.0]], [1.0], weight=0.0)


class TestWarpPath:
    def test_identical_sequences_diagonal(self):
        for k in (2, 3, 5):
            seq = list(range(k))
            _, matrix = dtw_distance(seq, seq)
            assert warp_path(matrix) == tuple((i, i) for i in range(1, k + 1))

    def test_constant_sequences_stay_diagonal(self):
        # every cell ties at zero cost, so deterministic tie-breaking
        # (diagonal first) must still give the pure diagonal
        _, matrix = dtw_distance([2.0] * 4, [2.0] * 4)
        assert warp_path(matrix) == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_backtrack_three_by_two(self):
        # gamma ties at (3,2) between the diagonal (2,1) and vertical (2,2)
        # predecessors; the diagonal wins by the fixed order.
        _, matrix = dtw_distance([1, 2, 3], [1, 3])
        assert warp_path(matrix) == ((1, 1), (2, 1), (3, 2))

    def test_path_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            y = rng.normal(size=rng.integers(1, 9))
            z = rng.normal(size=rng.integers(1, 9))
            _, matrix = dtw_distance(y, z)
            path = warp_path(matrix)
            assert path[0] == (1, 1)
            assert path[-1] == (len(y), len(z))
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                di, dj = i1 - i0, j1 - j0
                assert (di, dj) in ((1, 0), (0, 1), (1, 1))


class TestEuclidean:
    def test_identical(self):
        assert euclidean_distance([1, 2], [1, 2]) == 0.0

    def test_unit_differences(self):
        assert euclidean_distance([0, 1], [1, 0]) == 2.0

    def test_sum_beyond_float_range_is_inf(self):
        assert euclidean_distance([1e308, 0.0], [-1e308, 0.0]) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance([1, 2, 3], [1, 2])
