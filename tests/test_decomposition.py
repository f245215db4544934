import numpy as np
import pytest

from modecast import decomposition
from modecast.core import DataError, TimeSeries
from modecast.decomposition import (
    EemdConfig,
    InsufficientExtremaError,
    SiftConfig,
    count_zero_crossings,
    eemd,
    emd,
    emd_with_stats,
    envelope,
    extract_imf,
    find_extrema,
)

from conftest import random_smooth_series


def brute_force_extrema(values):
    """Independent scan: strict interior extrema, plateaus at their midpoint."""
    maxima, minima = [], []
    n = len(values)
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j < n - 1:
            if values[i - 1] < values[i] and values[j + 1] < values[i]:
                maxima.append((i + j) // 2)
            if values[i - 1] > values[i] and values[j + 1] > values[i]:
                minima.append((i + j) // 2)
        i = j + 1
    return maxima, minima


class TestFindExtrema:
    def test_single_peak_and_trough(self):
        values = np.array([0.0, 1.0, 0.0, -1.0, 0.0])
        maxima, minima = find_extrema(values)
        assert maxima.tolist() == [1]
        assert minima.tolist() == [3]
        assert count_zero_crossings(values) == 2

    def test_plateau_midpoint(self):
        maxima, _ = find_extrema(np.array([0.0, 2.0, 2.0, 0.0]))
        assert maxima.tolist() == [1]

    def test_sampled_sine_period(self):
        # One full period, phase-shifted so no sample (or endpoint) lands on
        # a crossing: the interior holds 1 maximum, 1 minimum, 2 crossings.
        t = np.arange(32)
        values = np.sin(2 * np.pi * t / 32 - np.pi / 4)
        max_idx, min_idx = brute_force_extrema(values)
        maxima, minima = find_extrema(values)
        assert maxima.tolist() == max_idx
        assert minima.tolist() == min_idx
        assert maxima.size == 1 and minima.size == 1
        assert count_zero_crossings(values) == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            find_extrema(np.array([1.0, 2.0]))

    def test_interleaving_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values = rng.normal(size=rng.integers(8, 60))
            maxima, minima = find_extrema(values)
            merged = sorted(
                [(i, "max") for i in maxima.tolist()] + [(i, "min") for i in minima.tolist()]
            )
            kinds = [k for _, k in merged]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))
            for idx in (maxima.tolist(), minima.tolist()):
                assert idx == sorted(idx)

    def test_zero_crossing_conventions(self):
        assert count_zero_crossings(np.array([1.0, -1.0, 1.0])) == 2
        assert count_zero_crossings(np.array([1.0, 0.0, 0.0, -1.0])) == 1
        assert count_zero_crossings(np.array([1.0, 0.0, 0.0, 1.0])) == 0
        assert count_zero_crossings(np.zeros(5)) == 0


class TestEnvelope:
    def test_two_equal_knots_give_flat(self):
        env = envelope(np.array([1.0, 0.0, 0.0, 0.0, 1.0]), [0, 4], "mirror")
        assert np.allclose(env, 1.0)

    def test_passes_through_knots(self):
        for mode in ("mirror", "clamp"):
            env = envelope(np.array([0.0, 0.0, 4.0, 0.0, 0.0]), [0, 2, 4], mode)
            assert env[2] == pytest.approx(4.0)
            assert env[0] == pytest.approx(0.0)
            assert env[4] == pytest.approx(0.0)

    def test_upper_envelope_covers_sine(self):
        t = np.arange(64)
        values = np.sin(2 * np.pi * t / 32)
        maxima, _ = find_extrema(values)
        env = envelope(values, maxima, "mirror")
        violation = np.max(values - env)
        assert violation < 0.05  # amplitude is 1

    def test_needs_two_knots(self):
        with pytest.raises(InsufficientExtremaError):
            envelope(np.zeros(5), [2])


ONE_SIFT = SiftConfig(max_sift_iterations=1)


class TestSiftOnce:
    """One elementary sifting step: extract_imf capped at one iteration."""

    def test_pure_imf_is_fixed_point(self):
        t = np.arange(128)
        values = np.sin(2 * np.pi * t / 32)
        out = extract_imf(values, ONE_SIFT).imf
        assert np.max(np.abs(out - values)) < 1e-6

    def test_offset_mean_shrinks(self):
        t = np.arange(128)
        values = np.sin(2 * np.pi * t / 32) + 0.5

        def env_mean_mag(v):
            maxima, minima = find_extrema(v)
            return np.max(np.abs((envelope(v, maxima) + envelope(v, minima)) / 2))

        before = env_mean_mag(values)
        after = env_mean_mag(extract_imf(values, ONE_SIFT).imf)
        assert after < before

    def test_single_maximum_errors(self):
        with pytest.raises(InsufficientExtremaError):
            extract_imf(np.array([0.0, 1.0, 0.0, -0.5, 0.0]), ONE_SIFT)  # 1 max, 1 min


class TestExtractImf:
    def test_two_tone_recovers_fast_tone(self):
        t = np.arange(512)
        fast = np.sin(2 * np.pi * 8 * t / 512)
        slow = np.sin(2 * np.pi * t / 512)
        outcome = extract_imf(fast + slow)
        corr = np.corrcoef(outcome.imf, fast)[0, 1]
        assert corr > 0.95

    def test_near_imf_leaves_tiny_remainder(self):
        t = np.arange(128)
        outcome = extract_imf(np.sin(2 * np.pi * t / 32))
        assert np.max(np.abs(outcome.remainder)) < 1e-3  # amplitude 1

    def test_iteration_cap_observable(self):
        rng = np.random.default_rng(1)
        outcome = extract_imf(rng.normal(size=100), ONE_SIFT)
        assert outcome.stats.iterations == 1


PAST_FLOAT_MAX = np.random.default_rng(0).uniform(-1, 1, 26) * 1.79e308
PAST_FLOAT_MAX_MESSAGE = ("imf_1: scaling the component back to the series' magnitude "
                          "passes the float range")


class TestEmd:
    def test_component_scaled_back_past_float_range_is_named(self):
        # sifted at 2**-1024 scale, imf_1 swings past the float range at 2**1024
        with pytest.raises(DataError) as info:
            emd(TimeSeries(PAST_FLOAT_MAX))
        assert str(info.value) == PAST_FLOAT_MAX_MESSAGE

    def test_monotone_ramp(self):
        d = emd(TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert d.n_imfs == 0
        assert np.array_equal(d.residual.values, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_constant(self):
        d = emd(TimeSeries(np.full(10, 3.0)))
        assert d.n_imfs == 0

    def test_two_tone(self):
        t = np.arange(512)
        x = np.sin(2 * np.pi * 8 * t / 512) + np.sin(2 * np.pi * t / 512)
        d = emd(TimeSeries(x))
        assert d.n_imfs >= 2
        crossings = [count_zero_crossings(imf.values) for imf in d.imfs]
        assert all(a >= b for a, b in zip(crossings, crossings[1:]))
        assert np.max(np.abs(d.reconstruct() - x)) < 1e-9 * np.max(np.abs(x))

    def test_too_short(self):
        with pytest.raises(ValueError):
            emd(TimeSeries([1.0, 2.0, 3.0]))

    def test_properties_random_smooth(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            x = random_smooth_series(rng, int(rng.integers(64, 300)))
            series = TimeSeries(x)
            d, stats = emd_with_stats(series)
            # completeness
            assert np.max(np.abs(d.reconstruct() - x)) < 1e-9 * np.max(np.abs(x))
            # admissibility + near-zero envelope mean for converged IMFs
            for imf, stat in zip(d.imfs, stats):
                if not stat.converged:
                    continue
                maxima, minima = find_extrema(imf.values)
                n_extrema = maxima.size + minima.size
                assert abs(n_extrema - count_zero_crossings(imf.values)) <= 1
                amplitude = np.max(np.abs(imf.values))
                if maxima.size >= 2 and minima.size >= 2 and amplitude > 0:
                    upper = envelope(imf.values, maxima)
                    lower = envelope(imf.values, minima)
                    assert np.max(np.abs((upper + lower) / 2)) < 0.1 * amplitude
            crossings = [count_zero_crossings(imf.values) for imf in d.imfs]
            assert all(a >= b for a, b in zip(crossings, crossings[1:]))


class TestEemd:
    def test_degenerate_reduces_to_emd(self):
        """One trial without noise is EMD, up to the sign of zero (which
        ``array_equal`` ignores), also for subnormals, which both sift
        scaled up by a power of two."""
        smooth = random_smooth_series(np.random.default_rng(5), 128)
        for values in (smooth, np.array([5e-324, 0.0] * 3)):
            series = TimeSeries(values)
            plain = emd(series)
            ensemble = eemd(series, EemdConfig(ensemble_size=1, noise_amplitude=0.0))
            assert ensemble.n_imfs == plain.n_imfs
            for a, b in zip(ensemble.imfs, plain.imfs):
                assert np.array_equal(a.values, b.values)
            assert np.array_equal(ensemble.residual.values, plain.residual.values)
        assert np.array_equal(plain.reconstruct(), values)
        assert np.array_equal(ensemble.reconstruct(), values)

    def test_sift_settings_are_an_argument(self):
        """The trials are sifted as ``eemd``'s ``sift`` argument says; the
        ensemble config has no sift settings of its own to ignore."""
        with pytest.raises(TypeError):
            EemdConfig(sift=SiftConfig(max_imfs=1))
        series = TimeSeries(random_smooth_series(np.random.default_rng(5), 128))
        cfg = EemdConfig(ensemble_size=3, noise_amplitude=0.2, seed=1)
        assert eemd(series, cfg).n_imfs > 1
        assert eemd(series, cfg, SiftConfig(max_imfs=1)).n_imfs == 1

    @pytest.mark.parametrize("seed, message", [
        (2.5, "seed must be an integer"), (True, "seed must be an integer"),
        ("3", "seed must be an integer"), (-1, "seed must be >= 0")])
    def test_seed_checked_when_the_config_is_built(self, seed, message):
        with pytest.raises(ValueError, match=message):
            EemdConfig(seed=seed)

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(6)
        series = TimeSeries(random_smooth_series(rng, 96))
        cfg = EemdConfig(ensemble_size=10, noise_amplitude=0.2, seed=123)
        a = eemd(series, cfg)
        b = eemd(series, cfg)
        assert a.n_imfs == b.n_imfs
        for x, y in zip(a.components(), b.components()):
            assert np.array_equal(x.values, y.values)

    def test_two_tone_with_noise(self):
        t = np.arange(512)
        fast = np.sin(2 * np.pi * 8 * t / 512)
        slow = np.sin(2 * np.pi * t / 512)
        rng = np.random.default_rng(21)
        x = fast + slow + rng.uniform(-0.02, 0.02, 512)
        series = TimeSeries(x)
        cfg = EemdConfig(ensemble_size=50, noise_amplitude=0.05, seed=77)
        plain = emd(series)
        ensemble = eemd(series, cfg)

        def best_fast_corr(decomp):
            return max(
                abs(np.corrcoef(imf.values, fast)[0, 1]) for imf in decomp.imfs
            )

        assert abs(best_fast_corr(plain) - best_fast_corr(ensemble)) < 0.05
        # ensemble completeness is approximate: the added noise does not
        # cancel exactly, it shrinks like amplitude / sqrt(trials)
        amplitude = np.max(np.abs(x))
        assert np.max(np.abs(ensemble.reconstruct() - x)) < 1e-2 * amplitude

    def test_the_lowest_failing_trial_raises(self, monkeypatch):
        """Failures injected into the lockstep sift: trial 5 fails at the
        first level and trial 2 at the third. Decomposing the trials in order
        raises trial 2's error, so eemd does too; after each failure the
        later trials are no longer sifted."""
        t = np.arange(200)
        series = TimeSeries(np.sin(t / 3) + np.random.default_rng(1).normal(size=200))
        sizes, sift = [], decomposition._sift

        def failing(rows, cfg):
            outcomes = sift(rows, cfg)
            failing_row = {0: 5, 2: 2}.get(len(sizes))
            if failing_row is not None:
                outcomes[failing_row] = ValueError(f"row {failing_row}")
            sizes.append(rows.shape[0])
            return outcomes

        monkeypatch.setattr(decomposition, "_sift", failing)
        with pytest.raises(ValueError, match="^row 2$"):
            eemd(series, EemdConfig(ensemble_size=8, noise_amplitude=0.2, seed=3))
        assert sizes[:4] == [8, 5, 5, 2]
