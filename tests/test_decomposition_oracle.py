"""The array-based decomposition layer against the frozen one in
``legacy_decomposition``: extrema, zero crossings, envelopes, IMFs,
residuals, sift statistics and errors must be bit-identical. Also the
properties the layer promises on its own: exact reconstruction, admissible
converged IMFs, and exact scaling by powers of two."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import legacy_decomposition as legacy
from modecast.core import TimeSeries
from modecast.decomposition import (
    EemdConfig,
    SiftConfig,
    count_zero_crossings,
    eemd,
    emd_with_stats,
    envelope,
    extract_imf,
    find_extrema,
)

# Moderate magnitudes for the spline: above about 1e307 its own arithmetic
# overflows, in the frozen layer as much as in the new one.
BIG = 2.0 ** 400
SMALL = 2.0 ** -400
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0])


def _outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def runs_series(draw, magnitude=None, min_size=1):
    """Runs of repeated values (plateaus), exact zeros of either sign and,
    often, a trailing run of zeros."""
    values = (st.floats(-magnitude, magnitude, allow_nan=False) if magnitude
              else st.floats(allow_nan=False, allow_infinity=False))
    runs = draw(st.lists(st.tuples(SPECIAL | values, st.integers(1, 4)), max_size=24))
    tail = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
    out = np.array([v for v, k in runs for _ in range(k)] + tail, dtype=np.float64)
    assume(out.size >= min_size)
    return out


def _legacy_extrema(values):
    ext = legacy.find_extrema(TimeSeries(values))
    return [i for i, _ in ext.maxima], [i for i, _ in ext.minima], ext.zero_crossings


def _new_extrema(values):
    maxima, minima = find_extrema(values)
    assert maxima.dtype == minima.dtype == np.intp
    return maxima.tolist(), minima.tolist(), count_zero_crossings(values)


def _bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stats(stats) -> list:
    return [(s.iterations, s.sd_at_stop.hex(), s.converged, s.stop_reason) for s in stats]


def _same_decomposition(new, old) -> bool:
    return new.n_imfs == old.n_imfs and all(
        _bits(a.values, b.values) for a, b in zip(new.components(), old.components()))


@st.composite
def decomposition_cases(draw, max_length=160):
    """Gaussian, rounded-plateau, integer/zero-heavy and two-tone series
    with max|x| in [2^-400, 2^400], and sift settings."""
    n = draw(st.integers(4, max_length))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["gauss", "plateau", "integer", "tones"]))
    if kind == "gauss":
        x = rng.normal(size=n)
    elif kind == "plateau":
        x = np.round(rng.normal(size=n) * 2) / 2
    elif kind == "integer":
        x = rng.integers(-2, 3, n) * (rng.random(n) < 0.5).astype(np.float64)
    else:
        t = np.arange(n)
        x = (np.sin(2 * np.pi * t / rng.uniform(3, 12))
             + np.sin(2 * np.pi * t / rng.uniform(20, 80)))
    peak = np.max(np.abs(x))
    if peak > 0:
        x = np.ldexp(x, draw(st.integers(-399, 400)) - int(np.frexp(peak)[1]))
    cfg = SiftConfig(
        sd_threshold=draw(st.sampled_from([0.2, 0.05])),
        max_sift_iterations=draw(st.sampled_from([100, 3, 1])),
        max_imfs=draw(st.sampled_from([12, 2])),
        boundary_mode=draw(st.sampled_from(["mirror", "clamp"])),
    )
    return x, cfg


class TestExtremaOracle:
    @settings(deadline=None, max_examples=400)
    @given(runs_series())
    def test_extrema_and_zero_crossings_match(self, values):
        new, old = _outcome(_new_extrema, values), _outcome(_legacy_extrema, values)
        assert new == old
        assert count_zero_crossings(values) == legacy.count_zero_crossings(values)


class TestEnvelopeOracle:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_legacy(self, data):
        n = data.draw(st.integers(2, 40))
        values = np.array(data.draw(st.lists(
            SPECIAL | st.floats(-BIG, BIG, allow_nan=False), min_size=n, max_size=n)))
        inner = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        # the end samples often, so boundary knots land on existing knots
        ends = data.draw(st.sets(st.sampled_from([0, n - 1])))
        knots = sorted(inner | ends)
        mode = data.draw(st.sampled_from(["mirror", "clamp", "spline"]))
        new = _outcome(envelope, values, np.array(knots, dtype=np.intp), mode)
        old = _outcome(legacy.envelope, TimeSeries(values),
                       [(i, float(values[i])) for i in knots], mode)
        assert new[0] == "ok" or new == old
        if new[0] == "ok":
            assert old[0] == "ok" and _bits(new[1], old[1].values)


class TestSiftOracle:
    @settings(deadline=None, max_examples=150)
    @given(decomposition_cases())
    def test_emd_with_stats_matches_legacy(self, case):
        x, cfg = case
        new, new_stats = emd_with_stats(TimeSeries(x), cfg)
        old, old_stats = legacy.emd_with_stats(TimeSeries(x), cfg)
        assert _same_decomposition(new, old)
        assert _stats(new_stats) == _stats(old_stats)

    @settings(deadline=None, max_examples=25)
    @given(decomposition_cases(max_length=80), st.integers(1, 4),
           st.sampled_from([0.0, 0.05, 0.2]), st.integers(0, 2 ** 32 - 1))
    def test_eemd_matches_legacy(self, case, trials, noise, seed):
        x, sift = case
        cfg = EemdConfig(sift=sift, ensemble_size=trials, noise_amplitude=noise, seed=seed)
        assert _same_decomposition(eemd(TimeSeries(x), cfg), legacy.eemd(TimeSeries(x), cfg))

    @settings(deadline=None, max_examples=300)
    @given(runs_series(magnitude=BIG), st.sampled_from([100, 3, 1]),
           st.sampled_from(["mirror", "clamp"]))
    def test_extract_imf_and_errors_match_legacy(self, values, cap, mode):
        assume(np.all(values == 0) or np.max(np.abs(values)) >= SMALL)
        cfg = SiftConfig(max_sift_iterations=cap, boundary_mode=mode)
        new = _outcome(extract_imf, values, cfg)
        old = _outcome(legacy.extract_imf, TimeSeries(values), cfg)
        if new[0] != "ok":
            assert new == old
        else:
            assert old[0] == "ok"
            assert _bits(new[1].imf, old[1].imf.values)
            assert _bits(new[1].remainder, old[1].remainder.values)
            assert _stats([new[1].stats]) == _stats([old[1].stats])
        if cap == 1:  # one elementary sifting step, the old sift_once
            once = _outcome(legacy.sift_once, TimeSeries(values), cfg)
            assert once[0] == new[0]  # the same error type; the messages differ
            if new[0] == "ok":
                assert _bits(new[1].imf, once[1].values)
        new = _outcome(emd_with_stats, TimeSeries(values), cfg)
        old = _outcome(legacy.emd_with_stats, TimeSeries(values), cfg)
        if new[0] != "ok":
            assert new == old
        else:
            assert old[0] == "ok" and _same_decomposition(new[1][0], old[1][0])
            assert _stats(new[1][1]) == _stats(old[1][1])


class TestDecompositionProperties:
    @settings(deadline=None, max_examples=200)
    @given(runs_series(magnitude=2.0 ** 1000, min_size=4))
    def test_reconstruction_and_admissibility(self, values):
        decomp, stats = emd_with_stats(TimeSeries(values))
        peak = np.max(np.abs(values))
        assert np.max(np.abs(decomp.reconstruct() - values)) <= 1e-9 * peak
        for imf, stat in zip(decomp.imfs, stats):
            if stat.converged:
                maxima, minima = find_extrema(imf.values)
                assert abs(maxima.size + minima.size - count_zero_crossings(imf.values)) <= 1

    @settings(deadline=None, max_examples=60)
    @given(decomposition_cases(max_length=120), st.integers(-40, 40))
    def test_emd_commutes_with_powers_of_two(self, case, shift):
        x, cfg = case
        peak = np.max(np.abs(x))
        if peak > 0:  # max|x| in [2^-41, 2^40], so x * 2^k stays normal
            x = np.ldexp(x, shift - int(np.frexp(peak)[1]))
        base, base_stats = emd_with_stats(TimeSeries(x), cfg)
        for k in (-900, 37, 900):
            scaled, scaled_stats = emd_with_stats(TimeSeries(np.ldexp(x, k)), cfg)
            assert scaled.n_imfs == base.n_imfs
            for a, b in zip(scaled.components(), base.components()):
                assert _bits(a.values, np.ldexp(b.values, k))
            assert _stats(scaled_stats) == _stats(base_stats)

    @settings(deadline=None, max_examples=10)
    @given(decomposition_cases(max_length=64), st.integers(0, 2 ** 32 - 1))
    def test_eemd_commutes_with_powers_of_two(self, case, seed):
        x, sift = case
        peak = np.max(np.abs(x))
        if peak > 0:
            x = np.ldexp(x, -int(np.frexp(peak)[1]))
        cfg = EemdConfig(sift=sift, ensemble_size=3, noise_amplitude=0.2, seed=seed)
        base = eemd(TimeSeries(x), cfg)
        for k in (-900, 37, 900):
            scaled = eemd(TimeSeries(np.ldexp(x, k)), cfg)
            assert scaled.n_imfs == base.n_imfs
            for a, b in zip(scaled.components(), base.components()):
                assert _bits(a.values, np.ldexp(b.values, k))

