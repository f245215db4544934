"""The array-based decomposition layer against the frozen one in
``legacy_decomposition``: extrema, zero crossings, envelopes, IMFs,
residuals, sift statistics and errors must be bit-identical, and the
lockstep EEMD must equal the frozen trial-by-trial loop. The block-batched
envelope spline must equal scipy's ``CubicSpline`` on every block bit for
bit and fail as it fails. Also the properties the layer promises on its own:
rows sifted together come out as sifted alone, exact reconstruction,
admissible converged IMFs, and exact scaling by powers of two."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

import legacy_decomposition as legacy
from modecast import decomposition
from modecast.core import TimeSeries
from modecast.decomposition import (
    EemdConfig,
    SiftConfig,
    _extrema,
    _natural_splines,
    _sift,
    count_zero_crossings,
    eemd,
    emd,
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


# A batch whose rows each meet the lockstep sift's per-row bookkeeping at an
# edge: fewer than 2 minima (the partial-fit path), plateau extrema, extrema
# next to both row ends, and a constant row.
EDGE_ROWS = np.array([
    [0.0, 2.0, 1.0, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0],
    [0.0, 1.0, 3.0, 3.0, 3.0, 1.0, -2.0, -2.0, 0.0, 2.0, -1.0, 0.5],
    [0.0, 5.0, 0.0, 1.0, -1.0, 2.0, -2.0, 1.0, -1.0, 0.0, -3.0, 0.0],
    [0.7] * 12,
])


@st.composite
def extrema_batches(draw):
    """(K, T) batches, K = 1..8 and T = 3..24, of a few levels (signed zeros
    among them), so plateaus are common; now and then a plateau that
    touches a row end, and a row that ends on the value the next row
    starts with."""
    k, t = draw(st.integers(1, 8)), draw(st.integers(3, 24))
    level = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])
    rows = np.array(draw(st.lists(st.lists(level, min_size=t, max_size=t),
                                  min_size=k, max_size=k)))
    for r in range(k):
        width = draw(st.integers(0, t))
        if draw(st.booleans()):
            rows[r, :width] = rows[r, 0]
        else:
            rows[r, t - width:] = rows[r, -1]
        if r + 1 < k and draw(st.booleans()):
            rows[r + 1, 0] = rows[r, -1]
    return rows


class TestExtremaOracle:
    @settings(deadline=None, max_examples=400)
    @given(runs_series())
    def test_extrema_and_zero_crossings_match(self, values):
        new, old = _outcome(_new_extrema, values), _outcome(_legacy_extrema, values)
        assert new == old
        assert count_zero_crossings(values) == legacy.count_zero_crossings(values)

    @settings(deadline=None, max_examples=300)
    @given(extrema_batches())
    @example(EDGE_ROWS)
    @example(EDGE_ROWS[[3, 2, 1, 0]])
    def test_batch_matches_rows_alone(self, rows):
        """The extrema of a batch, as flat indices, are each row's own
        extrema offset by its start: no run carries over a row boundary."""
        maxima, minima = _extrema(rows)
        alone = [find_extrema(row) for row in rows]
        offsets = range(0, rows.size, rows.shape[1])
        assert _bits(maxima, np.concatenate([mx + o for o, (mx, _) in zip(offsets, alone)]))
        assert _bits(minima, np.concatenate([mn + o for o, (_, mn) in zip(offsets, alone)]))


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


@st.composite
def spline_cases(draw):
    """Knots at integer and fractional positions, the first at or below 0
    and often below it (mirrored knots); values of either sign with
    magnitudes 2^-400..2^400 or exact zeros; the sample grid 0..m - 1 that
    the spline is evaluated at, which often ends on the last knot and may
    end short of it."""
    n = draw(st.integers(2, 60))
    gaps = draw(st.lists(st.integers(1, 12) | st.sampled_from([0.25, 0.5, 1.5]),
                         min_size=n - 1, max_size=n - 1))
    x = np.concatenate(([0.0], np.cumsum(gaps)))
    x -= draw(st.integers(0, min(60, int(x[-1]))))
    magnitude = st.floats(SMALL, BIG)
    y = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0]) | magnitude | magnitude.map(lambda v: -v),
        min_size=n, max_size=n)))
    size = max(1, int(x[-1]) + 1 - draw(st.integers(0, 2)))
    return x, y, size


@st.composite
def spline_blocks(draw):
    """1-6 blocks of 2-20 knots, each reaching past both ends of the
    sample grid 0..span: knots at integer and fractional positions,
    values of either sign with magnitudes 2^-400..2^400, exact zeros, whole
    blocks of signed zeros, and a signed zero at either edge of a block;
    now and then a block with an infinite value (CubicSpline rejects y) or
    one of +-1.5e308 (it rejects the slopes)."""
    span = draw(st.integers(0, 30))
    magnitude = st.floats(SMALL, BIG)
    zeros = st.sampled_from([0.0, -0.0])
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        gaps = draw(st.lists(st.integers(1, 12) | st.sampled_from([0.25, 0.5, 1.5]),
                             min_size=1, max_size=19))
        x = -draw(st.integers(0, 3)) - draw(st.sampled_from([0.0, 0.25])) + np.concatenate(
            ([0.0], np.cumsum(gaps)))
        if x[-1] < span:
            x = np.append(x, span + draw(st.integers(0, 3)))
        values = zeros if draw(st.booleans()) else zeros | magnitude | magnitude.map(lambda v: -v)
        y = np.array(draw(st.lists(values, min_size=x.size, max_size=x.size)))
        for edge in (0, -1):
            if draw(st.booleans()):
                y[edge] = draw(zeros)
        if draw(st.sampled_from([False] * 7 + [True])):
            y[draw(st.integers(0, y.size - 1))] = draw(st.sampled_from(
                [np.inf, -np.inf, 1.5e308, -1.5e308]))
        blocks.append((x, y))
    return blocks, span + 1


def _grid(size):
    """The sample grid 0..size - 1, the only points modecast evaluates a spline at."""
    return np.arange(size, dtype=np.float64)


class TestSplineOracle:
    @settings(deadline=None, max_examples=400)
    @given(spline_cases())
    def test_natural_spline_matches_cubic_spline(self, case):
        x, y, size = case
        values, status = _natural_splines(x, y, np.array([0, x.size]), size)
        assert status.tolist() == [0]
        assert _bits(values[0], CubicSpline(x, y, bc_type="natural")(_grid(size)))

    @settings(deadline=None, max_examples=300)
    @given(spline_blocks())
    def test_blocks_match_cubic_spline_each(self, case):
        """One solve over many blocks gives every block what CubicSpline
        gives it alone, all-zero blocks and signed zeros at the block edges
        included; a block that CubicSpline rejects fails with its message
        and leaves the others untouched, without a numeric warning."""
        blocks, size = case
        x, y = np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
        bounds = np.cumsum([0] + [b[0].size for b in blocks])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, status = _natural_splines(x, y, bounds, size)
        assert values.shape == (len(blocks), size)
        for (bx, by), row, code in zip(blocks, values, status):
            with np.errstate(all="ignore"):
                old = _outcome(lambda: CubicSpline(bx, by, bc_type="natural")(_grid(size)))
            if old[0] == "ok":
                assert code == 0 and _bits(row, old[1])
            else:
                assert code != 0 and old == (ValueError, decomposition._SPLINE_ERRORS[code])

    @pytest.mark.parametrize("mode", ["mirror", "clamp"])
    @pytest.mark.parametrize("big", [np.inf, -np.inf, 1.5e308, -1.5e308])
    def test_non_finite_spline_fails_as_scipy_does(self, big, mode):
        """A knot value of +-inf fails the finiteness check on y, and one of
        +-1.5e308 overflows the slopes and fails the check on dydx, through
        envelope and extract_imf alike, and without a numeric warning."""
        values = np.array([0.0, 1.0, -1.0, big, -1.0, 1.0, -2.0, 2.0, 0.0])
        cfg = SiftConfig(boundary_mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a leaked warning becomes the outcome
            new_envelope = _outcome(envelope, values, np.array([1, 3, 5, 7]), mode)
            new_imf = _outcome(extract_imf, values, cfg)
        # The frozen envelope takes its knot values as (index, value) pairs, so
        # an infinite one never meets a TimeSeries; its numpy arithmetic warns.
        series = TimeSeries(np.where(np.isfinite(values), values, 0.0))
        with np.errstate(all="ignore"):
            old_envelope, *old_means = [
                _outcome(legacy.envelope, series, [(i, values[i]) for i in knots], mode)
                for knots in ([1, 3, 5, 7], *find_extrema(values))]
            old_imf = next(o for o in old_means if o[0] != "ok")  # upper, then lower
            if np.isfinite(big):
                assert _outcome(legacy.extract_imf, TimeSeries(values), cfg) == old_imf
        assert new_envelope[0] is ValueError and new_envelope == old_envelope
        assert new_imf[0] is ValueError and new_imf == old_imf


class TestSiftOracle:
    @settings(deadline=None, max_examples=150)
    @given(decomposition_cases())
    def test_emd_with_stats_matches_legacy(self, case):
        x, cfg = case
        new = emd(TimeSeries(x), cfg)
        old, old_stats = legacy.emd_with_stats(TimeSeries(x), cfg)
        assert _same_decomposition(new, old)
        assert _stats(new.sift_stats) == _stats(old_stats)

    @settings(deadline=None, max_examples=25)
    @given(decomposition_cases(max_length=80), st.integers(1, 4),
           st.sampled_from([0.0, 0.05, 0.2]), st.integers(0, 2 ** 32 - 1))
    def test_eemd_matches_legacy(self, case, trials, noise, seed):
        x, sift = case
        cfg = EemdConfig(ensemble_size=trials, noise_amplitude=noise, seed=seed)
        assert _same_decomposition(eemd(TimeSeries(x), cfg, sift),
                                   legacy.eemd(TimeSeries(x), cfg, sift))

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
        new = _outcome(emd, TimeSeries(values), cfg)
        old = _outcome(legacy.emd_with_stats, TimeSeries(values), cfg)
        if new[0] != "ok":
            assert new == old
        else:
            assert old[0] == "ok" and _same_decomposition(new[1], old[1][0])
            assert _stats(new[1].sift_stats) == _stats(old[1][1])


@st.composite
def ensemble_cases(draw):
    """A series of 4-200 samples, its ensemble settings (2-40 trials and a
    noise amplitude high enough that the trials disagree on their IMF
    counts) and its sift settings (iteration caps of 1 and 3 end levels by
    ``iteration_cap``, a max_imfs of 2 cuts the ensemble short)."""
    x, sift = draw(decomposition_cases(max_length=200))
    trials = draw(st.integers(2, 40))
    noise = draw(st.sampled_from([0.05, 0.2, 0.5]))
    return x, EemdConfig(ensemble_size=trials, noise_amplitude=noise,
                         seed=draw(st.integers(0, 2 ** 32 - 1))), sift


def _stop_reasons(monkeypatch) -> list:
    """Patch the lockstep sift to record, per call, how each row ended."""
    levels = []

    def recording(rows, cfg):
        outcomes = _sift(rows, cfg)
        levels.append([o.stats.stop_reason if hasattr(o, "stats") else type(o).__name__
                       for o in outcomes])
        return outcomes

    monkeypatch.setattr(decomposition, "_sift", recording)
    return levels


class TestLockstepOracle:
    @settings(deadline=None, max_examples=40)
    @given(ensemble_cases())
    def test_lockstep_eemd_matches_legacy(self, case):
        x, cfg, sift = case
        assert _same_decomposition(eemd(TimeSeries(x), cfg, sift),
                                   legacy.eemd(TimeSeries(x), cfg, sift))

    @pytest.mark.parametrize("mode", ["mirror", "clamp"])
    def test_trials_end_levels_every_way(self, mode, monkeypatch):
        """In one ensemble, trials end a level by ``sd``, by ``no_extrema``
        and by ``iteration_cap``, and some run out of extrema at a level
        where others still extract an IMF (they disagree on the IMF count);
        the lockstep result still equals the trial-by-trial one."""
        x = np.random.default_rng(7).normal(size=9)
        cfg = EemdConfig(ensemble_size=40, noise_amplitude=0.5, seed=11)
        sift = SiftConfig(max_sift_iterations=4, boundary_mode=mode)
        levels = _stop_reasons(monkeypatch)
        assert _same_decomposition(eemd(TimeSeries(x), cfg, sift),
                                   legacy.eemd(TimeSeries(x), cfg, sift))
        assert {"sd", "no_extrema", "iteration_cap"} <= {r for level in levels for r in level}
        assert any("InsufficientExtremaError" in level and len(set(level)) > 1
                   for level in levels)

    @settings(deadline=None, max_examples=150)
    @given(st.lists(decomposition_cases(max_length=60), min_size=2, max_size=8),
           st.integers(0, 60), st.lists(st.sampled_from([0, 0, 600, -600]), min_size=8,
                                        max_size=8),
           st.dictionaries(st.integers(0, 7), st.sampled_from([np.inf, 1.5e308, -1.5e308]),
                           max_size=2))
    @example([(row, SiftConfig()) for row in EDGE_ROWS], 12, [0] * 8, {})
    @example([(row, SiftConfig(boundary_mode="clamp")) for row in EDGE_ROWS[::-1]], 12,
             [0, 600, -600, 0] * 2, {})
    def test_rows_sift_together_as_alone(self, cases, length, scales, corrupt):
        """Rows sifted in one batch stop when and as they stop alone, and
        a row whose spline fails fails alone: the envelopes of all rows
        share one spline solve, and NaN from one block must not reach its
        neighbours."""
        length = max(4, min(length, min(x.size for x, _ in cases)))
        cfg = cases[0][1]
        # rows beyond 2^+-500 take their own power of two in the stopping ratio
        rows = np.array([np.ldexp(x[:length], e) for (x, _), e in zip(cases, scales)])
        for r, value in corrupt.items():  # up to two rows; the keys wrap around the batch
            maxima, _ = find_extrema(rows[r % len(rows)])
            if maxima.size:
                rows[r % len(rows), maxima[0]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            together = _sift(rows, cfg)
            alone = [_outcome(extract_imf, row, cfg) for row in rows]
        for new, old in zip(together, alone):
            if old[0] != "ok":
                assert (type(new), str(new)) == old
            else:
                assert _bits(new.imf, old[1].imf) and _bits(new.remainder, old[1].remainder)
                assert _stats([new.stats]) == _stats([old[1].stats])


class TestDecompositionProperties:
    @settings(deadline=None, max_examples=200)
    @given(runs_series(magnitude=2.0 ** 1000, min_size=4))
    @example(np.array([5e-324, 0.0] * 3))  # IMF and residual round to 0 when scaled back
    def test_reconstruction_and_admissibility(self, values):
        decomp = emd(TimeSeries(values))
        stats = decomp.sift_stats
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
        base = emd(TimeSeries(x), cfg)
        base_stats = base.sift_stats
        for k in (-900, 37, 900):
            scaled = emd(TimeSeries(np.ldexp(x, k)), cfg)
            scaled_stats = scaled.sift_stats
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
        cfg = EemdConfig(ensemble_size=3, noise_amplitude=0.2, seed=seed)
        base = eemd(TimeSeries(x), cfg, sift)
        for k in (-900, 37, 900):
            scaled = eemd(TimeSeries(np.ldexp(x, k)), cfg, sift)
            assert scaled.n_imfs == base.n_imfs
            for a, b in zip(scaled.components(), base.components()):
                assert _bits(a.values, np.ldexp(b.values, k))

