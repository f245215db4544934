"""Empirical mode decomposition: sifting, IMF extraction and the noise-assisted
ensemble variant (EEMD).

A signal is repeatedly sifted into intrinsic mode functions (IMFs), fastest
fluctuation first, until only a monotone residual remains. The sum of all
IMFs plus the residual reconstructs the input exactly up to float rounding.
EEMD runs the same decomposition over many noise-perturbed copies and
averages the aligned IMFs, which suppresses mode mixing.

The sift loop works on plain float64 arrays. ``TimeSeries`` appears only at
the boundary: the input of :func:`emd` and :func:`eemd`, and the IMFs and
residual of the returned ``Decomposition``, which :func:`emd` also gives
the ``SiftStats`` of each IMF.
One sift core extracts an IMF from K rows at once (:func:`extract_imf` is
its one-row call), and one level loop runs it over the rows of an array
(:func:`emd` is its one-row case, :func:`eemd` runs it over its trials).
Each sift pass scans the extrema of all rows once, and fits all their
envelopes, natural cubic splines bit-identical to scipy's ``CubicSpline``,
in one solve (:func:`_envelope_means`, :func:`_natural_splines`).
Squares of raw samples overflow above about 1e154 and underflow below about
1e-154, so beyond 2**+-500 the stopping ratio, the EEMD noise amplitude and
each row of the level loop are scaled by an exact power of two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (DataError, Decomposition, TimeSeries, _is_real, check_integers,
                   check_positive, pow2_exponent, spawn_rng)

BOUNDARY_MODES = ("mirror", "clamp")


class InsufficientExtremaError(ValueError):
    """Raised when a series lacks the extrema needed for envelope fitting."""


@dataclass(frozen=True)
class SiftConfig:
    """Controls of the iterative sifting loop.

    ``sd_threshold`` is the Cauchy-type stopping ratio
    sum((h_prev - h)^2) / sum(h_prev^2); sifting stops once it drops below
    the threshold and the envelope mean is locally near zero (see
    :func:`extract_imf`), or after ``max_sift_iterations`` passes.
    """

    sd_threshold: float = 0.2
    max_sift_iterations: int = 100
    max_imfs: int = 12
    boundary_mode: str = "mirror"

    def __post_init__(self):
        check_integers(1, max_sift_iterations=self.max_sift_iterations, max_imfs=self.max_imfs)
        check_positive(sd_threshold=self.sd_threshold)
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")


@dataclass(frozen=True)
class EemdConfig:
    """Ensemble decomposition controls.

    ``noise_amplitude`` scales the added uniform white noise as a fraction of
    the input's standard deviation; each trial's noise stream is a pure
    function of (seed, trial index).
    """

    ensemble_size: int = 100
    noise_amplitude: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_integers(1, ensemble_size=self.ensemble_size)
        check_integers(0, seed=self.seed)
        if not (_is_real(self.noise_amplitude)
                and 0 <= self.noise_amplitude <= sys.float_info.max):
            raise ValueError(f"noise_amplitude must be finite and >= 0, got {self.noise_amplitude}")


@dataclass(frozen=True)
class SiftStats:
    """Observability record for one extracted IMF."""

    iterations: int
    sd_at_stop: float
    converged: bool
    stop_reason: str  # "sd" | "iteration_cap" | "no_extrema"


@dataclass(frozen=True)
class SiftOutcome:
    """One extracted IMF and the remainder (input - IMF), as float64 arrays."""

    imf: np.ndarray
    remainder: np.ndarray
    stats: SiftStats


# ---------------------------------------------------------------------------
# Extrema and zero crossings
# ---------------------------------------------------------------------------

def count_zero_crossings(values: np.ndarray) -> int:
    """Sign changes between consecutive nonzero samples; exact zeros are skipped.

    A trailing all-zero run has no following sign and counts as its own
    level, so a series that ends by landing on zero registers that arrival
    as a crossing. ``values`` must be 1-D.
    """
    values = _one_row(values)[0]
    negative = np.signbit(values[values != 0])
    crossings = int(np.count_nonzero(negative[1:] != negative[:-1]))
    return crossings + int(negative.size > 0 and values[-1] == 0)


def _extrema(rows: np.ndarray) -> tuple:
    """:func:`find_extrema` of every row of a (K, T) array in one pass: the
    maxima and the minima as flat indices into ``rows``, in row-major order."""
    n = rows.shape[1]
    if n < 3:
        raise ValueError(f"extrema detection needs length >= 3, got {n}")
    v = rows.ravel()
    change = v[1:] != v[:-1]
    change[n - 1::n] = True  # every row starts a run
    last = change.nonzero()[0]  # the last sample of every run but the final one
    levels = np.concatenate((v[:1], v.take(last + 1)))  # of every run; its samples compare equal
    left, level, right = levels[:-2], levels[1:-1], levels[2:]  # run j + 1 and its neighbours
    maxima = (left < level) & (right < level)
    minima = (left > level) & (right > level)
    if rows.shape[0] > 1:  # drop the runs that start or end a row
        inner = np.ones(last.size, dtype=bool)
        inner[last.searchsorted(np.arange(n - 1, v.size - 1, n))] = False  # row ends
        inner = inner[:-1] & inner[1:]
        maxima &= inner
        minima &= inner
    mid = (last[:-1] + last[1:] + 1) >> 1
    return mid.compress(maxima), mid.compress(minima)  # faster than mid[maxima]


def _one_row(values) -> np.ndarray:
    """A 1-D array_like as the one row of a float64 array; any other shape is a ValueError."""
    row = np.asarray(values, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {row.shape}")
    return row.reshape(1, -1)


def find_extrema(values: np.ndarray) -> tuple:
    """Locate interior local maxima and minima.

    A run of equal samples is one extremum, at its midpoint (rounded down),
    when both of its neighbours lie below it (maximum) or above it
    (minimum). Runs that touch either end of the series are never extrema.

    Parameters
    ----------
    values : array_like
        1-D, length >= 3.

    Returns
    -------
    (maxima, minima) : tuple of int arrays
        Strictly increasing sample indices; maxima and minima interleave.
    """
    return _extrema(_one_row(values))


# ---------------------------------------------------------------------------
# Envelopes and sifting
# ---------------------------------------------------------------------------

# Status of one spline block or one sifted row; the ValueError messages are
# scipy's, in the order CubicSpline checks them.
_OK, _NO_EXTREMA, _BAD_Y, _BAD_SLOPE = range(4)
_SPLINE_ERRORS = {_BAD_Y: "`y` must contain only finite values.",
                  _BAD_SLOPE: "`dydx` must contain only finite values."}
_EVALUATION_POINTS = 1 << 12  # spline points evaluated per pass over the blocks


def _natural_splines(x: np.ndarray, y: np.ndarray, bounds: np.ndarray, n: int) -> tuple:
    """Natural cubic splines through blocks of knots, all evaluated at the
    sample grid ``0, 1, ..., n - 1``.

    Block j holds the knots ``x[a:b]``, ``y[a:b]`` with ``a, b = bounds[j],
    bounds[j + 1]``: at least 2, with ``x`` finite and strictly increasing,
    ``x[a] <= 0`` and ``x[b - 1] >= n - 1``. Row j of the returned (blocks,
    n) array is ``CubicSpline(x[a:b], y[a:b], bc_type="natural")`` at
    ``np.arange(n)`` bit for bit: scipy's tridiagonal system, its Hermite
    coefficients, and its evaluator's interval (the last knot at or below
    the point, at most the second to last) and summation order.

    All blocks are solved by one LAPACK ``dgtsv`` call on the block-diagonal
    system. Its coupling entries are zero, so each block is eliminated as
    if alone, up to the sign of zero terms, which the evaluation's leading
    ``0.0 +`` absorbs. The second array gives each block's status: ``_OK``,
    or the scipy check it fails (``_BAD_Y``, ``_BAD_SLOPE``), and the values
    of a failed block are 0. No numeric warning is raised.
    """
    first, last = bounds[:-1], bounds[1:] - 1
    status = np.where(np.logical_and.reduceat(np.isfinite(y), first), _OK, _BAD_Y)
    coupling = last[:-1]
    with np.errstate(all="ignore"):
        dx = x[1:] - x[:-1]
        rise = y[1:] - y[:-1]
        slope = rise / dx
        head, tail = dx[first], dx[last - 1]
        d = np.empty(x.size)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[first], d[last] = 2 * head, 2 * tail
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # scipy's end rows add -0.5 * 0.0 * dx**2 and 0.5 * 0.0 * dx**2 (zero
        # end curvature): -0.0 + v is v, and 0.0 + v turns -0.0 into 0.0
        b[first], b[last] = 3 * rise[first], 0.0 + 3 * rise[last - 1]
        sub = np.empty(dx.size)
        sub[:-1], sub[last - 1], sub[coupling] = dx[1:], tail, 0.0
        sup = np.empty(dx.size)
        sup[1:], sup[first], sup[coupling] = dx[:-1], head, 0.0
        # strictly diagonally dominant: no zero pivot, so dgtsv's info is 0.
        # Imported at the solve: loading scipy.linalg takes about 0.3 s.
        from scipy.linalg.lapack import dgtsv
        s = dgtsv(sub, d, sup, b, True, True, True, True)[3]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c1, c0 = (slope - s[:-1]) / dx - t, t / dx  # of z**2 and z**3
        # each point's interval is the last knot of its block at or below it
        # (at most the second to last): repeat each knot's index over the
        # points from it (the first grid point at or above it) to the next
        # knot, where a block's last knot reaches the end of its points.
        # Evaluated a few blocks at a time, so that the temporaries stay small.
        reach = np.minimum(np.maximum(np.ceil(x), 0), n).astype(np.intp)
        reach += np.arange(0, first.size * n, n).repeat(last - first + 1)
        reach[last] = np.arange(n, (first.size + 1) * n, n)
        points = reach[1:] - reach[:-1]
        values = np.empty((first.size, n))
        grid = np.arange(n, dtype=np.float64)
        chunk = max(1, _EVALUATION_POINTS // max(n, 1))
        for lo in range(0, first.size, chunk):
            start, stop = first[lo], last[min(lo + chunk, first.size) - 1]
            out = values[lo:lo + chunk]
            i = np.arange(start, stop).repeat(points[start:stop]).reshape(out.shape)
            z = grid - x.take(i)
            zz = z * z
            np.add(0.0, y.take(i), out=out)
            out += s.take(i) * z
            out += c1.take(i) * zz
            zz *= z
            out += c0.take(i) * zz
    finite_s = np.isfinite(s)
    if not finite_s.all():
        for j in (~np.logical_and.reduceat(finite_s, first) & (status == _OK)).nonzero()[0]:
            if first.size == 1:
                status[j] = _BAD_SLOPE
            else:  # NaN spreads through the zero coupling: solve the block alone
                block = slice(first[j], last[j] + 1)
                alone = _natural_splines(x[block], y[block], bounds[j:j + 2] - first[j], n)
                values[j], status[j] = alone[0][0], alone[1][0]
    if status.any():
        values[status != _OK] = 0.0
    return values, status


def _boundary_knots(sources: np.ndarray, row_starts: np.ndarray, bounds: np.ndarray,
                    last: int, mode: str) -> tuple:
    """Extend blocks of knots past both ends of their rows.

    Block j holds at least 2 knots, ``sources[a:b]`` with ``a, b = bounds[j],
    bounds[j + 1]``: strictly increasing flat indices of samples in the row
    that starts at ``row_starts[j]`` and whose last index is ``last``.
    ``mirror`` reflects the two knots nearest each end across that end;
    ``clamp`` adds the end samples. Returns the knots' positions in their
    rows (float), their sources and the new bounds. A boundary knot lands on
    an existing knot only where a knot is an end sample.
    """
    lo, hi = bounds[:-1], bounds[1:] - 1
    positions = sources - row_starts.repeat(hi - lo + 1)
    pad = 2 if mode == "mirror" else 1
    start = lo + np.arange(0, 2 * pad * lo.size, 2 * pad)  # of each extended block
    end = start + (hi - lo) + (2 * pad + 1)
    if mode == "mirror":
        ends = np.concatenate((start, start + 1, end - 2, end - 1))
        take = np.concatenate((lo + 1, lo, hi, hi - 1))
        end_sources = sources.take(take)
        end_positions = np.array([0.0, 2.0 * last]).repeat(2 * lo.size) - positions.take(take)
    else:
        ends = np.concatenate((start, end - 1))
        end_sources = np.concatenate((row_starts, row_starts + last))
        end_positions = np.array([0.0, last]).repeat(lo.size)
    xs, src = np.empty(end[-1]), np.empty(end[-1], dtype=np.intp)
    body = np.ones(end[-1], dtype=bool)  # faster to write through than the body's indices
    body[ends] = False
    xs[body], src[body] = positions, sources
    xs[ends], src[ends] = end_positions, end_sources
    return xs, src, np.concatenate((start, end[-1:]))


def envelope(values: np.ndarray, knots, mode: str = "mirror") -> np.ndarray:
    """Natural cubic spline through the samples at ``knots``, at every index.

    The one-block case of the spline solve that each sift step runs over
    the upper and lower envelopes of all its rows at once.

    Parameters
    ----------
    values : array_like
        The 1-D series: supplies the knot values and the length.
    knots : sequence of int
        At least 2 sample indices, strictly increasing, in ``[0, T)`` (the
        maxima or the minima from :func:`find_extrema`); anything else is
        a ValueError.
    mode : {"mirror", "clamp"}
        ``mirror`` reflects the two knots nearest each end across that end
        before fitting; ``clamp`` pins the end samples as extra knots. A
        boundary knot that lands on an existing knot is dropped.
    """
    values = _one_row(values)[0]
    check_integers(0, **{f"knots[{i}]": knot for i, knot in enumerate(knots)})
    knots = np.asarray(knots, dtype=np.intp)
    if knots.size < 2:
        raise InsufficientExtremaError(f"envelope needs at least 2 knots, got {knots.size}")
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"mode must be one of {BOUNDARY_MODES}")
    if not (knots[1:] > knots[:-1]).all() or knots[-1] >= values.size:
        raise ValueError(f"knots must be strictly increasing in [0, {values.size}), "
                         f"got {knots.tolist()}")
    xs, sources, _ = _boundary_knots(knots, np.zeros(1, dtype=np.intp),
                                     np.array([0, knots.size]), values.size - 1, mode)
    # the boundary knots keep the order sorted, so duplicates are adjacent
    keep = np.concatenate(([True], xs[1:] != xs[:-1]))
    spline, status = _natural_splines(xs[keep],
                                      np.asarray(values[sources[keep]], dtype=np.float64),
                                      np.array([0, np.count_nonzero(keep)]), values.size)
    if status[0] != _OK:
        raise ValueError(_SPLINE_ERRORS[status[0]])
    return spline[0]


def _envelope_means(rows: np.ndarray, mode: str) -> tuple:
    """For every row of a (K, T) array: the mean of its upper and lower
    envelopes (0 unless the status is ``_OK``), formed in the spline's own
    buffer, its number of extrema, and its status: ``_NO_EXTREMA`` below 2
    maxima or 2 minima, else the first spline check that fails, upper first.
    Searching the sorted maxima and minima for the row starts bounds each
    row's knots. One spline solve fits all envelopes, the upper ones first;
    extrema are interior, so no boundary knot lands on a knot."""
    k, n = rows.shape
    maxima, minima = _extrema(rows)
    starts = np.arange(0, k * n + 1, n)  # of every row, then the end
    bounds = np.concatenate((maxima.searchsorted(starts[:-1]),
                             minima.searchsorted(starts) + maxima.size))
    counts = bounds[1:] - bounds[:-1]  # the maxima of each row, then the minima
    n_extrema = counts[:k] + counts[k:]
    fit = np.minimum(counts[:k], counts[k:]) >= 2
    status = np.where(fit, _OK, _NO_EXTREMA)
    rows_fit = fit.nonzero()[0]
    knots, blocks = np.concatenate((maxima, minima)), np.concatenate((starts[:-1], starts[:-1]))
    if rows_fit.size < k:
        if not rows_fit.size:
            return np.zeros((k, n)), n_extrema, status
        keep = np.concatenate((fit, fit))
        knots, blocks, counts = knots.compress(keep.repeat(counts)), blocks[keep], counts[keep]
        bounds = np.concatenate(([0], counts.cumsum()))
    xs, sources, bounds = _boundary_knots(knots, blocks, bounds, n - 1, mode)
    spline, spline_status = _natural_splines(xs, rows.take(sources), bounds, n)
    mean = np.add(spline[:rows_fit.size], spline[rows_fit.size:], out=spline[:rows_fit.size])
    mean /= 2.0
    if spline_status.any():
        upper, lower = spline_status[:rows_fit.size], spline_status[rows_fit.size:]
        status[rows_fit] = np.where(upper != _OK, upper, lower)
    if rows_fit.size < k:
        mean, fitted = np.zeros((k, n)), mean
        mean[rows_fit] = fitted
    return mean, n_extrema, status


def _sd_ratios(h_prev: np.ndarray, h: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Per row: sum((h_prev - h)^2) / sum(h_prev^2), 0 where h_prev is all
    zero, on both scaled by the row's own power of two (:func:`pow2_exponent`
    of its ``amplitude``, max|h_prev|)."""
    e = np.frexp(amplitude)[1]  # pow2_exponent of each row: amplitude is max|h_prev|
    e *= abs(e) > 500
    step = h_prev - h
    if e.any():
        h_prev, step = np.ldexp(h_prev, -e[:, None]), np.ldexp(step, -e[:, None])
    denom = np.square(h_prev).sum(axis=1)
    num = np.square(step, out=step).sum(axis=1)
    positive = denom > 0
    if positive.all():
        return num / denom
    return np.where(positive, num / np.where(positive, denom, 1.0), 0.0)


_ENVELOPE_MEAN_RATIO = 0.1  # local-zero-mean bound, relative to IMF amplitude


def _sift(rows: np.ndarray, cfg: SiftConfig) -> list:
    """:func:`extract_imf` of every row of a (K, T) float64 array, in
    lockstep: per row its ``SiftOutcome``, or the exception ``extract_imf``
    raises for that row alone. Each pass finds the extrema of all rows still
    sifting and fits all their envelopes in one spline solve
    (:func:`_envelope_means`); then each row takes its own stopping
    decision, and the rows that stop leave the batch."""
    outcomes = [None] * rows.shape[0]

    def stop(r, h, sd, iterations, reason):  # a copy, not a view of the pass's whole batch
        outcomes[r] = SiftOutcome(imf=h.copy(), remainder=rows[r] - h, stats=SiftStats(
            iterations=iterations, sd_at_stop=float(sd), converged=(reason == "sd"),
            stop_reason=reason))

    live, h = np.arange(rows.shape[0]), rows
    sd = np.inf  # no stopping ratio before the first subtraction: no row converges
    for iterations in range(cfg.max_sift_iterations):  # the subtractions so far
        mean, n_extrema, status = _envelope_means(h, cfg.boundary_mode)
        amplitude = np.abs(h).max(axis=1)  # > 0 where status is _OK (2 maxima)
        check = ((sd < cfg.sd_threshold) & (status == _OK)).nonzero()[0]
        peak = np.abs(mean.take(check, axis=0)).max(axis=1)
        check = check.compress(peak < _ENVELOPE_MEAN_RATIO * amplitude.take(check))
        converged = [j for j in check if abs(n_extrema[j] - count_zero_crossings(h[j])) <= 1]
        if converged or status.any():
            going = status == _OK
            going[converged] = False
            for j in (~going).nonzero()[0]:
                if status[j] > _NO_EXTREMA:
                    outcomes[live[j]] = ValueError(_SPLINE_ERRORS[status[j]])
                elif status[j] == _NO_EXTREMA and not iterations:
                    outcomes[live[j]] = InsufficientExtremaError(
                        "IMF extraction needs at least 2 maxima and 2 minima")
                else:
                    stop(live[j], h[j], sd[j], iterations,
                         "no_extrema" if status[j] == _NO_EXTREMA else "sd")
            live, amplitude = live.compress(going), amplitude.compress(going)
            h, mean = h.compress(going, axis=0), mean.compress(going, axis=0)
            if not live.size:
                return outcomes
        h_prev, h = h, np.subtract(h, mean, out=mean)  # the envelope mean is not needed again
        sd = _sd_ratios(h_prev, h, amplitude)
    for j, r in enumerate(live):
        stop(r, h[j], sd[j], cfg.max_sift_iterations, "iteration_cap")
    return outcomes


def extract_imf(values: np.ndarray, cfg: SiftConfig = SiftConfig()) -> SiftOutcome:
    """Sift one IMF out of a series.

    Subtracts the envelope mean until the candidate actually qualifies as
    an IMF: the stopping ratio is below ``cfg.sd_threshold``, extrema and
    zero-crossing counts balance to within one, and the envelope mean is
    locally near zero (below 0.1x the IMF amplitude everywhere). The
    ratio alone stops too early, leaving boundary bias and riding waves;
    the extra conditions typically cost only a few more passes. Gives up
    at ``cfg.max_sift_iterations``. Returns the IMF, the remainder
    (values - IMF) and per-extraction statistics; raises
    :class:`InsufficientExtremaError` when the input has fewer than 2
    maxima or 2 minima, and a ValueError unless ``values`` is 1-D. The
    one-row call of the lockstep sift that the level loop of :func:`emd`
    and :func:`eemd` runs over its rows.
    """
    outcome = _sift(_one_row(values), cfg)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# EMD / EEMD
# ---------------------------------------------------------------------------

# Samples sifted in one lockstep batch (32 rows of 512 points). Larger
# batches run no faster, and their arrays grow the process's heap.
_BATCH_SAMPLES = 1 << 14


def _rescaled(values: np.ndarray, e, name: str) -> np.ndarray:
    """``values * 2**e``; a value the scaling takes beyond the float range is
    a DataError naming the component, not an overflow warning. At e = 0 it
    is ``values`` itself."""
    if not e:
        return values
    with np.errstate(over="ignore"):
        scaled = np.ldexp(values, e)
    if np.any(np.isinf(scaled) & np.isfinite(values)):
        raise DataError(f"{name}: scaling the component back to the series' magnitude "
                        f"passes the float range")
    return scaled


def _decompose(rows: np.ndarray, cfg: SiftConfig) -> list:
    """EMD of every row of a (K, T) float64 array: per row its IMFs, their
    ``SiftStats`` and its residual, as arrays. Each row is sifted times
    2**-e, e its :func:`pow2_exponent`, and its IMFs are scaled back; the
    rows go through :func:`_sift` one IMF level at a time, in batches of up
    to 2**14 samples. A row's residual is the row minus its IMFs, in
    extraction order: the scaled remainder's bits where scaling is exact,
    and a complete sum where the IMFs round (below 2**-500). The lowest
    failing row raises its error; after it fails, only the rows below it
    are sifted further."""
    k, length = rows.shape
    if length < 4:
        raise DataError(f"decomposition needs length >= 4, got {length}")
    exponents = pow2_exponent(rows, axis=1)[:, 0]
    remainders = np.ldexp(rows, -exponents[:, None])
    imfs, stats = [[] for _ in range(k)], [[] for _ in range(k)]
    failure = None  # (row, error) of the lowest row that has failed
    live = np.arange(k)
    batch = max(1, _BATCH_SAMPLES // length)
    for level in range(1, cfg.max_imfs + 1):
        outcomes = []
        for lo in range(0, live.size, batch):
            outcomes += _sift(remainders[live[lo:lo + batch]], cfg)
        extracted = []
        for r, outcome in zip(live, outcomes):
            if isinstance(outcome, InsufficientExtremaError):
                continue
            if not isinstance(outcome, Exception):
                try:
                    imfs[r].append(_rescaled(outcome.imf, exponents[r], f"imf_{level}"))
                except DataError as exc:
                    outcome = exc
            if isinstance(outcome, Exception):  # the later rows no longer matter
                failure = r, outcome
                break
            stats[r].append(outcome.stats)
            remainders[r] = outcome.remainder
            extracted.append(r)
        live = np.array(extracted, dtype=np.intp)
        if not live.size:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = [reduce(np.subtract, imfs[r], rows[r])
                     for r in range(k if failure is None else failure[0])]
    if not all(np.isfinite(residual).all() for residual in residuals):
        raise DataError("residual: the row minus its IMFs passes the float range")
    if failure is not None:
        raise failure[1]
    return list(zip(imfs, stats, residuals))


def emd(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Decompose a series into IMFs plus a monotone residual, with one
    ``SiftStats`` per IMF in ``sift_stats``: the one-row case of the level
    loop that :func:`eemd` runs over its trials. Extraction repeats on the
    running remainder until it has fewer than two maxima or two minima, or
    ``cfg.max_imfs`` is reached. Beyond 2**+-500 the series is sifted scaled
    by an exact power of two; the residual is the series minus its IMFs."""
    (imfs, stats, residual), = _decompose(series.values.reshape(1, -1), cfg)
    return Decomposition(imfs=tuple(TimeSeries(imf, series.labels) for imf in imfs),
                         residual=TimeSeries(residual, series.labels), sift_stats=tuple(stats))


def eemd(series: TimeSeries, cfg: EemdConfig = EemdConfig(),
         sift: SiftConfig = SiftConfig()) -> Decomposition:
    """Ensemble decomposition: average IMFs over noise-perturbed trials.

    Each trial adds zero-mean uniform white noise with amplitude
    ``cfg.noise_amplitude * std(series)`` (trial t draws it from
    ``spawn_rng(cfg.seed, t)``), decomposes it as ``emd(trial, sift)``
    does, and the i-th IMFs are averaged across trials. Trials yielding
    fewer IMFs are padded with zero series before averaging; residuals
    average like any component. Deterministic given ``cfg.seed``.

    The trials are the rows of the level loop that :func:`emd` runs on one
    row, sifted in lockstep one IMF level at a time, each at its own power
    of two. The result is bit-identical to decomposing the trials one after
    another: the sums run in trial order, and a failure raises the error of
    the lowest failing trial. The result's ``sift_stats`` is None: per-trial
    statistics are not aggregated. Above 2**500 the series and its noise are
    scaled down by one power of two, so that noisy samples and sums stay
    finite, and the averages are scaled back.

    Parameters
    ----------
    series : TimeSeries
        Input, length >= 4.
    cfg : EemdConfig
        Ensemble controls.
    sift : SiftConfig
        Sifting controls of every trial.
    """
    e = pow2_exponent(series.values)
    amplitude = cfg.noise_amplitude * float(np.ldexp(np.std(np.ldexp(series.values, -e)), e))
    if not math.isfinite(amplitude):
        raise ValueError(f"noise_amplitude {cfg.noise_amplitude} times the series std overflows")
    n_trials, length = cfg.ensemble_size, len(series)
    s = max(0, pow2_exponent(np.array([np.max(np.abs(series.values)), amplitude])))
    scaled, noise = np.ldexp(series.values, -s), float(np.ldexp(amplitude, -s))
    rows = np.tile(scaled, (n_trials, 1))
    if noise > 0:
        for t in range(n_trials):
            rows[t] += spawn_rng(cfg.seed, t).uniform(-noise, noise, length)
    trials = _decompose(rows, sift)
    sums = np.zeros((max(len(imfs) for imfs, _, _ in trials) + 1, length))
    for imfs, _, residual in trials:  # fixed trial order keeps the sums deterministic
        for total, component in zip(sums, [residual, *imfs]):
            total += component
    names = ["residual"] + [f"imf_{i}" for i in range(1, len(sums))]
    components = [TimeSeries(_rescaled(total / n_trials, s, name), series.labels)
                  for total, name in zip(sums, names)]
    return Decomposition(imfs=components[1:], residual=components[0])
