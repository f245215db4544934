"""Empirical mode decomposition: sifting, IMF extraction and the noise-assisted
ensemble variant (EEMD).

A signal is repeatedly sifted into intrinsic mode functions (IMFs), fastest
fluctuation first, until only a monotone residual remains. The sum of all
IMFs plus the residual reconstructs the input exactly up to float rounding.
EEMD runs the same decomposition over many noise-perturbed copies and
averages the aligned IMFs, which suppresses mode mixing.

The sift loop works on plain float64 arrays. ``TimeSeries`` appears only at
the boundary: the input of :func:`emd`, :func:`emd_with_stats` and
:func:`eemd`, and the IMFs and residual of the returned ``Decomposition``.
Each sift step scans the extrema once (:func:`find_extrema`, whole-array
comparisons over runs of equal samples); the envelope mean and the balance
test share that scan. Each envelope is a natural cubic spline solved
directly: one LAPACK ``dgtsv`` call on the tridiagonal system, then the
Hermite polynomials at every index, with scipy's ``CubicSpline`` arithmetic
repeated operation for operation, so the envelopes are bit-identical to it.
Squares of raw samples overflow above about 1e154 and underflow below about
1e-154, so beyond 2**+-500 the stopping ratio and the EEMD noise amplitude
are computed on samples scaled by an exact power of two, and so is the whole
decomposition, which keeps the envelope splines finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import DataError, Decomposition, TimeSeries, pow2_exponent, spawn_rng

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
        if not (math.isfinite(self.sd_threshold) and self.sd_threshold > 0):
            raise ValueError("sd_threshold must be positive and finite")
        if self.max_sift_iterations < 1:
            raise ValueError("max_sift_iterations must be >= 1")
        if self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1")
        if self.boundary_mode not in BOUNDARY_MODES:
            raise ValueError(f"boundary_mode must be one of {BOUNDARY_MODES}")


@dataclass(frozen=True)
class EemdConfig:
    """Ensemble decomposition controls.

    ``noise_amplitude`` scales the added uniform white noise as a fraction of
    the input's standard deviation; each trial's noise stream is a pure
    function of (seed, trial index).
    """

    sift: SiftConfig = field(default_factory=SiftConfig)
    ensemble_size: int = 100
    noise_amplitude: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if not (math.isfinite(self.noise_amplitude) and self.noise_amplitude >= 0):
            raise ValueError("noise_amplitude must be finite and >= 0")


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
    as a crossing.
    """
    values = np.asarray(values, dtype=np.float64)
    negative = np.signbit(values[values != 0])
    crossings = int(np.count_nonzero(negative[1:] != negative[:-1]))
    return crossings + int(negative.size > 0 and values[-1] == 0)


def find_extrema(values: np.ndarray) -> tuple:
    """Locate interior local maxima and minima.

    A run of equal samples is one extremum, at its midpoint (rounded down),
    when both of its neighbours lie below it (maximum) or above it
    (minimum). Runs that touch either end of the series are never extrema.

    Parameters
    ----------
    values : array_like
        Length >= 3.

    Returns
    -------
    (maxima, minima) : tuple of int arrays
        Strictly increasing sample indices; maxima and minima interleave.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3:
        raise ValueError(f"extrema detection needs length >= 3, got {v.size}")
    starts = np.flatnonzero(v[1:] != v[:-1]) + 1
    first, end = starts[:-1], starts[1:] - 1  # the runs with a neighbour on each side
    level, left, right = v[first], v[first - 1], v[end + 1]
    mid = (first + end) // 2
    return mid[(left < level) & (right < level)], mid[(left > level) & (right > level)]


# ---------------------------------------------------------------------------
# Envelopes and sifting
# ---------------------------------------------------------------------------

def _natural_spline(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``CubicSpline(x, y, bc_type="natural")(at)`` bit for bit, for ``x``
    finite and strictly increasing and ``at`` within ``[x[0], x[-1]]``: scipy's
    tridiagonal system and LAPACK ``dgtsv`` solve, its Hermite coefficients,
    and its evaluator's interval search and summation order. Non-finite knot
    values or slopes raise scipy's ``ValueError``, with no numeric warning."""
    if not np.isfinite(y).all():
        raise ValueError("`y` must contain only finite values.")
    n = x.size
    with np.errstate(all="ignore"):
        dx = x[1:] - x[:-1]
        rise = y[1:] - y[:-1]
        slope = rise / dx
        d = np.empty(n)
        d[0], d[-1] = 2 * dx[0], 2 * dx[-1]
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        b = np.empty(n)
        # scipy's end rows add -0.5 * 0.0 * dx**2 and 0.5 * 0.0 * dx**2 (zero
        # end curvature): -0.0 + v is v, and 0.0 + v turns -0.0 into 0.0
        b[0], b[-1] = 3 * rise[0], 0.0 + 3 * rise[-1]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # strictly diagonally dominant: no zero pivot, so dgtsv's info is 0
        s = dgtsv(np.concatenate((dx[1:], dx[-1:])), d, np.concatenate((dx[:1], dx[:-1])),
                  b, True, True, True, True)[3]
        if not np.isfinite(s).all():
            raise ValueError("`dydx` must contain only finite values.")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c1, c0 = (slope - s[:-1]) / dx - t, t / dx  # of z**2 and z**3
        i = np.minimum(np.searchsorted(x, at, "right") - 1, n - 2)
        z = at - x[i]
        zz = z * z
        return 0.0 + y[i] + s[i] * z + c1[i] * zz + c0[i] * (zz * z)


def envelope(values: np.ndarray, knots, mode: str = "mirror") -> np.ndarray:
    """Natural cubic spline through the samples at ``knots``, at every index.

    Parameters
    ----------
    values : np.ndarray
        The series: supplies the knot values and the length.
    knots : array_like of int
        At least 2 sample indices, strictly increasing (the maxima or the
        minima from :func:`find_extrema`).
    mode : {"mirror", "clamp"}
        ``mirror`` reflects the two knots nearest each end across that end
        before fitting; ``clamp`` pins the end samples as extra knots. A
        boundary knot that lands on an existing knot is dropped.
    """
    knots = np.asarray(knots, dtype=np.intp)
    if knots.size < 2:
        raise InsufficientExtremaError(
            f"envelope needs at least 2 knots, got {knots.size}"
        )
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"mode must be one of {BOUNDARY_MODES}")
    last = values.size - 1
    # the boundary knots keep the order sorted, so duplicates are adjacent
    if mode == "mirror":
        xs = np.concatenate((-knots[1::-1], knots, 2 * last - knots[:-3:-1]))
        sources = np.concatenate((knots[1::-1], knots, knots[:-3:-1]))
    else:
        xs = sources = np.concatenate(([0], knots, [last]))
    keep = np.concatenate(([True], xs[1:] != xs[:-1]))
    return _natural_spline(xs[keep].astype(np.float64),
                           np.asarray(values[sources[keep]], dtype=np.float64),
                           np.arange(values.size, dtype=np.float64))


def _envelope_mean(values: np.ndarray, cfg: SiftConfig) -> tuple:
    """Mean of the upper and lower envelopes (None when there are fewer than
    2 maxima or 2 minima), and the number of extrema."""
    maxima, minima = find_extrema(values)
    n_extrema = maxima.size + minima.size
    if maxima.size < 2 or minima.size < 2:
        return None, n_extrema
    upper = envelope(values, maxima, cfg.boundary_mode)
    lower = envelope(values, minima, cfg.boundary_mode)
    return (upper + lower) / 2.0, n_extrema


_ENVELOPE_MEAN_RATIO = 0.1  # local-zero-mean bound, relative to IMF amplitude


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
    maxima or 2 minima.
    """
    values = np.asarray(values, dtype=np.float64)
    mean, _ = _envelope_mean(values, cfg)
    if mean is None:
        raise InsufficientExtremaError(
            "IMF extraction needs at least 2 maxima and 2 minima"
        )

    h_prev = values
    iterations = 0
    sd = np.inf
    stop_reason = "iteration_cap"
    while iterations < cfg.max_sift_iterations:
        h = h_prev - mean
        iterations += 1
        e = pow2_exponent(h_prev)
        denom = float(np.sum(np.ldexp(h_prev, -e) ** 2))
        sd = float(np.sum(np.ldexp(h_prev - h, -e) ** 2) / denom) if denom > 0 else 0.0
        h_prev = h
        if iterations >= cfg.max_sift_iterations:
            break
        mean, n_extrema = _envelope_mean(h_prev, cfg)
        if mean is None:
            stop_reason = "no_extrema"
            break
        amplitude = float(np.max(np.abs(h_prev)))
        if sd < cfg.sd_threshold and (
            amplitude == 0.0
            or (
                float(np.max(np.abs(mean))) < _ENVELOPE_MEAN_RATIO * amplitude
                and abs(n_extrema - count_zero_crossings(h_prev)) <= 1
            )
        ):
            stop_reason = "sd"
            break

    stats = SiftStats(
        iterations=iterations,
        sd_at_stop=sd,
        converged=(stop_reason == "sd"),
        stop_reason=stop_reason,
    )
    return SiftOutcome(imf=h_prev, remainder=values - h_prev, stats=stats)


# ---------------------------------------------------------------------------
# EMD / EEMD
# ---------------------------------------------------------------------------

def _rescaled(series: TimeSeries, values: np.ndarray, e) -> TimeSeries:
    """``values * 2**e`` with the labels of ``series``; a value the scaling
    takes beyond the float range is a DataError, not an overflow warning."""
    with np.errstate(over="ignore"):
        return series.replace_values(np.ldexp(values, e))


def emd_with_stats(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> tuple:
    """Full decomposition plus per-IMF sift statistics. Beyond 2**+-500 the
    series is sifted scaled by an exact power of two and the components are
    scaled back, so the envelope splines cannot overflow."""
    if len(series) < 4:
        raise DataError(f"decomposition needs length >= 4, got {len(series)}")
    e = pow2_exponent(series.values)
    remainder = np.ldexp(series.values, -e)
    imfs = []
    stats = []
    while len(imfs) < cfg.max_imfs:
        try:
            outcome = extract_imf(remainder, cfg)
        except InsufficientExtremaError:
            break
        imfs.append(_rescaled(series, outcome.imf, e))
        stats.append(outcome.stats)
        remainder = outcome.remainder
    decomp = Decomposition(imfs=tuple(imfs), residual=_rescaled(series, remainder, e),
                           source_length=len(series))
    return decomp, stats


def emd(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> Decomposition:
    """Decompose a series into IMFs plus a monotone residual.

    Extraction repeats on the running remainder until it has fewer than two
    maxima or two minima, or ``cfg.max_imfs`` is reached.
    """
    return emd_with_stats(series, cfg)[0]


def _eemd_trial(series: TimeSeries, cfg: EemdConfig, amplitude: float, trial: int):
    if amplitude > 0:
        rng = spawn_rng(cfg.seed, trial)
        noisy = series.values + rng.uniform(-amplitude, amplitude, len(series))
        perturbed = TimeSeries(noisy)
    else:
        perturbed = series
    return emd(perturbed, cfg.sift)


def eemd(series: TimeSeries, cfg: EemdConfig = EemdConfig()) -> Decomposition:
    """Ensemble decomposition: average IMFs over noise-perturbed trials.

    Each trial adds zero-mean uniform white noise with amplitude
    ``cfg.noise_amplitude * std(series)``, decomposes it, and the i-th IMFs
    are averaged across trials. Trials yielding fewer IMFs are padded with
    zero series before averaging; residuals average like any component.
    Deterministic given ``cfg.seed``.

    Parameters
    ----------
    series : TimeSeries
        Input, length >= 4.
    cfg : EemdConfig
        Ensemble controls.
    """
    if len(series) < 4:
        raise DataError(f"decomposition needs length >= 4, got {len(series)}")
    e = pow2_exponent(series.values)
    amplitude = cfg.noise_amplitude * float(np.ldexp(np.std(np.ldexp(series.values, -e)), e))
    if not math.isfinite(amplitude):
        raise ValueError(f"noise_amplitude {cfg.noise_amplitude} times the series std overflows")
    n_trials = cfg.ensemble_size

    # the trials run on series and noise scaled by 2**-s, so that noisy
    # samples and trial sums stay finite
    s = pow2_exponent(np.array([np.max(np.abs(series.values)), amplitude]))
    scaled = TimeSeries(np.ldexp(series.values, -s))
    trials = [_eemd_trial(scaled, cfg, float(np.ldexp(amplitude, -s)), t)
              for t in range(n_trials)]

    n_imfs = max(d.n_imfs for d in trials)
    length = len(series)
    imf_sums = [np.zeros(length) for _ in range(n_imfs)]
    residual_sum = np.zeros(length)
    for d in trials:  # fixed trial order keeps the reduction deterministic
        for i, imf in enumerate(d.imfs):
            imf_sums[i] += imf.values
        residual_sum += d.residual.values

    imfs = tuple(_rescaled(series, total / n_trials, s) for total in imf_sums)
    residual = _rescaled(series, residual_sum / n_trials, s)
    return Decomposition(imfs=imfs, residual=residual, source_length=length)
