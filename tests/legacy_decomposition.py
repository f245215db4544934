"""The decomposition layer as it was before the sift loop moved onto plain
arrays, frozen as a test oracle: ``(index, value)`` extrema tuples in an
``ExtremaSet``, per-sample loops for plateaus and zero crossings, a
``TimeSeries`` per sift pass, dict-built spline knots, a second extrema scan
for the balance test and a pre-check scan per IMF. Its sift ratio and EEMD
noise amplitude square the raw values, as they did then.
``tests/test_decomposition_oracle.py`` checks that ``modecast.decomposition``
reproduces it bit for bit. Do not edit it to make that test pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from modecast.core import DataError, Decomposition, TimeSeries, spawn_rng
from modecast.decomposition import (
    BOUNDARY_MODES,
    EemdConfig,
    InsufficientExtremaError,
    SiftConfig,
    SiftStats,
)


@dataclass(frozen=True)
class ExtremaSet:
    """Local maxima/minima as (index, value) pairs plus the zero-crossing count."""

    maxima: tuple
    minima: tuple
    zero_crossings: int


@dataclass(frozen=True)
class SiftOutcome:
    imf: TimeSeries
    remainder: TimeSeries
    stats: SiftStats


# ---------------------------------------------------------------------------
# Extrema and zero crossings
# ---------------------------------------------------------------------------

def _plateau_extrema(values: np.ndarray, sign: int) -> list:
    """Interior extrema of ``sign * values``; equal-value plateaus contribute
    one extremum at the plateau midpoint (rounded down)."""
    v = sign * values
    n = v.size
    out = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and v[j + 1] == v[i]:
            j += 1
        # run [i..j]; interior and higher than both flanks
        if j < n - 1 and v[i - 1] < v[i] and v[j + 1] < v[i]:
            mid = (i + j) // 2
            out.append((mid, float(values[mid])))
        i = j + 1
    return out


def count_zero_crossings(values: np.ndarray) -> int:
    """Strict sign changes; exact zeros take the sign that follows them.

    A trailing all-zero run has no following sign and counts as its own
    level, so a series that ends by landing on zero registers that arrival
    as a crossing.
    """
    signs = np.sign(values)
    effective = signs.copy()
    nxt = 0.0  # sign of the first nonzero value after position i
    for i in range(signs.size - 1, -1, -1):
        if signs[i] == 0.0:
            effective[i] = nxt
        else:
            nxt = signs[i]
    return int(np.count_nonzero(effective[1:] != effective[:-1]))


def find_extrema(series: TimeSeries) -> ExtremaSet:
    """Locate interior local maxima/minima and count zero crossings.

    Parameters
    ----------
    series : TimeSeries
        Length >= 3.

    Returns
    -------
    ExtremaSet
        Strictly increasing (index, value) lists; maxima and minima
        interleave. Plateaus count once, at their midpoint.
    """
    if len(series) < 3:
        raise ValueError(f"extrema detection needs length >= 3, got {len(series)}")
    values = series.values
    return ExtremaSet(
        maxima=tuple(_plateau_extrema(values, +1)),
        minima=tuple(_plateau_extrema(values, -1)),
        zero_crossings=count_zero_crossings(values),
    )


# ---------------------------------------------------------------------------
# Envelopes and sifting
# ---------------------------------------------------------------------------

def _extend_knots(knots, n: int, mode: str, values: np.ndarray) -> tuple:
    """Knot set augmented at both ends per the boundary mode."""
    pos = {int(x): float(v) for x, v in knots}
    if mode == "mirror":
        # Reflect the two extrema nearest each end across that end.
        for x, v in knots[:2]:
            pos.setdefault(-int(x), float(v))
        last = n - 1
        for x, v in knots[-2:]:
            pos.setdefault(2 * last - int(x), float(v))
    else:  # clamp: pin the series end values as additional knots
        pos.setdefault(0, float(values[0]))
        pos.setdefault(n - 1, float(values[-1]))
    xs = np.array(sorted(pos), dtype=np.float64)
    vs = np.array([pos[int(x)] for x in xs], dtype=np.float64)
    return xs, vs


def envelope(series: TimeSeries, knots, mode: str = "mirror") -> TimeSeries:
    """Natural cubic spline through extrema knots, sampled at every index.

    Parameters
    ----------
    series : TimeSeries
        Supplies the length and, in clamp mode, the end values.
    knots : sequence of (index, value)
        At least 2 extrema, indices strictly increasing.
    mode : {"mirror", "clamp"}
        ``mirror`` reflects the two nearest extrema across each end before
        fitting; ``clamp`` pins the end samples as extra knots.
    """
    knots = list(knots)
    if len(knots) < 2:
        raise InsufficientExtremaError(
            f"envelope needs at least 2 knots, got {len(knots)}"
        )
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"mode must be one of {BOUNDARY_MODES}")
    n = len(series)
    xs, vs = _extend_knots(knots, n, mode, series.values)
    spline = CubicSpline(xs, vs, bc_type="natural")
    return series.replace_values(spline(np.arange(n, dtype=np.float64)))


def _envelope_mean(values: np.ndarray, cfg: SiftConfig) -> Optional[np.ndarray]:
    """Mean of upper and lower envelopes, or None when extrema are too few."""
    series = TimeSeries(values)
    ext = find_extrema(series)
    if len(ext.maxima) < 2 or len(ext.minima) < 2:
        return None
    upper = envelope(series, ext.maxima, cfg.boundary_mode).values
    lower = envelope(series, ext.minima, cfg.boundary_mode).values
    return (upper + lower) / 2.0


def sift_once(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> TimeSeries:
    """One elementary sifting step: subtract the mean envelope.

    Requires at least 2 maxima and 2 minima.
    """
    mean = _envelope_mean(series.values, cfg)
    if mean is None:
        raise InsufficientExtremaError(
            "sifting needs at least 2 maxima and 2 minima"
        )
    return series.replace_values(series.values - mean)


_ENVELOPE_MEAN_RATIO = 0.1  # local-zero-mean bound, relative to IMF amplitude


def _is_balanced(values: np.ndarray) -> bool:
    """Extrema and zero-crossing counts equal or differing by at most one."""
    ext = find_extrema(TimeSeries(values))
    n_extrema = len(ext.maxima) + len(ext.minima)
    return abs(n_extrema - ext.zero_crossings) <= 1


def extract_imf(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> SiftOutcome:
    """Sift one IMF out of a series.

    Iterates :func:`sift_once` until the candidate actually qualifies as an
    IMF: the stopping ratio is below ``cfg.sd_threshold``, extrema and
    zero-crossing counts balance to within one, and the envelope mean is
    locally near zero (below 0.1x the IMF amplitude everywhere). The
    ratio alone stops too early, leaving boundary bias and riding waves;
    the extra conditions typically cost only a few more passes. Gives up
    at ``cfg.max_sift_iterations``. Returns the IMF, the remainder
    (series - IMF) and per-extraction statistics.
    """
    h_prev = series.values.copy()
    mean = _envelope_mean(h_prev, cfg)
    if mean is None:
        raise InsufficientExtremaError(
            "IMF extraction needs at least 2 maxima and 2 minima"
        )

    iterations = 0
    sd = np.inf
    stop_reason = "iteration_cap"
    while iterations < cfg.max_sift_iterations:
        h = h_prev - mean
        iterations += 1
        denom = float(np.sum(h_prev * h_prev))
        sd = float(np.sum((h_prev - h) ** 2) / denom) if denom > 0 else 0.0
        h_prev = h
        if iterations >= cfg.max_sift_iterations:
            break
        mean = _envelope_mean(h_prev, cfg)
        if mean is None:
            stop_reason = "no_extrema"
            break
        amplitude = float(np.max(np.abs(h_prev)))
        if sd < cfg.sd_threshold and (
            amplitude == 0.0
            or (
                float(np.max(np.abs(mean))) < _ENVELOPE_MEAN_RATIO * amplitude
                and _is_balanced(h_prev)
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
    imf = series.replace_values(h_prev)
    remainder = series.replace_values(series.values - h_prev)
    return SiftOutcome(imf=imf, remainder=remainder, stats=stats)


# ---------------------------------------------------------------------------
# EMD / EEMD
# ---------------------------------------------------------------------------

def emd_with_stats(series: TimeSeries, cfg: SiftConfig = SiftConfig()) -> tuple:
    """Full decomposition plus per-IMF sift statistics."""
    if len(series) < 4:
        raise DataError(f"decomposition needs length >= 4, got {len(series)}")
    remainder = series
    imfs = []
    stats = []
    while len(imfs) < cfg.max_imfs:
        ext = find_extrema(remainder)
        if len(ext.maxima) < 2 or len(ext.minima) < 2:
            break
        outcome = extract_imf(remainder, cfg)
        imfs.append(outcome.imf)
        stats.append(outcome.stats)
        remainder = outcome.remainder
    decomp = Decomposition(imfs=tuple(imfs), residual=remainder, source_length=len(series))
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
    amplitude = cfg.noise_amplitude * float(np.std(series.values))
    n_trials = cfg.ensemble_size

    trials = [_eemd_trial(series, cfg, amplitude, t) for t in range(n_trials)]

    n_imfs = max(d.n_imfs for d in trials)
    length = len(series)
    imf_sums = [np.zeros(length) for _ in range(n_imfs)]
    residual_sum = np.zeros(length)
    for d in trials:  # fixed trial order keeps the reduction deterministic
        for i, imf in enumerate(d.imfs):
            imf_sums[i] += imf.values
        residual_sum += d.residual.values

    imfs = tuple(series.replace_values(s / n_trials) for s in imf_sums)
    residual = series.replace_values(residual_sum / n_trials)
    return Decomposition(imfs=imfs, residual=residual, source_length=length)
