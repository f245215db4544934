"""Relative-error scoring and the repeated-run benchmark protocol.

A framework's accuracy on a holdout window is the mean relative error
|y - yhat| / y over the holdout points; robustness is the spread of that
mean over repeated seeded runs (population standard deviation).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import DataError, TimeSeries, pow2_exponent
# run_framework is unused here, but perfbench's tracer self-test expects a
# wrapper at this binding
from .pipeline import VARIANTS, FrameworkSpec, run_framework, run_frameworks  # noqa: F401

_VARIANT_PREFIX = {
    "NN": "",
    "EMD_NN": "EMD+",
    "EMD_DTW_NN": "EMD+DTW+",
    "EEMD_DTW_NN": "EEMD+DTW+",
}


def framework_label(spec: FrameworkSpec) -> str:
    """Human-readable row label, e.g. ``EMD+DTW+BPNN``."""
    return _VARIANT_PREFIX[spec.variant] + spec.predictor.kind


def relative_error(actual: float, predicted: float) -> float:
    """|y - yhat| / y for positive actuals; negative actuals fall back to
    |y| in the denominator. Undefined (a :class:`DataError`) for actual = 0
    and beyond the float range."""
    if actual == 0:
        raise DataError("relative error is undefined for actual = 0")
    error = abs(actual - predicted) / abs(actual)
    if not math.isfinite(error):
        raise DataError(f"relative error of {predicted!r} against {actual!r} "
                        f"is beyond the float range")
    return error


def _moments(values, axis: Optional[int] = None) -> tuple:
    """Mean and population std over ``axis``, taken of the values scaled by
    an exact power of two (:func:`pow2_exponent`) and scaled back, so that
    neither overflows; within 2**+-500 they are ``np.mean`` and ``np.std``."""
    values = np.asarray(values, dtype=np.float64)
    e = pow2_exponent(values)
    scaled = np.ldexp(values, -e)
    return np.ldexp(scaled.mean(axis=axis), e), np.ldexp(scaled.std(axis=axis), e)


@dataclass(frozen=True)
class RunEvaluation:
    """Pointwise relative errors for one run plus their mean."""

    per_point_re: tuple
    mean_re: float
    used_abs_denominator: bool = False


def evaluate_run(actuals: TimeSeries, predictions) -> RunEvaluation:
    """Elementwise relative errors of one prediction run and their mean.

    Lengths must match and no actual may be zero; negative actuals are
    scored against their magnitude and flagged.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    if predictions.size != len(actuals):
        raise ValueError(
            f"length mismatch: {len(actuals)} actuals vs {predictions.size} predictions"
        )
    res = tuple(
        relative_error(float(a), float(p))
        for a, p in zip(actuals.values, predictions)
    )
    return RunEvaluation(
        per_point_re=res,
        mean_re=float(_moments(res)[0]),
        used_abs_denominator=bool(np.any(actuals.values < 0)),
    )


@dataclass(frozen=True)
class EvalReport:
    """Aggregated accuracy of one framework over repeated runs.

    ``per_point`` holds (actual, mean prediction over runs, RE of that
    mean); ``re_mean_over_runs``/``re_std_over_runs`` aggregate the per-run
    mean REs (population std), matching the mean +/- std presentation.
    """

    label: str
    per_point: tuple
    per_point_std: tuple
    mean_re: float
    runs: int
    re_mean_over_runs: float
    re_std_over_runs: float
    per_run_mean_re: tuple
    per_run_predictions: tuple

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.re_std_over_runs < 0 or any(re < 0 for _, _, re in self.per_point):
            raise ValueError("relative errors cannot be negative")

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate_runs(label: str, actuals: TimeSeries, run_predictions) -> EvalReport:
    """Fold per-run predictions into one report."""
    stacked = np.stack([np.asarray(p, dtype=np.float64) for p in run_predictions])
    runs = stacked.shape[0]
    mean_pred, std_pred = _moments(stacked, axis=0)
    mean_eval = evaluate_run(actuals, mean_pred)
    per_run_means = tuple(
        evaluate_run(actuals, stacked[r]).mean_re for r in range(runs)
    )
    re_mean, re_std = _moments(per_run_means)
    return EvalReport(
        label=label,
        per_point=tuple(
            (float(a), float(p), re)
            for a, p, re in zip(actuals.values, mean_pred, mean_eval.per_point_re)
        ),
        per_point_std=tuple(float(s) for s in std_pred),
        mean_re=mean_eval.mean_re,
        runs=runs,
        re_mean_over_runs=float(re_mean),
        re_std_over_runs=float(re_std),
        per_run_mean_re=per_run_means,
        per_run_predictions=tuple(tuple(float(v) for v in row) for row in stacked),
    )


def benchmark(series: TimeSeries, holdout: int, specs: Sequence[FrameworkSpec],
              runs: int, seeds: Sequence[int], labels: Optional[Sequence[str]] = None) -> list:
    """Compare frameworks on a holdout window over repeated seeded runs.

    Each framework trains on ``series[:holdout]`` and forecasts the rest;
    run r uses ``seeds[r]`` as its root seed for every framework, so
    configuration-identical specs produce identical reports. Reports come
    back ordered by framework family (NN, EMD+NN, EMD+DTW+NN, EEMD+DTW+NN).
    All ``len(specs) * runs`` runs go through one :func:`run_frameworks`
    call; errors surface as a run-by-run loop would raise them: frameworks
    in family order, each raising its first failed run before its report
    is aggregated.

    Parameters
    ----------
    series : TimeSeries
        Full series including the holdout window.
    holdout : int
        Split point; must leave at least twice the segment length of every
        spec for training, and at least one point to forecast.
    specs : sequence of FrameworkSpec
        Frameworks to compare (horizon is overridden by the holdout size).
    runs : int
        Repetitions per framework.
    seeds : sequence of int
        One root seed per run; ``len(seeds) == runs``.
    """
    if len(seeds) != runs:
        raise ValueError(f"need {runs} seeds, got {len(seeds)}")
    horizon = len(series) - holdout
    if horizon < 1:  # the data file, not the config, is too short
        raise DataError(f"holdout {holdout} leaves nothing to forecast in a series "
                        f"of {len(series)} points")
    for spec in specs:
        if holdout < 2 * spec.grouping.segment_length:
            raise ValueError(
                f"holdout {holdout} leaves fewer than 2 x segment_length "
                f"({2 * spec.grouping.segment_length}) training points"
            )

    train_series = TimeSeries(series.values[:holdout])
    actuals = TimeSeries(series.values[holdout:])

    if labels is None:
        labels = [framework_label(spec) for spec in specs]

    order = sorted(range(len(specs)), key=lambda i: VARIANTS.index(specs[i].variant))
    outcomes = iter(run_frameworks(
        train_series,
        [(replace(specs[i], horizon=horizon), seeds[r]) for i in order for r in range(runs)],
    ))
    reports = []
    for i in order:
        predictions = []
        for _ in range(runs):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            predictions.append(outcome.combined)
        reports.append(aggregate_runs(labels[i], actuals, predictions))
    return reports
