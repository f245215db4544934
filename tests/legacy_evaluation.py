"""The benchmark loop as it was before runs were batched, frozen as a test
oracle: frameworks in family order, each running its seeded runs one after
another through the frozen ``legacy_pipeline.run_framework`` and aggregating
them before the next framework starts. ``tests/test_pipeline_oracle.py``
checks that ``modecast.evaluation.benchmark`` reproduces its reports and its
errors. Do not edit it to make that test pass.
"""

from __future__ import annotations

from dataclasses import replace

import legacy_pipeline
from modecast.core import TimeSeries
from modecast.evaluation import aggregate_runs, framework_label
from modecast.pipeline import VARIANTS


def benchmark(series, holdout, specs, runs, seeds, labels=None) -> list:
    if len(seeds) != runs:
        raise ValueError(f"need {runs} seeds, got {len(seeds)}")
    horizon = len(series) - holdout
    if horizon < 1:
        raise ValueError("holdout leaves nothing to forecast")
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
    reports = []
    for i in order:
        spec = replace(specs[i], horizon=horizon)
        predictions = [
            legacy_pipeline.run_framework(train_series, spec, seed=seeds[r]).combined
            for r in range(runs)
        ]
        reports.append(aggregate_runs(labels[i], actuals, predictions))
    return reports
