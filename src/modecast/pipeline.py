"""Framework orchestration: decompose, forecast each component, recombine.

Four variants share one entry point and one component loop. A variant is a
component list and a fast count P: ``NN`` forecasts the raw series and
``EMD_NN`` every decomposition component, both with P = 0; ``EMD_DTW_NN``
and ``EEMD_DTW_NN`` take P from :func:`split_components`. The first P
components are forecast by ``_high_steps``, from DTW-similarity-grouped
training sets, the rest by ``_low_steps``, from plain sliding windows. The
combined forecast is always the exact ordered sum of the per-component
forecasts.

All randomness derives from one root seed via per-(component, step) keys,
so reruns agree bit for bit.

:func:`run_frameworks` runs many (spec, seed) cells in stages, training
every model of a stage in one :func:`~modecast.predictors.train_many`
call; each cell's result, or its error, is the one :func:`run_framework`
gives for it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .core import (DataError, Decomposition, TimeSeries, check_integers, derive_seed,
                   frozen_copy, minmax_normalize)
from .decomposition import EemdConfig, SiftConfig, count_zero_crossings, emd, eemd
from .grouping import (
    GroupingConfig,
    build_training_set,
    rank_by_similarity,
    select_group,
    sliding_window_set,
)
# train is unused here, but perfbench's tracer self-test expects a wrapper
# at this binding
from .predictors import (  # noqa: F401
    ForecastSession,
    PredictorConfig,
    TrainingDivergedError,
    predict,
    train,
    train_many,
)

VARIANTS = ("NN", "EMD_NN", "EMD_DTW_NN", "EEMD_DTW_NN")


class PipelineError(RuntimeError):
    """A stage failure annotated with the component it occurred in."""


@dataclass(frozen=True)
class FrameworkSpec:
    """Declarative description of one prediction framework run."""

    variant: str = "EMD_DTW_NN"
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    sift: SiftConfig = field(default_factory=SiftConfig)
    eemd: EemdConfig = field(default_factory=EemdConfig)
    split: Union[str, tuple[int, int]] = "auto"
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    horizon: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        check_integers(1, horizon=self.horizon)
        if self.split != "auto":
            if not isinstance(self.split, (tuple, list)) or len(self.split) != 2:
                raise ValueError(f'split must be "auto" or a (P, Q) pair, got {self.split!r}')
            p, q = self.split
            check_integers(0, **{"split P": p})
            check_integers(1, **{"split Q": q})
            object.__setattr__(self, "split", (int(p), int(q)))


@dataclass(frozen=True)
class ForecastResult:
    """Per-component forecasts plus run metadata, and their combined
    forecast: the ordered sum ``0.0 + c1 + c2 + ...`` of the per-component
    forecasts. Both are read-only; the per-component arrays are copies, so
    the caller's arrays stay theirs. A sum beyond the float range is a
    :class:`PipelineError`. ``groups`` holds each fast component's raw
    grouping steps, read through :meth:`group_records`.
    """

    per_component: tuple  # of (name, ndarray), at least one
    metadata: dict
    groups: tuple = field(default=(), repr=False, compare=False)  # of (name, steps)
    combined: np.ndarray = field(init=False)

    def __post_init__(self):
        parts = tuple((name, frozen_copy(v)) for name, v in self.per_component)
        if not parts:
            raise ValueError("a forecast needs at least one component")
        object.__setattr__(self, "per_component", parts)
        with np.errstate(over="ignore"):
            combined = sum((values for _, values in parts), 0.0)
        if not np.isfinite(combined).all():
            raise PipelineError("the component forecasts sum beyond the float range")
        combined.flags.writeable = False
        object.__setattr__(self, "combined", combined)

    def to_dict(self) -> dict:
        return {
            "combined": self.combined.tolist(),
            "per_component": {name: v.tolist() for name, v in self.per_component},
            "metadata": dict(self.metadata),
        }

    def group_records(self) -> dict:
        """Per fast component, one record per forecast step: its reference
        window and 1-based offset, every candidate's offset and DTW
        distance in rank order, the selected offsets and the prediction."""
        return {name: [{
            "step": step + 1,
            "reference_offset": extended.size - length + 1,
            "reference": extended[-length:].tolist(),
            "candidates": [{"offset": offset, "distance": dist}
                           for offset, dist in zip(offsets.tolist(), distances.tolist())],
            "selected_offsets": offsets[:k].tolist(),
            "prediction": float(value),
        } for step, (extended, length, offsets, distances, k, value) in enumerate(steps)]
            for name, steps in self.groups}


# ---------------------------------------------------------------------------
# Component split
# ---------------------------------------------------------------------------

class FrequencySplit(NamedTuple):
    """The fast (high-frequency) count P and slow count Q of a split: the
    first P components of ``Decomposition.components()``, and the Q after
    them, which end with the residual."""

    p_count: int
    q_count: int


def split_components(decomp: Decomposition, split: Union[str, tuple] = "auto") -> FrequencySplit:
    """Count the fast (high) and slow (low) components.

    The component list is the IMFs in order with the residual appended
    last; the first P entries form the fast group. ``"auto"`` sets P to
    the number of IMFs whose zero-crossing count exceeds T/4 (at least 1
    whenever any IMF exists).
    """
    n = decomp.n_imfs
    if split == "auto":
        threshold = decomp.source_length / 4.0
        p = sum(
            1 for imf in decomp.imfs if count_zero_crossings(imf.values) > threshold
        )
        if n >= 1:
            p = max(p, 1)
    else:
        p, q = split
        if p + q != n + 1:
            raise ValueError(
                f"split (P={p}, Q={q}) is inconsistent with {n} IMFs plus residual: "
                f"the constraint P+Q=N+1 requires P+Q={n + 1}"
            )
    return FrequencySplit(p, n + 1 - p)


# ---------------------------------------------------------------------------
# Per-component forecasting
#
# A component forecast is a generator: it yields a training request
# ``(training_set, cfg)`` whenever it needs a model, receives the fitted
# model, and returns the denormalized predictions. :func:`_lockstep`
# drives any number of them, training each round's requests in one
# :func:`train_many` call.
# ---------------------------------------------------------------------------

def _low_steps(component: TimeSeries, cfg: PredictorConfig, window: int,
               horizon: int) -> Generator:
    """Direct recursive forecast of a slow component: one model on all
    (window -> next value) pairs of the normalized component, each
    prediction fed back into the input window."""
    if len(component) <= window:
        raise ValueError(
            f"component length {len(component)} must exceed window {window}"
        )
    normalized, scale = minmax_normalize(component)
    model = yield sliding_window_set(normalized, window), cfg
    session = ForecastSession(model)
    t = len(component)
    buf = np.empty(t + horizon)
    buf[:t] = normalized.values
    for end in range(t, t + horizon):
        buf[end] = session.step(buf[end - window : end])
    return scale.inverse(buf[t:])


def _high_steps(component: TimeSeries, grouping: GroupingConfig, cfg: PredictorConfig,
                horizon: int) -> Generator:
    """Similarity-grouped recursive forecast of a fast component: each step
    ranks every window of the component extended by the predictions so far
    by DTW distance to the trailing reference window, trains a fresh model
    (seed ``derive_seed(cfg.seed, step)``) on the selected group and
    predicts one value. A non-finite prediction is a :class:`DataError`.
    Returns the predictions and, per step, ``(extended, length, offsets,
    distances, k, value)``."""
    length = grouping.segment_length
    if len(component) < 2 * length:
        raise ValueError(
            f"component length {len(component)} must be >= twice the segment "
            f"length ({2 * length})"
        )
    normalized, scale = minmax_normalize(component)
    t = len(component)
    buf = np.empty(t + horizon)
    buf[:t] = normalized.values
    steps = []
    for step in range(horizon):
        extended = buf[: t + step]
        offsets, distances = rank_by_similarity(extended, grouping)
        k = select_group(distances, grouping)
        training_set = build_training_set(extended, offsets[:k], length)
        model = yield training_set, replace(cfg, seed=derive_seed(cfg.seed, step))
        reference = extended[-length:]
        value = predict(model, reference)
        if not np.isfinite(value):  # the error the series type gives
            raise DataError("series contains NaN or infinite values")
        steps.append((extended, length, offsets, distances, k, value))
        buf[t + step] = value
    return scale.inverse(buf[t:]), tuple(steps)


def _lockstep(tasks: list) -> list:
    """Run ``(cell, generator)`` tasks to the end in rounds: each round
    trains every pending request in one :func:`train_many` call, then sends
    each task its model, in task order.

    Returns per task its return value or the exception it raised (a
    diverged model's :class:`TrainingDivergedError` included). A failed task
    closes, and so do the later tasks of its cell (a cell's tasks are
    contiguous), which a sequential run never reaches; their outcome is
    ``None``.
    """
    outcomes, live, requests = [None] * len(tasks), set(range(len(tasks))), {}

    def fail(i: int, exc: Exception) -> None:
        outcomes[i] = exc
        for j in range(i, len(tasks)):
            if tasks[j][0] != tasks[i][0]:
                break
            live.discard(j)
            requests.pop(j, None)
            tasks[j][1].close()

    def advance(i: int, model) -> None:
        if isinstance(model, TrainingDivergedError):
            fail(i, model)
            return
        try:
            requests[i] = tasks[i][1].send(model)
        except StopIteration as stop:
            outcomes[i] = stop.value
            live.discard(i)
        except Exception as exc:
            fail(i, exc)

    for i in range(len(tasks)):
        if i in live:
            advance(i, None)
    while requests:
        order = sorted(requests)
        models = train_many(*zip(*(requests.pop(i) for i in order)))
        for i, model in zip(order, models):
            if i in live:
                advance(i, model)
    return outcomes


# ---------------------------------------------------------------------------
# Framework runner
# ---------------------------------------------------------------------------

def _components(series: TimeSeries, spec: FrameworkSpec, seed: Optional[int]) -> tuple:
    """(predictor config, names, components, P, metadata) of one cell;
    decomposition and split errors propagate as they are."""
    pred_cfg = spec.predictor if seed is None else replace(spec.predictor, seed=seed)
    eemd_cfg = spec.eemd if seed is None else replace(spec.eemd, seed=seed)
    names, comps, p, split_meta, n_imfs = ["series"], [series], 0, None, None
    if spec.variant != "NN":
        decomp = (eemd(series, eemd_cfg, spec.sift) if spec.variant == "EEMD_DTW_NN"
                  else emd(series, spec.sift))
        n_imfs = decomp.n_imfs
        names = decomp.names()
        comps = decomp.components()
        if spec.variant != "EMD_NN":
            p, q = split_components(decomp, spec.split)
            split_meta = [p, q]
    metadata = {"variant": spec.variant, "root_seed": int(pred_cfg.seed), "split": split_meta,
                "horizon": spec.horizon, "n_imfs": n_imfs}
    return pred_cfg, names, comps, p, metadata


def _result(plan: tuple, outcomes: list) -> ForecastResult:
    """One cell's :class:`ForecastResult` from its component outcomes, or
    the error of its first failed component."""
    _, names, _, p, metadata = plan
    parts, groups = [], []
    for idx, (name, outcome) in enumerate(zip(names, outcomes)):
        if isinstance(outcome, Exception):
            raise PipelineError(f"component {idx + 1} ({name}): {outcome}") from outcome
        if idx < p:
            outcome, steps = outcome
            groups.append((name, steps))
        parts.append((name, outcome))
    return ForecastResult(per_component=tuple(parts), metadata=metadata, groups=tuple(groups))


def run_frameworks(series: TimeSeries, cells: Sequence[tuple]) -> list:
    """Run many framework cells on one series, training in lockstep.

    A cell is a ``(FrameworkSpec, seed)`` pair, run as
    ``run_framework(series, spec, seed=seed)`` runs it alone. The stages:

    1. decompose every cell into its component list;
    2. train every slow component of every cell in one :func:`train_many`
       call, then run their forecast sessions;
    3. at each forecast step, rank, select and build a training set for
       every live (cell, fast component), train them all in one
       :func:`train_many` call, then predict.

    Stage 2 shares its :func:`train_many` call with the first step of
    stage 3.

    Parameters
    ----------
    series : TimeSeries
        Training data; forecasts start immediately after its last point.
    cells : sequence of (FrameworkSpec, int or None)
        The frameworks and their root seeds.

    Returns
    -------
    list
        Per cell its :class:`ForecastResult`, or the exception that
        :func:`run_framework` raises for it alone: a decomposition or split
        error as it is, else a :class:`PipelineError` for the component of
        lowest index that fails, else the sum-overflow error.
    """
    outcomes, plans, tasks = [None] * len(cells), {}, []
    for c, (spec, seed) in enumerate(cells):
        try:
            plan = _components(series, spec, seed)
        except Exception as exc:
            outcomes[c] = exc
            continue
        pred_cfg, _, comps, p, _ = plan
        for idx, comp in enumerate(comps):
            comp_cfg = replace(pred_cfg, seed=derive_seed(pred_cfg.seed, idx))
            if idx < p:
                task = _high_steps(comp, spec.grouping, comp_cfg, spec.horizon)
            else:
                task = _low_steps(comp, comp_cfg, spec.grouping.segment_length, spec.horizon)
            tasks.append((c, task))
        plans[c] = plan

    components = iter(_lockstep(tasks))
    for c, plan in plans.items():
        try:
            outcomes[c] = _result(plan, [next(components) for _ in plan[2]])
        except Exception as exc:
            outcomes[c] = exc
    return outcomes


def run_framework(series: TimeSeries, spec: FrameworkSpec, *,
                  seed: Optional[int] = None) -> ForecastResult:
    """Run one framework variant end to end: the one-cell call of
    :func:`run_frameworks`.

    Component ``idx`` is forecast by ``_high_steps`` if ``idx < P``, else
    by ``_low_steps``, with seed ``derive_seed(root, idx)``; the failure of
    the first failing component is raised as :class:`PipelineError` naming
    it.

    Parameters
    ----------
    series : TimeSeries
        Training data; forecasts start immediately after its last point.
    spec : FrameworkSpec
        Variant and stage configuration.
    seed : int, optional
        Overrides the predictor and ensemble seeds (used by the benchmark
        runner to give every run its own root).

    Returns
    -------
    ForecastResult
        ``combined`` is the exact ordered sum of ``per_component``.
    """
    outcome = run_frameworks(series, [(spec, seed)])[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
