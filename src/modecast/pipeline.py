"""Framework orchestration: decompose, forecast each component, recombine.

Four variants share one entry point and one component loop. A variant is a
component list and a fast count P: ``NN`` forecasts the raw series and
``EMD_NN`` every decomposition component, both with P = 0; ``EMD_DTW_NN``
and ``EEMD_DTW_NN`` take P from :func:`split_components`. The first P
components are forecast from DTW-similarity-grouped training sets, the rest
from plain sliding windows. The combined forecast is always the exact
ordered sum of the per-component forecasts.

All randomness derives from one root seed via per-(component, step) keys,
so reruns agree bit for bit.

:func:`run_frameworks` runs many (spec, seed) cells in stages, training
every model of a stage in one :func:`~modecast.predictors.train_many`
call; each cell's result, or its error, is the one :func:`run_framework`
gives for it alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence, Union

import numpy as np

from .core import (
    DataError,
    Decomposition,
    FrequencySplit,
    TimeSeries,
    derive_seed,
    minmax_normalize,
)
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
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.split != "auto":
            if isinstance(self.split, str) or len(self.split) != 2:
                raise ValueError(f'split must be "auto" or a (P, Q) pair, got {self.split!r}')
            p, q = self.split
            if p < 0 or q < 1:
                raise ValueError(f"explicit split needs P >= 0 and Q >= 1, got ({p}, {q})")
            object.__setattr__(self, "split", (int(p), int(q)))


@dataclass(frozen=True)
class ForecastResult:
    """Combined and per-component forecasts plus run metadata.

    The combined forecast equals the ordered sum of the per-component
    forecasts to the last bit.
    """

    combined: np.ndarray
    per_component: tuple  # of (name, ndarray)
    metadata: dict

    def __post_init__(self):
        combined = np.asarray(self.combined, dtype=np.float64)
        combined.flags.writeable = False
        object.__setattr__(self, "combined", combined)
        parts = tuple((name, np.asarray(v, dtype=np.float64)) for name, v in self.per_component)
        object.__setattr__(self, "per_component", parts)
        total = np.zeros_like(combined)
        for _, values in parts:
            total = total + values
        if not np.array_equal(total, combined):
            raise ValueError("combined forecast is not the exact sum of components")

    def to_dict(self) -> dict:
        """JSON payload; timing is deliberately excluded so reruns with the
        same config and seeds serialize byte-identically."""
        meta = {k: v for k, v in self.metadata.items() if k != "elapsed_seconds"}
        return {
            "combined": self.combined.tolist(),
            "per_component": {name: v.tolist() for name, v in self.per_component},
            "metadata": meta,
        }


# ---------------------------------------------------------------------------
# Component split
# ---------------------------------------------------------------------------

def split_components(decomp: Decomposition, split: Union[str, tuple] = "auto") -> FrequencySplit:
    """Partition components into fast (high) and slow (low) groups.

    The component list is the IMFs in order with the residual appended
    last; the first P entries become the fast group. ``"auto"`` sets P to
    the number of IMFs whose zero-crossing count exceeds T/4 (at least 1
    whenever any IMF exists).
    """
    comps = decomp.components()
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
    return FrequencySplit(
        high=tuple(comps[:p]),
        low=tuple(comps[p:]),
        p_count=p,
        q_count=len(comps) - p,
    )


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
                horizon: int, trace: Optional[list]) -> Generator:
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
    for step in range(horizon):
        extended = buf[: t + step]
        offsets, distances = rank_by_similarity(extended, grouping)
        k = select_group(distances, grouping)
        training_set = build_training_set(extended, offsets[:k], distances[:k], length)
        model = yield training_set, replace(cfg, seed=derive_seed(cfg.seed, step))
        reference = extended[-length:]
        value = predict(model, reference)
        if not np.isfinite(value):  # the error the series type gives
            raise DataError("series contains NaN or infinite values")
        if trace is not None:
            trace.append({
                "step": step + 1,
                "reference_offset": t + step - length + 1,
                "reference": reference.tolist(),
                "candidates": [
                    {"offset": offset, "distance": dist}
                    for offset, dist in zip(offsets.tolist(), distances.tolist())
                ],
                "selected_offsets": offsets[:k].tolist(),
                "prediction": float(value),
            })
        buf[t + step] = value
    return scale.inverse(buf[t:])


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


def _raised(outcome):
    """``outcome``, or raise it if it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def forecast_low(component: TimeSeries, cfg: PredictorConfig, window: int,
                 horizon: int) -> np.ndarray:
    """Direct recursive forecast of a slow component.

    Trains one model on all (window -> next value) pairs of the normalized
    component, then feeds each prediction back into the input window.
    Returns denormalized predictions of length ``horizon``.
    """
    return _raised(_lockstep([(0, _low_steps(component, cfg, window, horizon))])[0])


def forecast_high(component: TimeSeries, grouping: GroupingConfig,
                  cfg: PredictorConfig, horizon: int,
                  trace: Optional[list] = None) -> np.ndarray:
    """Similarity-grouped recursive forecast of a fast component.

    Each step ranks every window of the component extended by the
    predictions so far by DTW distance to the trailing reference window,
    trains a fresh model on the selected group and predicts one value.
    Per-step seeds derive from ``cfg.seed``. A non-finite prediction raises
    :class:`DataError`.

    Parameters
    ----------
    trace : list, optional
        When given, receives one record per step with the reference window,
        ranked candidates and selection, for provenance inspection.
    """
    task = _high_steps(component, grouping, cfg, horizon, trace)
    return _raised(_lockstep([(0, task)])[0])


# ---------------------------------------------------------------------------
# Framework runner
# ---------------------------------------------------------------------------

def _components(series: TimeSeries, spec: FrameworkSpec, seed: Optional[int],
                emds: dict) -> tuple:
    """(predictor config, names, components, P, metadata) of one cell;
    decomposition and split errors propagate as they are.
    ``emds`` holds the EMD of ``series`` per sift config: EMD draws no
    noise, so cells with the same sift config share one decomposition."""
    pred_cfg = spec.predictor if seed is None else replace(spec.predictor, seed=seed)
    eemd_cfg = spec.eemd if seed is None else replace(spec.eemd, seed=seed)
    eemd_cfg = replace(eemd_cfg, sift=spec.sift)  # one source of truth for sifting
    names, comps, p, split_meta, n_imfs = ["series"], [series], 0, None, None
    if spec.variant != "NN":
        if spec.variant == "EEMD_DTW_NN":
            decomp = eemd(series, eemd_cfg)
        else:
            if spec.sift not in emds:
                emds[spec.sift] = emd(series, spec.sift)
            decomp = emds[spec.sift]
        n_imfs = decomp.n_imfs
        names = [f"imf_{i + 1}" for i in range(n_imfs)] + ["residual"]
        comps = decomp.components()
        if spec.variant != "EMD_NN":
            fsplit = split_components(decomp, spec.split)
            p = fsplit.p_count
            split_meta = [p, fsplit.q_count]
    metadata = {"variant": spec.variant, "root_seed": int(pred_cfg.seed), "split": split_meta,
                "horizon": spec.horizon, "n_imfs": n_imfs}
    return pred_cfg, names, comps, p, metadata


def _result(plan: tuple, outcomes: list, traces: list, group_trace: Optional[dict],
            started: float) -> ForecastResult:
    """One cell's :class:`ForecastResult` from its component outcomes, or
    the error of its first failed component."""
    _, names, _, _, metadata = plan
    parts = []
    for idx, (name, outcome, trace) in enumerate(zip(names, outcomes, traces)):
        if isinstance(outcome, Exception):
            raise PipelineError(f"component {idx + 1} ({name}): {outcome}") from outcome
        if trace is not None:
            group_trace[name] = trace
        parts.append((name, outcome))

    combined = np.zeros(metadata["horizon"])
    with np.errstate(over="ignore"):
        for _, values in parts:
            combined = combined + values
    if not np.isfinite(combined).all():
        raise PipelineError("the component forecasts sum beyond the float range")

    metadata = {**metadata, "elapsed_seconds": time.perf_counter() - started}
    return ForecastResult(combined=combined, per_component=tuple(parts), metadata=metadata)


def run_frameworks(series: TimeSeries, cells: Sequence[tuple],
                   group_traces: Optional[Sequence[Optional[dict]]] = None) -> list:
    """Run many framework cells on one series, training in lockstep.

    A cell is a ``(FrameworkSpec, seed)`` pair, run as
    ``run_framework(series, spec, seed=seed)`` runs it alone. The stages:

    1. decompose every cell into its component list (the cells that run
       EMD with the same sift config share one decomposition);
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
    group_traces : sequence of (dict or None), optional
        One per cell, as ``group_trace`` of :func:`run_framework`.

    Returns
    -------
    list
        Per cell its :class:`ForecastResult`, or the exception that
        :func:`run_framework` raises for it alone: a decomposition or split
        error as it is, else a :class:`PipelineError` for the component of
        lowest index that fails, else the sum-overflow error. A group
        trace holds the fast components before the first failed one.
        ``elapsed_seconds`` is the wall time of the call up to the cell's
        result.
    """
    started = time.perf_counter()
    group_traces = [None] * len(cells) if group_traces is None else group_traces
    outcomes, plans, tasks, emds = [None] * len(cells), {}, [], {}
    for c, (spec, seed) in enumerate(cells):
        try:
            plan = _components(series, spec, seed, emds)
        except Exception as exc:
            outcomes[c] = exc
            continue
        pred_cfg, _, comps, p, _ = plan
        traces = []
        for idx, comp in enumerate(comps):
            comp_cfg = replace(pred_cfg, seed=derive_seed(pred_cfg.seed, idx))
            if idx < p:
                traces.append([] if group_traces[c] is not None else None)
                task = _high_steps(comp, spec.grouping, comp_cfg, spec.horizon, traces[-1])
            else:
                traces.append(None)
                task = _low_steps(comp, comp_cfg, spec.grouping.segment_length, spec.horizon)
            tasks.append((c, task))
        plans[c] = plan, traces

    components = iter(_lockstep(tasks))
    for c, (plan, traces) in plans.items():
        try:
            outcomes[c] = _result(plan, [next(components) for _ in traces], traces,
                                  group_traces[c], started)
        except Exception as exc:
            outcomes[c] = exc
    return outcomes


def run_framework(series: TimeSeries, spec: FrameworkSpec, *,
                  seed: Optional[int] = None,
                  group_trace: Optional[dict] = None) -> ForecastResult:
    """Run one framework variant end to end: the one-cell call of
    :func:`run_frameworks`.

    Component ``idx`` is forecast as by :func:`forecast_high` if
    ``idx < P``, else as by :func:`forecast_low`, with seed
    ``derive_seed(root, idx)``; the failure of the first failing component
    is raised as :class:`PipelineError` naming it.

    Parameters
    ----------
    series : TimeSeries
        Training data; forecasts start immediately after its last point.
    spec : FrameworkSpec
        Variant and stage configuration.
    seed : int, optional
        Overrides the predictor and ensemble seeds (used by the benchmark
        runner to give every run its own root).
    group_trace : dict, optional
        When given, maps fast-component names to per-step grouping records.

    Returns
    -------
    ForecastResult
        ``combined`` is the exact ordered sum of ``per_component``.
    """
    return _raised(run_frameworks(series, [(spec, seed)], [group_trace])[0])
