"""Outside-in tracing of modecast for the benchmark's traced run.

:class:`Tracer` wraps every public function of each modecast module (the
layers), plus ``ForecastSession.step``, and counts ``TimeSeries``
constructions. Because ``pipeline``, ``evaluation`` and ``cli`` import
functions by name, a wrapper goes on every module attribute bound to the
function, not only on the defining module. Nothing under ``src/`` changes;
:meth:`Tracer.installed` puts the original bindings back on exit.

Each call becomes one span ``[name, start, end, parent, op, value, error]``
held in memory; ``value`` is a small figure read from the call's arguments
or result (IMF count, DTW cells, training pairs, ...), and ``error`` names
an exception the call raised. :meth:`Tracer.layer_metrics` folds the spans
into the per-layer metrics; :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("core", "decomposition", "dtw", "grouping", "predictors", "pipeline",
          "evaluation", "cli")
GRADIENT_KINDS = ("BPNN", "ENN")  # trained by some workload; GRNN only stores pairs
TRAIN_KINDS = GRADIENT_KINDS + ("GRNN",)
VARIANTS = ("NN", "EMD_NN", "EMD_DTW_NN", "EEMD_DTW_NN")

NAME, START, END, PARENT, OP, VALUE, ERROR = range(7)


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _train_value(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    pairs = _arg(args, kwargs, 0, "training_set").size
    return [cfg.kind, pairs, cfg.epochs if cfg.kind in GRADIENT_KINDS else 0]


def _dtw_cells(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 0, "y")) * np.size(_arg(args, kwargs, 1, "z")))


def _sift_value(args, kwargs, result):
    return [result.stats.iterations, result.stats.stop_reason == "iteration_cap"]


# Span value per function: called with (args, kwargs, result); result is
# None when the call raised.
OBSERVERS = {
    "decomposition.extract_imf": _sift_value,
    "decomposition.emd": lambda a, k, r: r.n_imfs,
    "grouping.segmentize": lambda a, k, r: len(r),
    "grouping.rank_by_similarity": lambda a, k, r: len(r),
    "grouping.select_group": lambda a, k, r: len(r),
    "dtw.dtw_distance": _dtw_cells,
    "predictors.train": _train_value,
    "pipeline.run_framework": lambda a, k, r: _arg(a, k, 1, "spec").variant,
    "pipeline.split_components": lambda a, k, r: [r.p_count, r.q_count],
}
ARG_OBSERVERS = ("dtw.dtw_distance", "predictors.train", "pipeline.run_framework")


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.timeseries_built = 0
        self._stack = []
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)
        observe_args = name in ARG_OBSERVERS
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if observe is not None and (span[ERROR] is None or observe_args):
                    try:
                        span[VALUE] = observe(args, kwargs, result)
                    except Exception:  # the call's signature changed: keep the span
                        span[VALUE] = None

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_timeseries(self, post_init):
        tracer = self

        def wrapper(ts):
            tracer.timeseries_built += 1
            post_init(ts)

        wrapper.__wrapped__ = post_init
        return wrapper

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of each layer at every binding."""
        import modecast

        modules = [modecast]
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"modecast.{layer}")
            except ModuleNotFoundError:
                continue
            modules.append(module)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        session = getattr(modecast, "ForecastSession", None)
        if session is not None and "step" in vars(session):
            self._patch(session, "step",
                        self._span_wrapper("predictors.ForecastSession.step", session.step))
        series = getattr(modecast, "TimeSeries", None)
        if series is not None and "__post_init__" in vars(series):
            self._patch(series, "__post_init__", self._count_timeseries(series.__post_init__))

    def remove(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, op=None):
        """Trace the body as op ``op``, with the wrappers installed."""
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.remove()
            self.op = None

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self, n_ops: int, time_scale: float = 1.0) -> dict:
        """Per-layer metrics, as totals over the traced ops divided by
        ``n_ops``; the ``*_frac`` and ``*.ns_per_pair_epoch`` metrics are
        ratios of totals instead. Span times are
        multiplied by ``time_scale``. Absent functions give zero calls and
        zero time."""
        spans = self.spans
        dur = [(s[END] - s[START]) * time_scale for s in spans]
        child = [0.0] * len(spans)
        for k, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[k]
        by_name = {}
        for k, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(k)

        def outermost(*names):
            """Spans of ``names`` with no ancestor among ``names``."""
            out = []
            for name in names:
                for k in by_name.get(name, ()):
                    p = spans[k][PARENT]
                    while p >= 0 and spans[p][NAME] not in names:
                        p = spans[p][PARENT]
                    if p < 0:
                        out.append(k)
            return out

        def busy(*names):
            return sum(dur[k] for k in outermost(*names))

        def calls(*names):
            return len(outermost(*names))

        def self_time(name):
            return sum(dur[k] - child[k] for k in by_name.get(name, ()))

        def values(name):
            return [spans[k][VALUE] for k in by_name.get(name, ()) if spans[k][VALUE] is not None]

        m = {}
        # decomposition
        m["decomposition.eemd.busy_s"] = busy("decomposition.eemd")
        emd_spans = outermost("decomposition.emd", "decomposition.emd_with_stats")
        m["decomposition.emd.calls"] = len(emd_spans)
        m["decomposition.emd.busy_s"] = sum(dur[k] for k in emd_spans)
        sifts = values("decomposition.extract_imf")
        m["decomposition.extract_imf.calls"] = calls("decomposition.extract_imf")
        m["decomposition.find_extrema.calls"] = calls("decomposition.find_extrema")
        m["decomposition.find_extrema.busy_s"] = busy("decomposition.find_extrema")
        m["decomposition.envelope.calls"] = calls("decomposition.envelope")
        m["decomposition.envelope.busy_s"] = busy("decomposition.envelope")
        m["decomposition.sift_iterations"] = sum(it for it, _ in sifts)
        capped = sum(1 for _, cap in sifts if cap)
        trial_counts = {}
        for k in by_name.get("decomposition.emd", ()):
            p = spans[k][PARENT]
            if p >= 0 and spans[p][NAME] == "decomposition.eemd" and spans[k][VALUE] is not None:
                trial_counts.setdefault(p, []).append(spans[k][VALUE])
        trials = sum(len(c) for c in trial_counts.values())
        mismatched = sum(sum(1 for n in c if n != max(c)) for c in trial_counts.values())
        # grouping / dtw
        m["grouping.rank_by_similarity.calls"] = calls("grouping.rank_by_similarity")
        m["grouping.rank_by_similarity.busy_s"] = busy("grouping.rank_by_similarity")
        m["grouping.segmentize.busy_s"] = busy("grouping.segmentize")
        m["grouping.segments_built"] = sum(values("grouping.segmentize"))
        ranked = sum(values("grouping.rank_by_similarity"))
        selected = sum(values("grouping.select_group"))
        m["dtw.dtw_distance.calls"] = calls("dtw.dtw_distance")
        m["dtw.dtw_distance.busy_s"] = busy("dtw.dtw_distance")
        m["dtw.cells"] = sum(values("dtw.dtw_distance"))
        # predictors
        train = by_name.get("predictors.train", ())
        m["predictors.train.calls"] = len(train)
        pair_epochs = {kind: 0 for kind in TRAIN_KINDS}
        train_busy = {kind: 0.0 for kind in TRAIN_KINDS}
        for k in train:
            if spans[k][VALUE] is None:
                continue
            kind, pairs, epochs = spans[k][VALUE]
            if kind in train_busy:
                train_busy[kind] += dur[k]
                pair_epochs[kind] += pairs * epochs
        for kind in TRAIN_KINDS:
            m[f"predictors.train.{kind}.busy_s"] = train_busy[kind]
        m["predictors.pair_epochs"] = sum(pair_epochs.values())
        m["predictors.predict.calls"] = calls("predictors.predict", "predictors.ForecastSession.step")
        m["predictors.predict.busy_s"] = busy("predictors.predict", "predictors.ForecastSession.step")
        m["predictors.diverged"] = sum(
            1 for k in train if spans[k][ERROR] == "TrainingDivergedError")
        # pipeline
        for variant in VARIANTS:
            m[f"pipeline.run_framework.{variant}.busy_s"] = sum(
                dur[k] for k in by_name.get("pipeline.run_framework", ())
                if spans[k][VALUE] == variant)
        for name in ("run_framework", "forecast_high", "forecast_low"):
            m[f"pipeline.{name}.self_s"] = self_time(f"pipeline.{name}")
        splits = values("pipeline.split_components")
        m["pipeline.fast_components"] = sum(p for p, _ in splits)
        m["pipeline.slow_components"] = sum(q for _, q in splits)
        # evaluation, core, cli
        m["evaluation.benchmark.self_s"] = self_time("evaluation.benchmark")
        m["core.load_csv.busy_s"] = busy("core.load_csv")
        m["core.timeseries_built"] = self.timeseries_built
        m["cli.main.self_s"] = sum(self_time(name) for name in by_name if name.startswith("cli."))

        per_op = {name: float(v) / n_ops for name, v in m.items()}
        per_op["decomposition.sift_capped_frac"] = capped / len(sifts) if sifts else 0.0
        per_op["decomposition.trial_imf_mismatch_frac"] = mismatched / trials if trials else 0.0
        per_op["grouping.selected_frac"] = selected / ranked if ranked else 0.0
        for kind in GRADIENT_KINDS:
            per_op[f"predictors.train.{kind}.ns_per_pair_epoch"] = (
                1e9 * train_busy[kind] / pair_epochs[kind] if pair_epochs[kind] else 0.0)
        return per_op

    def write(self, path: Path) -> None:
        """Dump the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        keys = ("name", "start", "end", "parent", "op", "value", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = dict(zip(keys, s))
                row["start"] -= origin
                row["end"] -= origin
                fh.write(json.dumps(row) + "\n")
