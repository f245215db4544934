"""Command-line surface: decompose, dtw, predict, benchmark, gradcheck.

Every command is reproducible: the config file and seeds fully determine
all outputs, byte for byte, and output files are written atomically.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

from .core import DataError, TimeSeries, format_number, load_csv, spawn_rng
from .decomposition import (
    BOUNDARY_MODES,
    EemdConfig,
    InsufficientExtremaError,
    SiftConfig,
    count_zero_crossings,
    eemd,
    emd_with_stats,
)
from .dtw import dtw_distance, warp_path
from .evaluation import benchmark
from .grouping import GroupingConfig, sliding_window_set
from .pipeline import FrameworkSpec, PipelineError, run_framework
from .predictors import (
    GRADIENT_TRAINED,
    PredictorConfig,
    TrainingDivergedError,
    gradient_check,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Invalid configuration or command usage."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1" and "-.5" for values but "-1e-4" and "-inf" for
        # option names; read them as values too, so that a float flag's own
        # check sees them and names them
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # map argparse usage errors onto exit code 1
        raise ConfigError(message)


class _Count(argparse.Action):
    """An integer flag that counts something, or a column number (a header
    name passes): below 1 it is rejected by name."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not isinstance(value, str) and value < 1:
            raise ConfigError(f"{self.option_strings[0]}: expected integer >= 1, got {value}")
        setattr(namespace, self.dest, value)


# ---------------------------------------------------------------------------
# Atomic output helpers
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, write: Callable) -> None:
    """``write(fh)`` into a temporary file beside ``path``, moved onto it when done."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where a directory should be, say
        raise ConfigError(f"cannot create output directory {path.parent}: {exc.strerror}") from exc
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _out(args, output_dir: str = ".") -> Path:
    """The output directory: ``--out`` if given, else the config's ``output_dir``."""
    return Path(output_dir if args.out is None else args.out)


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, lambda fh: fh.write(json.dumps(payload, indent=2) + "\n"))


def _write_csv(path: Path, rows) -> None:
    """Rows of fields, quoted where a field holds a comma, a quote, ``\\r`` or
    ``\\n``, one ``\\n``-terminated line per row."""
    # csv quotes line breaks only if they are in the line terminator, so rows
    # end in "\r\n" and are cut back to "\n" as they are written
    _write_atomic(path, lambda fh: csv.writer(SimpleNamespace(
        write=lambda line: fh.write(line[:-2] + "\n"))).writerows(rows))


# ---------------------------------------------------------------------------
# Config parsing (strict: unknown keys and mistyped values rejected)
# ---------------------------------------------------------------------------

# top-level keys and their JSON types; every framework section takes its
# keys and types from the fields of its dataclass
_DATASET = {"path": str, "column": Union[int, str], "has_header": bool}
_PREDICT = {"schema_version": int, "dataset": dict, "framework": dict,
            "output_dir": str, "seed": Optional[int]}
_BENCHMARK = {"schema_version": int, "dataset": dict, "frameworks": list[dict],
              "labels": Optional[list[str]], "holdout": int, "runs": int,
              "seeds": list[int], "output_dir": str}


def _is(value, hint) -> bool:
    """Whether a JSON value has type ``hint``. A bool is never a number, an
    int field rejects floats, and a dataclass is a JSON object."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_is(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_is(v, args[0]) for v in value)
    if origin is tuple:  # a JSON list of fixed length
        return isinstance(value, list) and len(value) == len(args) and all(map(_is, value, args))
    if isinstance(value, bool) and hint in (int, float):
        return False
    if is_dataclass(hint):
        hint = dict
    return isinstance(value, (int, float) if hint is float else hint)


def _describe(hint) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return " or ".join(map(_describe, args))
    if origin in (list, tuple):
        return f"[{', '.join(map(_describe, args))}{', ...' if origin is list else ''}]"
    return {bool: "true or false", int: "integer", float: "number", str: "string",
            type(None): "null"}.get(hint, "object")


def _check(doc, schema: dict, context: str) -> dict:
    """``doc`` once it is a JSON object whose keys are in ``schema``, whose
    values have the JSON types that ``schema`` gives them, and whose seeds
    are not negative."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(unknown)}")
    for key, value in doc.items():
        name = key if context == "config" else f"{context}.{key}"
        if not _is(value, schema[key]):
            raise ConfigError(f"{name}: expected {_describe(schema[key])}, "
                              f"got {json.dumps(value)}")
        if key in ("seed", "seeds"):
            _check_seeds(name, value)
    return doc


def _check_seeds(name: str, value) -> None:
    """Reject a negative seed (or ``seeds`` entry) by its key, before numpy's
    ``SeedSequence`` rejects it without one."""
    for i, seed in enumerate(value) if isinstance(value, list) else [(None, value)]:
        if seed is not None and seed < 0:
            where = name if i is None else f"{name}[{i}]"
            raise ConfigError(f"{where}: expected non-negative integer, got {seed}")


def _fields(cls) -> dict:
    """The JSON schema of dataclass ``cls``: its field names and types."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _section(cls, doc, context: str):
    """``cls(**doc)`` once ``doc`` fits the fields of ``cls``."""
    return cls(**_check(doc, _fields(cls), context))


def parse_framework(doc) -> FrameworkSpec:
    """Build a FrameworkSpec from its JSON form, rejecting unknown keys and
    mistyped values."""
    _check(doc, _fields(FrameworkSpec), "framework")
    return FrameworkSpec(**{
        **doc,
        "predictor": _section(PredictorConfig, doc.get("predictor", {}), "predictor"),
        "sift": _section(SiftConfig, doc.get("sift", {}), "sift"),
        "eemd": _section(EemdConfig, doc.get("eemd", {}), "eemd"),
        "grouping": _section(GroupingConfig, doc.get("grouping", {}), "grouping"),
    })


def _parse_dataset(doc) -> dict:
    _check(doc, _DATASET, "dataset")
    if "path" not in doc:
        raise ConfigError("dataset.path is required")
    if isinstance(doc.get("column"), int) and doc["column"] < 1:
        raise ConfigError(f"dataset.column: expected integer >= 1, got {doc['column']}")
    return {"column": 1, "has_header": False, **doc}


def _load_config(path: str, schema: dict) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:  # a directory, say
        raise ConfigError(f"cannot read config {p}: {exc.strerror}") from exc
    _check(doc, schema, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, "
                          f"got {json.dumps(doc.get('schema_version'))}")
    return doc


def parse_predict_config(path: str) -> dict:
    doc = _load_config(path, _PREDICT)
    return {"output_dir": ".", "seed": None, **doc,
            "dataset": _parse_dataset(doc.get("dataset", {})),
            "framework": parse_framework(doc.get("framework", {}))}


def parse_benchmark_config(path: str) -> dict:
    doc = _load_config(path, _BENCHMARK)
    frameworks = [parse_framework(f) for f in doc.get("frameworks", [])]
    if len(frameworks) < 2:
        raise ConfigError("benchmark needs at least 2 framework specs")
    if "holdout" not in doc:
        raise ConfigError("holdout is required")
    if doc.get("runs", 1) < 1:
        raise ConfigError(f"runs: expected integer >= 1, got {doc['runs']}")
    seeds = doc.get("seeds")
    if not seeds:
        raise ConfigError("a non-empty seed list is required")
    labels = doc.get("labels")
    if labels is not None and len(labels) != len(frameworks):
        raise ConfigError("labels must match the number of frameworks")
    return {"labels": None, "runs": len(seeds), "output_dir": ".", **doc,
            "dataset": _parse_dataset(doc.get("dataset", {})), "frameworks": frameworks}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _fmt_distance(value: float) -> str:
    return str(int(value)) if value.is_integer() else format_number(value)


def cmd_decompose(args) -> int:
    series = load_csv(args.input, column=args.column, has_header=args.has_header)
    sift = SiftConfig(**{f.name: getattr(args, f.name) for f in fields(SiftConfig)})
    if args.method == "emd":
        decomp, stats = emd_with_stats(series, sift)
        sift_stats = [{"imf": i + 1, **asdict(s)} for i, s in enumerate(stats)]
        method_info = {"method": "emd"}
    else:
        cfg = EemdConfig(ensemble_size=args.ensemble, noise_amplitude=args.noise,
                         seed=args.seed or 0)
        decomp = eemd(series, cfg, sift)
        sift_stats = None  # per-trial statistics are not aggregated
        method_info = {"method": "eemd", "ensemble_size": cfg.ensemble_size,
                       "noise_amplitude": cfg.noise_amplitude, "seed": cfg.seed}

    out = _out(args)
    names = decomp.names()
    comps = decomp.components()
    _write_csv(out / "components.csv", [names] + [
        [format_number(v) for v in row] for row in zip(*(c.values.tolist() for c in comps))])

    zero_crossings = [count_zero_crossings(c.values) for c in comps]
    _write_json(out / "decompose_stats.json", {
        **method_info,
        "n_imfs": decomp.n_imfs,
        "length": decomp.source_length,
        "zero_crossings": dict(zip(names, zero_crossings)),
        "sift_stats": sift_stats,
    })

    if decomp.n_imfs == 0:
        print("0 IMFs, residual only")
    else:
        print(f"{decomp.n_imfs} IMFs")
    for name, zc in zip(names, zero_crossings):
        print(f"  {name}: {zc} zero crossings")
    return EXIT_OK


def cmd_dtw(args) -> int:
    a = load_csv(args.series_a, column=args.column, has_header=args.has_header)
    b = load_csv(args.series_b, column=args.column, has_header=args.has_header)
    distance, matrix = dtw_distance(a.values, b.values, weight=args.weight)
    print(_fmt_distance(distance))
    if args.path:
        for i, j in warp_path(matrix):
            print(f"({i},{j})")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = parse_predict_config(args.config)
    if args.horizon is not None:
        cfg["framework"] = replace(cfg["framework"], horizon=args.horizon)
    seed = args.seed if args.seed is not None else cfg["seed"]
    series = load_csv(**cfg["dataset"])

    result = run_framework(series, cfg["framework"], seed=seed)

    out = _out(args, cfg["output_dir"])
    _write_json(out / "forecast.json", result.to_dict())
    _write_csv(out / "forecast.csv",
               ([step + 1, format_number(v)] for step, v in enumerate(result.combined)))
    if args.dump_groups:
        _write_json(out / "groups.json", result.group_records())

    print(f"{cfg['framework'].variant}: {len(result.combined)} steps -> {out / 'forecast.csv'}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = parse_benchmark_config(args.config)
    runs = args.runs if args.runs is not None else cfg["runs"]
    seeds = cfg["seeds"][:runs]
    if len(seeds) != runs:
        raise ConfigError(f"config provides {len(cfg['seeds'])} seeds, need {runs}")
    series = load_csv(**cfg["dataset"])
    reports = benchmark(series, cfg["holdout"], cfg["frameworks"], runs, seeds,
                        labels=cfg["labels"])

    out = _out(args, cfg["output_dir"])
    horizon = len(reports[0].per_point)
    header = (
        ["framework"]
        + [f"pred_mean_{i + 1}" for i in range(horizon)]
        + [f"pred_std_{i + 1}" for i in range(horizon)]
        + ["mean_re", "std_re"]
    )
    _write_csv(out / "benchmark.csv", [header] + [
        [rep.label]
        + [format_number(p) for _, p, _ in rep.per_point]
        + [format_number(s) for s in rep.per_point_std]
        + [format_number(rep.re_mean_over_runs), format_number(rep.re_std_over_runs)]
        for rep in reports])
    _write_json(out / "benchmark_runs.json", {
        "runs": runs,
        "seeds": list(seeds),
        "holdout": cfg["holdout"],
        "reports": [rep.to_dict() for rep in reports],
    })

    print(f"{'rank':<5}{'framework':<20}{'mean RE':>10}{'std RE':>10}")
    ranked = sorted(reports, key=lambda r: r.re_mean_over_runs)
    for rank, rep in enumerate(ranked, start=1):
        label = rep.label.replace("\n", "\\n").replace("\r", "\\r")  # one line per framework
        print(f"{rank:<5}{label:<20}{rep.re_mean_over_runs:>10.4f}"
              f"{rep.re_std_over_runs:>10.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance: expected positive finite number, got {args.tolerance}")
    kinds = [k.strip().upper() for k in args.kinds.split(",")]
    for kind in kinds:
        if kind not in GRADIENT_TRAINED:
            raise ConfigError(
                f"gradcheck supports {', '.join(GRADIENT_TRAINED)}; got {kind}"
            )
    worst = 0.0
    root = args.seed if args.seed is not None else 0
    for kind in kinds:
        errors = []
        for trial in range(args.trials):
            rng = spawn_rng(root, trial)
            values = rng.normal(size=args.pairs + args.window)
            ts = sliding_window_set(TimeSeries(values), args.window)
            cfg = PredictorConfig(kind=kind, hidden_units=args.hidden,
                                  seed=int(rng.integers(2**63)))
            errors.append(gradient_check(cfg, ts))
        kind_worst = max(errors)
        worst = max(worst, kind_worst)
        print(f"{kind}: max relative error {kind_worst:.3e} over {args.trials} trials")
    if worst >= args.tolerance:
        print(f"numeric failure: worst error {worst:.3e} >= tolerance {args.tolerance:g}",
              file=sys.stderr)
        return EXIT_NUMERIC
    print(f"OK: all gradients within {args.tolerance:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="modecast",
                     description="Decomposition-driven time-series forecasting")
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed override")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect "
                             "(every command runs on one thread)")
    parser.add_argument("--out", help="output directory; overrides the config's "
                                      "output_dir (default: output_dir, else .)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a series into IMFs + residual")
    p.add_argument("input", help="input CSV file")
    p.add_argument("--column", type=_column_arg, default=1, action=_Count,
                   help="value column (1-based number or header name)")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--method", choices=("emd", "eemd"), default="emd")
    p.add_argument("--sd-threshold", type=float, default=SiftConfig.sd_threshold)
    p.add_argument("--max-sift-iterations", type=int, default=SiftConfig.max_sift_iterations,
                   action=_Count)
    p.add_argument("--max-imfs", type=int, default=SiftConfig.max_imfs, action=_Count)
    p.add_argument("--boundary-mode", choices=BOUNDARY_MODES, default=SiftConfig.boundary_mode)
    p.add_argument("--ensemble", type=int, default=EemdConfig.ensemble_size, action=_Count,
                   help="EEMD trial count")
    p.add_argument("--noise", type=float, default=EemdConfig.noise_amplitude,
                   help="EEMD noise amplitude as a fraction of the input std")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("dtw", help="DTW distance between two series")
    p.add_argument("series_a")
    p.add_argument("series_b")
    p.add_argument("--column", type=_column_arg, default=1, action=_Count)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--path", action="store_true", help="also print the warping path")
    p.set_defaults(func=cmd_dtw)

    p = sub.add_parser("predict", help="forecast beyond a series with one framework")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--horizon", type=int, default=None, action=_Count)
    p.add_argument("--dump-groups", action="store_true",
                   help="emit each step's similarity group (offsets, distances) as JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark", help="compare frameworks on a holdout window")
    p.add_argument("config", help="JSON benchmark configuration")
    p.add_argument("--runs", type=int, default=None, action=_Count)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against "
                                         "finite differences")
    p.add_argument("--kinds", default=",".join(GRADIENT_TRAINED))
    p.add_argument("--trials", type=int, default=20, action=_Count)
    p.add_argument("--pairs", type=int, default=6, action=_Count)
    p.add_argument("--window", type=int, default=4, action=_Count)
    p.add_argument("--hidden", type=int, default=3, action=_Count)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def _column_arg(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_seeds("--seed", args.seed)
        return args.func(args)
    except (ValueError, PipelineError, TrainingDivergedError) as exc:
        if isinstance(exc, DataError):
            code, label = EXIT_DATA, "data error"
        elif isinstance(exc, (PipelineError, TrainingDivergedError, InsufficientExtremaError)):
            code, label = EXIT_NUMERIC, "numeric failure"
        else:  # ConfigError or any other ValueError
            code, label = EXIT_CONFIG, "config error"
        # one stderr line, whatever the message holds
        message = str(exc).replace("\n", "\\n").replace("\r", "\\r")
        print(f"{label}: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
