"""The four benchmark workloads: their inputs, one op each, and output checks.

Every op calls modecast through a module attribute (``evaluation.benchmark``,
``pipeline.run_framework``, ``cli.main``), so the wrappers that the traced
run installs on those bindings see the call.

Inputs are a pure function of the workload seed and the op index:

- ``golden`` and ``vtf_enn`` read committed files and cycle through fixed
  seed lists, so their inputs do not depend on the workload seed;
- ``long_dtw`` and ``eemd_decompose`` generate their series from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from modecast import cli, core, evaluation, pipeline
from modecast.grouping import GroupingConfig
from modecast.predictors import PredictorConfig

GOLDEN_CONFIG = "configs/benchmark_synthetic.json"
VTF_DATA = "data/vtf_3hourly_fixture.csv"
VTF_ACTUALS = "data/vtf_table1_actuals.csv"
VTF_SEEDS = (1, 2, 3, 4, 5, 6)  # none of these diverges with ENN at lr 0.05
EEMD_NOISE = 0.1
ACCURACY = ("mean_re.NN", "mean_re.EMD_NN", "mean_re.EMD_DTW_NN", "mean_re.EEMD_DTW_NN",
            "recon_err")
TONE_PERIODS = np.array([10.0, 50.0, 200.0])
TONE_AMPLITUDES = np.array([2.5, 4.0, 5.0])


@dataclass
class OpOutput:
    """What one op produced.

    ``output`` is the serialized result the determinism checks compare byte
    for byte; ``errors`` holds accuracy figures keyed by metric name;
    ``problems`` lists failed output checks (empty when the op is correct).
    """

    output: bytes
    errors: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    bytes_written: int = 0


def synthetic_series(seed: int, length: int, op: int) -> np.ndarray:
    """Offset 50 + trend + three tones (periods 10, 50, 200) + uniform noise.

    The tone phases come from ``seed`` and the noise from ``(seed, op)``.
    Periods and amplitudes are fixed so that the number of extrema, and
    with it the cost of an op, does not depend on the seed.
    """
    phases = np.random.default_rng(np.random.SeedSequence(seed)).uniform(0.0, 2.0 * np.pi, 3)
    t = np.arange(length, dtype=np.float64)
    tones = TONE_AMPLITUDES * np.sin(2.0 * np.pi * t[:, None] / TONE_PERIODS + phases)
    noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(op,)))
    return 50.0 + 0.01 * t + tones.sum(axis=1) + noise.uniform(-1.0, 1.0, length)


def _forecast_problems(values) -> list:
    values = np.asarray(values, dtype=np.float64)
    return [] if np.all(np.isfinite(values)) else ["forecast is not finite"]


def _mean_re(actuals: np.ndarray, forecast) -> float:
    return evaluation.evaluate_run(core.TimeSeries(actuals), forecast).mean_re


class Workload:
    """Base: ``setup()`` builds the inputs, ``op(i)`` runs op ``i``."""

    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path, tiny: bool = False):
        self.root = Path(root)
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpOutput:
        raise NotImplementedError

    def input_digest(self) -> str:
        """SHA-256 over every input the ops read (after ``setup``)."""
        raise NotImplementedError

    def _run_cli(self, argv: list) -> tuple:
        """Run ``cli.main`` with ``--out`` set to a fresh directory.

        Returns (exit code, {file name: bytes}); the directory is removed.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="op", dir=self.workdir))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--out", str(out)] + argv)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return code, files


class Golden(Workload):
    """``evaluation.benchmark(..., runs=1)`` over the golden config's four
    framework specs; op ``i`` uses the ``i``-th seed of the config, cyclically."""

    name = "golden"

    def setup(self) -> None:
        cfg = cli.parse_benchmark_config(str(self.root / GOLDEN_CONFIG))
        dataset = dict(cfg["dataset"], path=str(self.root / cfg["dataset"]["path"]))
        self.series = core.load_csv(**dataset)
        self.holdout = cfg["holdout"]
        self.seeds = cfg["seeds"]
        self.labels = cfg["labels"]
        self.specs = cfg["frameworks"]
        if self.tiny:
            self.specs = [
                replace(s, predictor=replace(s.predictor, epochs=20),
                        eemd=replace(s.eemd, ensemble_size=3))
                for s in self.specs
            ]
        labels = self.labels or [evaluation.framework_label(s) for s in self.specs]
        self.variant_of = {label: s.variant for label, s in zip(labels, self.specs)}
        self._digest = _digest(
            (self.root / GOLDEN_CONFIG).read_bytes(), self.series.values.tobytes())

    def op(self, index: int) -> OpOutput:
        seed = self.seeds[index % len(self.seeds)]
        reports = evaluation.benchmark(self.series, self.holdout, self.specs, 1, [seed],
                                       labels=self.labels)
        doc = [r.to_dict() for r in reports]
        problems = []
        for r in reports:
            problems += _forecast_problems(r.per_run_predictions)
        errors = {f"mean_re.{self.variant_of[r.label]}": r.re_mean_over_runs for r in reports}
        return OpOutput(json.dumps(doc).encode(), errors, problems)

    def input_digest(self) -> str:
        return self._digest


class LongDtw(Workload):
    """``pipeline.run_framework`` with EMD_DTW_NN + GRNN on a T = 1024
    generated series with fresh noise per op; the next 4 points are held out."""

    name = "long_dtw"
    horizon = 4

    def setup(self) -> None:
        self.length = 160 if self.tiny else 1024
        segment = 8 if self.tiny else 24
        self.spec = pipeline.FrameworkSpec(
            variant="EMD_DTW_NN",
            predictor=PredictorConfig(kind="GRNN"),
            grouping=GroupingConfig(segment_length=segment, group_size=10),
            horizon=self.horizon,
        )

    def _series(self, index: int) -> np.ndarray:
        return synthetic_series(self.seed, self.length + self.horizon, index)

    def op(self, index: int) -> OpOutput:
        values = self._series(index)
        train = core.TimeSeries(values[: self.length])
        result = pipeline.run_framework(train, self.spec)
        doc = result.to_dict()
        errors = {"mean_re.EMD_DTW_NN": _mean_re(values[self.length:], result.combined)}
        return OpOutput(json.dumps(doc).encode(), errors, _forecast_problems(result.combined))

    def input_digest(self) -> str:
        return _digest(self._series(0).tobytes(), self._series(1).tobytes())


class EemdDecompose(Workload):
    """``modecast decompose --method eemd`` with 100 trials on a T = 512
    generated series written at set-up; op ``i`` passes ``--seed i + 1``."""

    name = "eemd_decompose"

    def setup(self) -> None:
        length = 96 if self.tiny else 512
        self.ensemble = 3 if self.tiny else 100
        self.values = synthetic_series(self.seed, length, 0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.csv = self.workdir / "series.csv"
        self.csv.write_text("".join(core.format_number(v) + "\n" for v in self.values))
        self.std = float(np.std(self.values))

    def op(self, index: int) -> OpOutput:
        code, files = self._run_cli([
            "--seed", str(index + 1), "decompose", str(self.csv), "--method", "eemd",
            "--ensemble", str(self.ensemble), "--noise", str(EEMD_NOISE)])
        output = b"".join(files.values())
        if code != 0:
            return OpOutput(output, problems=[f"decompose exited {code}"])
        lines = files["components.csv"].decode().splitlines()[1:]
        total = np.array([sum(float(c) for c in line.split(",")) for line in lines])
        if total.size != self.values.size:
            return OpOutput(output, problems=["components.csv has the wrong length"])
        err = float(np.max(np.abs(total - self.values)))
        problems = []
        if not err <= EEMD_NOISE * self.std:
            problems.append(f"reconstruction error {err:.4g} exceeds noise amplitude")
        return OpOutput(output, {"recon_err": err / self.std}, problems, len(output))

    def input_digest(self) -> str:
        return _digest(self.csv.read_bytes())


class VtfEnn(Workload):
    """``modecast predict`` on the VTF fixture with variant NN and an ENN
    regressor; op ``i`` passes the ``i``-th of :data:`VTF_SEEDS`, cyclically,
    and is scored against the Table 1 actuals."""

    name = "vtf_enn"
    horizon = 8

    def setup(self) -> None:
        doc = {
            "schema_version": 1,
            "dataset": {"path": str(self.root / VTF_DATA), "column": 2, "has_header": True},
            "framework": {
                "variant": "NN",
                "predictor": {"kind": "ENN", "hidden_units": 8, "learning_rate": 0.05,
                              "epochs": 20 if self.tiny else 1500},
                "grouping": {"segment_length": 8, "group_size": 10},
                "horizon": self.horizon,
            },
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "predict_vtf_enn.json"
        self.config.write_text(json.dumps(doc, indent=2) + "\n")
        self.actuals = core.load_csv(self.root / VTF_ACTUALS, column=2, has_header=True).values
        self._digest = _digest(json.dumps(dict(doc, dataset=None)).encode(),
                               (self.root / VTF_DATA).read_bytes(), self.actuals.tobytes())

    def op(self, index: int) -> OpOutput:
        seed = VTF_SEEDS[index % len(VTF_SEEDS)]
        code, files = self._run_cli(["--seed", str(seed), "predict", str(self.config)])
        output = b"".join(files.values())
        if code != 0:
            return OpOutput(output, problems=[f"predict exited {code}"])
        combined = json.loads(files["forecast.json"])["combined"]
        problems = _forecast_problems(combined)
        errors = {} if problems else {"mean_re.NN": _mean_re(self.actuals, combined)}
        return OpOutput(output, errors, problems, len(output))

    def input_digest(self) -> str:
        return self._digest


def accuracy(outputs) -> dict:
    """Accuracy over ops: the mean of each ``mean_re.*`` (as the CLI
    benchmark averages runs) and the maximum ``recon_err``; 0 for a figure
    the workload does not produce."""
    values = {}
    for out in outputs:
        for key, value in out.errors.items():
            values.setdefault(key, []).append(value)
    result = dict.fromkeys(ACCURACY, 0.0)
    for key, vals in values.items():
        result[key] = float(np.max(vals) if key == "recon_err" else np.mean(vals))
    return result


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (Golden, LongDtw, EemdDecompose, VtfEnn)}
