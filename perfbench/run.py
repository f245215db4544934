#!/usr/bin/env python3
"""modecast benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0

Run from the root of a modecast checkout; modecast is imported from its
``src/``. Ops run back to back on one thread (``workers=1``, BLAS pinned to
one thread) until ``--seconds`` have passed, then op 0 is replayed and must
reproduce its output byte for byte. Every reported time is rescaled to the
reference speed of ``calibration.py``; the raw wall times are in the record.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every op twice, untraced and then with the layer
wrappers of ``tracing.py`` installed, requires byte-identical outputs,
reports the per-layer metrics and writes the spans to
``.perfbench_out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (machine, versions, git rev, ``src/`` line count, per-op
times and accuracy). Exits 2 without a result when the checkout lacks the
sources or data the workloads need.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
REQUIRED = (
    "BENCHMARK.json",
    "src/modecast/__init__.py",
    "configs/benchmark_synthetic.json",
    "data/synthetic_benchmark.csv",
    "data/vtf_3hourly_fixture.csv",
    "data/vtf_table1_actuals.csv",
)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def probe_setup(name: str, seed: int, workdir: Path) -> None:
    """Launch ``setup_probe.py`` and wait until it is ready."""
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                           str(workdir)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {code})")


class Stopwatch:
    """Times calls and rescales each one to the reference speed of
    ``calibration.py``, using the calibration measured just before and
    just after the call."""

    def __init__(self):
        import calibration

        self._calibration = calibration
        self.calibrations = [calibration.measure()]
        self.wall = []

    def time(self, fn, *args):
        """Returns (fn's result, scaled wall seconds, scaled CPU seconds)."""
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        self.calibrations.append(self._calibration.measure())
        self.wall.append(wall)
        factor = self._calibration.REFERENCE_S / (sum(self.calibrations[-2:]) / 2.0)
        return result, wall * factor, cpu * factor


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def attempt(workload, index: int):
    """Run op ``index``; returns (OpOutput or None, list of problems)."""
    try:
        out = workload.op(index)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return None, [f"op {index} raised {type(exc).__name__}: {exc}"]
    return out, [f"op {index}: {p}" for p in out.problems]


def tail(times: list):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n <= 10:
        return None
    rank = n - 10
    return {"pct": round(100.0 * rank / n, 1), "op_s": sorted(times)[rank - 1], "n": n}


def git_rev(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(name: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(ROOT),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        probes: int = SETUP_PROBES) -> tuple:
    """Run one workload; returns (result line dict, run record dict)."""
    import tracing
    import workloads

    run_start = time.perf_counter()
    record = {"loadavg_start": os.getloadavg()}
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    clock = Stopwatch()
    try:
        setup_samples = [clock.time(probe_setup, name, seed, work / f"probe{k}")[1]
                         for k in range(probes)]
        workload = workloads.WORKLOADS[name](ROOT, seed, work / "run", tiny)
        workload.setup()

        tracer = tracing.Tracer() if trace else None
        op_times, op_cpu, problems, outputs = [], [], [], []
        traced_times, traced_wall = [], []
        attempted = failed = bytes_written = 0
        first = None
        start = time.perf_counter()
        index = 0
        while True:
            (out, bad), wall, cpu = clock.time(attempt, workload, index)
            op_times.append(wall)
            op_cpu.append(cpu)
            if index == 0:
                first = out
            if out is not None:
                outputs.append(out)
            if tracer is not None:
                with tracer.installed(op=index):
                    (traced, traced_bad), wall, _ = clock.time(attempt, workload, index)
                traced_times.append(wall)
                traced_wall.append(clock.wall[-1])
                if traced is not None:
                    bytes_written += traced.bytes_written
                    if out is not None and traced.output != out.output:
                        traced_bad.append(f"op {index}: traced output differs from untraced")
                attempted += 1
                failed += bool(traced_bad)
                problems += traced_bad
            attempted += 1
            failed += bool(bad)
            problems += bad
            index += 1
            if time.perf_counter() - start >= seconds:
                break

        replay, bad = attempt(workload, 0)
        if replay is not None and first is not None and replay.output != first.output:
            bad.append("replay of op 0 differs from op 0")
        attempted += 1
        failed += bool(bad)
        problems += bad
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(op_times)
    accuracy = workloads.accuracy(outputs)
    computed = {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(op_times),
        "ops_per_s": n / sum(op_times),
        "cpu_s_per_op": sum(op_cpu) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # span times get the traced ops' average rescaling
        computed.update(tracer.layer_metrics(n, sum(traced_times) / sum(traced_wall)))
        computed.update(accuracy)
        computed["cli.bytes_written"] = bytes_written / n
        computed["trace.op_s"] = statistics.fmean(traced_times)
        computed["trace.overhead_frac"] = sum(traced_times) / sum(op_times) - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}.jsonl")

    spec = benchmark_spec()
    metrics = {
        m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(machine_record(name, seed))
    record.update({
        "loadavg_end": os.getloadavg(),
        "trace": bool(trace),
        "seconds": seconds,
        "ops": n,
        "failed_frac": failed / attempted,
        "problems": problems,
        "run_s": time.perf_counter() - run_start,
        "setup_s": setup_samples,
        "op_s": op_times,
        "op_s_tail": tail(op_times),
        "calibration_s": clock.calibrations,
        "wall_s": clock.wall,
        "accuracy": accuracy,
    })
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a modecast checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
