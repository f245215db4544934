"""Run the benchmark's workloads and write their results to ``BENCH_<pr>.json``.

    python tools/bench.py PR [--workload W ...] [--seconds N] [--out DIR]

For each workload named in ``BENCHMARK.json`` (or each ``--workload``
given), one child process at a time runs

    python3 perfbench/run.py --workload W --seed 1 --seconds N --trace 0

from the root of the checkout (``--seconds`` defaults to the file's
``run_seconds``). The child's ``record …`` line and its last line, the
result, are parsed and written to ``DIR/BENCH_<PR>.json`` (``DIR``
defaults to the checkout's root) as

    {"pr": PR, "seed": 1, "seconds": N,
     "workloads": {W: {"correct": ..., "attempted": ..., "failed": ...,
                       "metrics": {name: {"value": ..., "unit": ...}},
                       "record": {...}}}}

A one-line summary per workload goes to stdout. The exit status is 1 when
any workload's run did not exit 0 or was not correct; the file is written
either way, with the child's exit status and last stderr line in place of
a result that is missing. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # perfbench's generated inputs follow the seed; one seed keeps PRs comparable


def run(workload: str, seconds: float) -> dict:
    """The parsed result of one perfbench run, with its run record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    records = [line[len("record "):] for line in lines if line.startswith("record ")]
    if done.returncode != 0 or not records:
        stderr = done.stderr.strip().splitlines()
        return {"correct": False, "exit_status": done.returncode,
                "error": stderr[-1] if stderr else ""}
    return {**json.loads(lines[-1]), "record": json.loads(records[-1])}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the number in the file name BENCH_<pr>.json")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)

    results = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results[workload] = result = run(workload, args.seconds)
        summary = ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                            for name, m in result.get("metrics", {}).items())
        print(f"{workload}: correct={result['correct']} {summary or result.get('error')}",
              flush=True)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps({"pr": args.pr, "seed": SEED, "seconds": args.seconds,
                                "workloads": results}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return int(not all(result["correct"] for result in results.values()))


if __name__ == "__main__":
    sys.exit(main())
