"""Run the bit-identity checks once per OpenBLAS kernel.

    python tools/kernel_matrix.py [CORE ...]

For each core type named (default: SkylakeX Haswell Zen Sandybridge
Prescott), one child process at a time runs the decomposition, trainer
and pipeline oracles and the acceptance tests, then the golden benchmark,
with ``OPENBLAS_CORETYPE=CORE`` set in the child's environment only. A
markdown table reports per core type the kernel numpy's OpenBLAS chose, the
pytest summary, the failing tests and the SHA-256 of ``benchmark_runs.json``.
The tests draw from hypothesis seed 0, so every row and every checkout
draws the same examples (failures saved in ``.hypothesis/`` replay too).

The variable takes effect only in a DYNAMIC_ARCH build of OpenBLAS (numpy's
wheels are one); an unknown name falls back to the detected kernel, and
some names map to another kernel, which the ``kernel`` column shows. Byte
identity holds per (numpy, BLAS kernel) pair, so the digests may differ
between rows. The exit status is 1 when any row shows a failing test, an
INTERNALERROR or a benchmark that did not exit 0, so the script can serve
as a gate. Not part of the test suite: a run takes some minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
TESTS = ("tests/test_decomposition_oracle.py", "tests/test_trainer_oracle.py",
         "tests/test_pipeline_oracle.py", "tests/test_acceptance.py")
GOLDEN = "configs/benchmark_synthetic.json"

# prints the name of the kernel numpy's bundled OpenBLAS runs, or "?"
KERNEL = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
lib = ctypes.CDLL(libs[0]) if libs else None
names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
         "openblas_get_corename")
get = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
if get is not None:
    get.argtypes, get.restype = [], ctypes.c_char_p
print(get().decode() if get is not None else "?")
"""


def _child(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def row(core: str) -> tuple:
    """(markdown row, whether its tests and benchmark passed) of one core type."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    kernel = _child(["-c", KERNEL], env).stdout.strip() or "?"
    tests = _child(["-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
                    "--hypothesis-seed=0", *TESTS], env)
    lines = tests.stdout.splitlines()
    summary = lines[-1].strip("= ") if lines else f"exit {tests.returncode}"
    if any(line.startswith("INTERNALERROR") for line in lines):
        summary += " (INTERNALERROR)"
    failed = [line.split()[1] for line in lines if line.startswith("FAILED ")]
    with tempfile.TemporaryDirectory() as out:
        bench = _child(["-m", "modecast.cli", "--out", out, "benchmark", GOLDEN], env)
        runs = Path(out) / "benchmark_runs.json"
        digest = (hashlib.sha256(runs.read_bytes()).hexdigest() if bench.returncode == 0
                  else f"benchmark exited {bench.returncode}")
    # pytest exits non-zero on a failing test and on an INTERNALERROR
    passed = tests.returncode == 0 and bench.returncode == 0
    return f"| {core} | {kernel} | {summary} | {', '.join(failed) or '-'} | {digest} |", passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cores", nargs="*", default=CORES,
                        help="OPENBLAS_CORETYPE values, one child run each")
    args = parser.parse_args(argv)
    print("| core type | kernel | tests | failed | benchmark_runs.json SHA-256 |")
    print("|---|---|---|---|---|")
    status = 0
    for core in args.cores:
        line, passed = row(core)
        print(line, flush=True)
        status |= not passed
    return status


if __name__ == "__main__":
    sys.exit(main())
