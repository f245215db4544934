"""Run the bit-identity checks once per OpenBLAS kernel and numpy dispatch.

    python tools/kernel_matrix.py [CORE ...]

For each core type named (default: SkylakeX Haswell Zen Sandybridge
Prescott), two child processes, one at a time, run the decomposition,
trainer and pipeline oracles and the acceptance tests, then the golden
benchmark, then one ENN training, with ``OPENBLAS_CORETYPE=CORE`` set in the
child's environment only: the first with numpy's CPU dispatch as detected,
the second with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``
(numpy's AVX2 loops on an AVX-512 host; a variable of the child process,
not a machine setting). A markdown table reports per row the kernel numpy's
OpenBLAS chose, the most capable numpy dispatch target the child runs, the
pytest summary, the failing tests, the SHA-256 of ``benchmark_runs.json``
(BPNN, EMD, EEMD and DTW at work) and the SHA-256 of the ENN's weights and
loss curve (the Elman recurrence at work), so that a bit move of either
shows per kernel and dispatch.
The tests draw from hypothesis seed 0, so every row and every checkout
draws the same examples (failures saved in ``.hypothesis/`` replay too).

The variable takes effect only in a DYNAMIC_ARCH build of OpenBLAS (numpy's
wheels are one); an unknown name falls back to the detected kernel, and
some names map to another kernel, which the ``kernel`` column shows. Byte
identity holds per numpy, scipy, C library, BLAS kernel and numpy dispatch
(``np.exp``'s AVX-512 and AVX2 loops round differently), so the digests may
differ between rows; the numpy and scipy versions and the C library are
printed once above the table, so that tables from two hosts can be
compared. The exit status is 1 when any row shows a failing test, an
INTERNALERROR or a benchmark that did not exit 0, so the script can serve
as a gate. Not part of the test suite: a run takes some minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
CORES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
TESTS = ("tests/test_decomposition_oracle.py", "tests/test_trainer_oracle.py",
         "tests/test_pipeline_oracle.py", "tests/test_acceptance.py")
GOLDEN = "configs/benchmark_synthetic.json"

# prints the SHA-256 of one ENN (weights, then loss curve) trained for 100
# epochs on the sliding windows of the normalized VTF fixture
ENN = """
import hashlib
from modecast.core import load_csv, minmax_normalize
from modecast.grouping import sliding_window_set
from modecast.predictors import PredictorConfig, train
series, _ = minmax_normalize(load_csv("data/vtf_3hourly_fixture.csv", column=2, has_header=True))
model = train(sliding_window_set(series, 8), PredictorConfig(kind="ENN", epochs=100, seed=0))
print(hashlib.sha256(model.weights.tobytes() + model.training_loss_curve.tobytes()).hexdigest())
"""

# NPY_DISABLE_CPU_FEATURES per row of a core type: as detected, then AVX2
DISPATCHES = (None, "AVX512_SPR AVX512_ICL X86_V4")

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

# prints the most capable of numpy's dispatch targets that this process runs
DISPATCH = """
from numpy._core import _multiarray_umath as m
print(([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)] or ["baseline"])[-1])
"""


def _child(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def row(core: str, disabled) -> tuple:
    """(markdown row, whether its tests and benchmark passed) of one core
    type, with numpy's CPU features ``disabled`` (None: as detected)."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    kernel, dispatch = (_child(["-c", KERNEL + DISPATCH], env).stdout.split() + ["?", "?"])[:2]
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
    enn = _child(["-c", ENN], env)
    enn_digest = enn.stdout.strip() if enn.returncode == 0 else f"ENN exited {enn.returncode}"
    # pytest exits non-zero on a failing test and on an INTERNALERROR
    passed = tests.returncode == 0 and bench.returncode == 0 and enn.returncode == 0
    return (f"| {core} | {kernel} | {dispatch} | {summary} | {', '.join(failed) or '-'} | {digest} "
            f"| {enn_digest} |"), passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cores", nargs="*", default=CORES,
                        help="OPENBLAS_CORETYPE values, one child run each")
    args = parser.parse_args(argv)
    print(f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"C library {' '.join(platform.libc_ver()) or '?'}\n")
    print("| core type | kernel | numpy dispatch | tests | failed "
          "| benchmark_runs.json SHA-256 | ENN SHA-256 |")
    print("|---|---|---|---|---|---|---|")
    status = 0
    for core in args.cores:
        for disabled in DISPATCHES:
            line, passed = row(core, disabled)
            print(line, flush=True)
            status |= not passed
    return status


if __name__ == "__main__":
    sys.exit(main())
