"""Run the bit-identity checks once per OpenBLAS kernel and numpy dispatch.

    python tools/kernel_matrix.py [CORE ...] [--write]

For each core type named (default: SkylakeX Haswell Zen Sandybridge
Prescott), two pytest children, one at a time, run the decomposition,
trainer and pipeline oracles, the acceptance tests and the digest test
with ``OPENBLAS_CORETYPE=CORE`` set in the child's environment only: the
first with numpy's CPU dispatch as detected, the second with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` (numpy's AVX2
loops on an AVX-512 host; a variable of the child process, not a machine
setting). A markdown table reports per row the kernel numpy's OpenBLAS
chose, the most capable numpy dispatch target the child runs, the pytest
summary, the failing and skipped tests with their messages, and the row's
key in ``tests/digests.json`` (numpy, scipy, C library, BLAS kernel, numpy
dispatch). The tests draw from hypothesis seed 0, so every row and every
checkout draws the same examples (failures saved in ``.hypothesis/``
replay too).

The pinned digests (:func:`digests`) are the SHA-256 of the golden
``benchmark_runs.json`` (BPNN, EMD, EEMD and DTW at work), the
``forecast.json`` and ``groups.json`` of one ``predict --dump-groups`` run
on the VTF config, ``decompose --method eemd``'s ``components.csv``, and
the weights and loss curve of an ENN (the Elman
recurrence at work) and of a BPNN at L = 5, H = 3 (off the golden L = H =
8). ``tests/test_digests.py``, reusing the golden run of ``test_c09``,
compares them with the table pinned per key; a key the table lacks skips
it, naming the key. ``--write`` computes each row's digests once more,
golden run included, and stores those of the rows whose children all
succeeded, so a deliberate bit move shows as a diff of that file. The exit
status is 1 when any row's pytest child fails (a failing test, a moved
digest, an INTERNALERROR), so the script can serve as a gate. Not part of
the test suite: a run takes some minutes.

The variable takes effect only in a DYNAMIC_ARCH build of OpenBLAS (numpy's
wheels are one); an unknown name falls back to the detected kernel, and
some names map to another kernel, which the ``kernel`` column shows. Byte
identity holds per numpy, scipy, C library, BLAS kernel and numpy dispatch
(``np.exp``'s AVX-512 and AVX2 loops round differently), so the digests may
differ between rows; the numpy and scipy versions and the C library are
printed once above the table, so that tables from two hosts can be
compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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
         "tests/test_pipeline_oracle.py", "tests/test_acceptance.py", "tests/test_digests.py")
DIGESTS = ROOT / "tests" / "digests.json"

# the CLI runs, each with its output files whose digests are pinned, one
# column per file
OUTPUTS = (
    (["benchmark", "configs/benchmark_synthetic.json"], ("benchmark_runs.json",)),
    (["predict", "configs/predict_vtf.json", "--dump-groups"], ("forecast.json", "groups.json")),
    (["decompose", "data/synthetic_benchmark.csv", "--column", "2", "--has-header",
      "--method", "eemd"], ("components.csv",)),
)

# prints the SHA-256 of one model (weights, then loss curve) of the kind,
# window length L and hidden units H given as arguments, trained for 100
# epochs from seed 0 on the sliding windows of the normalized VTF fixture
MODEL = """
import hashlib, sys
from modecast.core import load_csv, minmax_normalize
from modecast.grouping import sliding_window_set
from modecast.predictors import PredictorConfig, train
kind, length, hidden = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
series, _ = minmax_normalize(load_csv("data/vtf_3hourly_fixture.csv", column=2, has_header=True))
model = train(sliding_window_set(series, length),
              PredictorConfig(kind=kind, hidden_units=hidden, epochs=100, seed=0))
print(hashlib.sha256(model.weights.tobytes() + model.training_loss_curve.tobytes()).hexdigest())
"""
# (kind, L, H) of the models whose digests are pinned
MODELS = (("ENN", 8, 8), ("BPNN", 5, 3))

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


def child_env(**variables) -> dict:
    """This process's environment with ``src`` on the path and
    ``variables`` set, for a child that imports the package."""
    return dict(os.environ, **variables, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def kernel_and_dispatch(env: dict) -> tuple:
    """(BLAS kernel, numpy dispatch) that a child with ``env`` runs."""
    return tuple((_child(["-c", KERNEL + DISPATCH], env).stdout.split() + ["?", "?"])[:2])


def table_key(kernel: str, dispatch: str) -> str:
    """The key of ``tests/digests.json`` for this interpreter's numpy,
    scipy and C library and the given kernel and dispatch."""
    return (f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"{' '.join(platform.libc_ver()) or '?'}, {kernel}, {dispatch}")


def digests(env: dict, golden=None) -> dict:
    """The SHA-256 of each output of :data:`OUTPUTS` and each model of
    :data:`MODELS` by column, each made by a child with ``env`` (or why the
    child failed). ``golden``, a ``benchmark_runs.json`` that the golden
    benchmark already wrote with ``env``'s settings, stands in for its run."""
    found = {}
    for args, names in OUTPUTS:
        if golden and names == ("benchmark_runs.json",):
            found[names[0]] = hashlib.sha256(Path(golden).read_bytes()).hexdigest()
            continue
        with tempfile.TemporaryDirectory() as out:
            done = _child(["-m", "modecast.cli", "--out", out, *args], env)
            for name in names:
                found[name] = (hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                               if done.returncode == 0 else f"{args[0]} exited {done.returncode}")
    for kind, length, hidden in MODELS:
        done = _child(["-c", MODEL, kind, str(length), str(hidden)], env)
        found[f"{kind} (L {length}, H {hidden})"] = (
            done.stdout.strip() if done.returncode == 0 else f"{kind} exited {done.returncode}")
    return found


def row(core: str, disabled) -> tuple:
    """(markdown row, whether its tests passed, its table key, its
    children's environment) of one core type, with numpy's CPU features
    ``disabled`` (None: as detected)."""
    env = child_env(OPENBLAS_CORETYPE=core)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    kernel, dispatch = kernel_and_dispatch(env)
    # -vv keeps each failure's message whole in the short summary
    tests = _child(["-m", "pytest", "-vv", "-p", "no:cacheprovider", "-rfs",
                    "--hypothesis-seed=0", *TESTS], env)
    lines = tests.stdout.splitlines()
    summary = lines[-1].strip("= ") if lines else f"exit {tests.returncode}"
    if any(line.startswith("INTERNALERROR") for line in lines):
        summary += " (INTERNALERROR)"
    reported = [line for line in lines if line.startswith(("FAILED ", "SKIPPED "))]
    key = table_key(kernel, dispatch)
    # pytest exits non-zero on a failing test and on an INTERNALERROR
    return (f"| {core} | {kernel} | {dispatch} | {summary} | {'; '.join(reported) or '-'} "
            f"| {key} |"), tests.returncode == 0, key, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cores", nargs="*", default=CORES,
                        help="OPENBLAS_CORETYPE values, one child run each")
    parser.add_argument("--write", action="store_true",
                        help=f"store the digests of the rows run in {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    print(f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"C library {' '.join(platform.libc_ver()) or '?'}\n")
    print("| core type | kernel | numpy dispatch | tests | failed and skipped | key |")
    print("|---|---|---|---|---|---|")
    status, written = 0, {}
    for core in args.cores:
        for disabled in DISPATCHES:
            line, passed, key, env = row(core, disabled)
            print(line, flush=True)
            status |= not passed
            found = digests(env) if args.write else {}
            # a child that failed left "... exited N" where its 64-digit digest goes
            if found and all(len(d) == 64 for d in found.values()):
                written[key] = found
    if args.write:
        table = json.loads(DIGESTS.read_text(encoding="utf-8"))
        table.update(written)
        DIGESTS.write_text(json.dumps(dict(sorted(table.items())), indent=2) + "\n",
                           encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
