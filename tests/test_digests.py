"""The host's output digests against the table pinned in ``digests.json``.

The table is keyed as ``tools/kernel_matrix.py`` keys it: numpy version,
scipy version, C library, BLAS kernel and numpy dispatch. Its three
digests are those the tool prints per row: the golden
``benchmark_runs.json`` (the run ``test_c09`` reads too), an ENN at
L = H = 8 and a BPNN at L = 5, H = 3. A host whose key the table lacks
skips, naming the key; ``python tools/kernel_matrix.py --write`` adds its
rows.
"""

import hashlib
import json
import runpy

import pytest

from conftest import REPO


def test_digests_match_the_pinned_table(golden_benchmark):
    tool = runpy.run_path(str(REPO / "tools" / "kernel_matrix.py"))
    env = tool["child_env"]()
    key = tool["table_key"](*tool["kernel_and_dispatch"](env))
    pinned = json.loads((REPO / "tests" / "digests.json").read_text(encoding="utf-8"))
    if key not in pinned:
        pytest.skip(f"no pinned digests for {key}")
    out, _ = golden_benchmark
    golden = hashlib.sha256((out / "benchmark_runs.json").read_bytes()).hexdigest()
    digests = dict(zip(tool["COLUMNS"], [golden, *tool["model_digests"](env)]))
    assert digests == pinned[key]
