"""The host's pinned outputs against the table in ``digests.json``.

The table is keyed as ``tools/kernel_matrix.py`` keys it (numpy, scipy, C
library, BLAS kernel, numpy dispatch), and its columns are the tool's
``digests``: here with the golden run that ``test_c09`` reads too. A host
whose key the table lacks skips, naming the key; ``python
tools/kernel_matrix.py --write`` adds its rows.
"""

import json
import runpy

import pytest

from conftest import REPO


def test_digests_match_the_pinned_table(golden_benchmark):
    tool = runpy.run_path(str(REPO / "tools" / "kernel_matrix.py"))
    env = tool["child_env"]()
    key = tool["table_key"](*tool["kernel_and_dispatch"](env))
    table = json.loads((REPO / "tests" / "digests.json").read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"no pinned digests for {key}")
    found = tool["digests"](env, golden_benchmark[0] / "benchmark_runs.json")
    moved = [name for name in {**table[key], **found} if found.get(name) != table[key].get(name)]
    assert not moved, f"{', '.join(moved)} differ"
