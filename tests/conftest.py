import time

import numpy as np
import pytest
from pathlib import Path

from modecast.cli import main
from modecast.predictors import _descent_layout, _enn_context, _rows, _views

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
CONFIGS = REPO / "configs"


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def golden_benchmark(tmp_path_factory):
    """``modecast benchmark`` on the golden config, run once per session
    from the repository root: (its output directory, seconds taken)."""
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO)
        started = time.perf_counter()
        code = main(["--out", str(out), "benchmark", str(CONFIGS / "benchmark_synthetic.json")])
        elapsed = time.perf_counter() - started
    assert code == 0
    return out, elapsed


def random_smooth_series(rng, length):
    """Random smooth test signal: a few tones plus a linear trend."""
    t = np.arange(length, dtype=np.float64)
    x = rng.uniform(-0.5, 0.5) * t / length
    for _ in range(rng.integers(2, 5)):
        period = rng.uniform(8, length / 2)
        x = x + rng.uniform(0.3, 2.0) * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
    return x


def recurrence_sigmoid(z):
    """The sigmoid inside ``predictors._enn_context``, applied to ``z`` in
    chunks of 64 as the bias of one-step recurrences whose other weights
    are zero: the step's GEMV of ``A = [Wh | Wx | b | 0] = [0 | 0 | z | 0]``
    on the row ``[c | x | 1 | 0] = [0 | 1 | 1 | 0]`` (the pad column only
    if any) sums exact zeros and ``z * 1``, so it is ``z`` bit for bit (up
    to the sign of a zero, which the sigmoid maps to 0.5 either way)."""
    out = np.empty(z.shape)
    for start in range(0, z.size, 64):
        bias = z[start : start + 64]
        h = bias.size
        a = np.zeros((h, h + 2 + h % 2))
        a[:, h + 1] = bias
        rows = _rows(np.ones((2, 1)), a.shape[1], h)
        _enn_context(a[None], rows[None])()
        out[start : start + h] = rows[1, :h]
    return out


def enn_contexts(weights, x, h):
    """The (n, H) contexts that one fill of ``predictors._enn_context``
    writes over the pairs ``x`` (n, L) at the public ENN ``weights``, with
    its step matrix in the descent layout, as training runs it."""
    l = x.shape[1]
    a = _views("ENN", _descent_layout("ENN", weights, l, h)[0], l, h, fold=True)["A"]
    rows = _rows(x, a.shape[1], h)
    _enn_context(a[None], rows[None])()
    return rows[:, :h].copy()
