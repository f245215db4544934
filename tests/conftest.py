import numpy as np
import pytest
from pathlib import Path

from modecast.predictors import _enn_context

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"
CONFIGS = REPO / "configs"


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def configs_dir():
    return CONFIGS


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
    are zero: the step's GEMV of ``[Wh | Wb] = [0 | 0 z]`` on the row
    ``[c, x, 1] = [0, 1, 1]`` (each with its zero pad, if any) sums exact
    zeros and ``z * 1``, so it is ``z`` bit for bit (up to the sign of a
    zero, which the sigmoid maps to 0.5 either way)."""
    out = np.empty(z.shape)
    for start in range(0, z.size, 64):
        bias = z[start : start + 64]
        h, contexts = bias.size, np.empty((2, bias.size))
        p = {"Wb": np.column_stack([np.zeros(h), bias]), "Wh": np.zeros((h, h))}
        _enn_context(p, np.ones((2, 1)), contexts)()
        out[start : start + h] = contexts[1]
    return out
