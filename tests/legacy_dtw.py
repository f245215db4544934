"""The DTW recurrence as it was before both entry points ran one
anti-diagonal kernel, frozen as a test oracle: a scalar double loop that
fills the whole cumulative grid of one pair, and a cell-by-cell loop
vectorised over the candidate rows that keeps two rows of the grid.
``tests/test_dtw_oracle.py`` checks that ``modecast.dtw`` reproduces both
bit for bit. Do not edit it to make that test pass.
"""

from __future__ import annotations

import numpy as np

from modecast.dtw import CostMatrix, _check_weight


def dtw_distance(y, z, weight: float = 1.0) -> tuple:
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.size == 0 or z.size == 0:
        raise ValueError("sequences must be non-empty")
    _check_weight(weight)

    with np.errstate(over="ignore"):
        local = weight * np.abs(y[:, None] - z[None, :])
        m, n = local.shape
        g = np.empty((m, n), dtype=np.float64)
        g[0, 0] = local[0, 0]
        for j in range(1, n):
            g[0, j] = local[0, j] + g[0, j - 1]
        for i in range(1, m):
            g[i, 0] = local[i, 0] + g[i - 1, 0]
            for j in range(1, n):
                g[i, j] = local[i, j] + min(g[i - 1, j - 1], g[i - 1, j], g[i, j - 1])
    return float(g[m - 1, n - 1]), CostMatrix(g)


def dtw_distances(windows, reference, weight: float = 1.0) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    z = np.asarray(reference, dtype=np.float64)
    if windows.ndim != 2 or z.ndim != 1:
        raise ValueError("windows must be 2-D and the reference 1-D")
    if windows.shape[1] == 0 or z.size == 0:
        raise ValueError("sequences must be non-empty")
    _check_weight(weight)

    # g[j] holds gamma(i, j) of every row, a contiguous vector per cell
    best = np.empty(windows.shape[0])
    g = None
    with np.errstate(over="ignore"):
        for y_i in windows.T:
            local = weight * np.abs(y_i[None, :] - z[:, None])
            prev, g = g, np.empty_like(local)
            if prev is None:
                g[0] = local[0]
                for j in range(1, z.size):
                    np.add(local[j], g[j - 1], out=g[j])
                continue
            np.add(local[0], prev[0], out=g[0])
            for j in range(1, z.size):
                np.minimum(prev[j - 1], prev[j], out=best)
                np.minimum(best, g[j - 1], out=best)
                np.add(local[j], best, out=g[j])
    return g[-1].copy()
