"""Dynamic time warping between two sequences, with warping-path recovery
and a lock-step Euclidean baseline.

Cells and path pairs use 1-based indices: the cumulative cost gamma(1,1) is
the local distance of the first points and the optimal alignment cost is
gamma(m,n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostMatrix:
    """Cumulative alignment costs gamma(i,j), non-decreasing along any
    monotone path from (1,1) to (m,n)."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.float64)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)


def _check_weight(weight: float) -> None:
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"weight must be positive and finite, got {weight}")


def point_distance(a: float, b: float, weight: float = 1.0) -> float:
    """Weighted one-dimensional Euclidean distance ``weight * |a - b|``."""
    _check_weight(weight)
    return weight * abs(a - b)


def dtw_distance(y, z, weight: float = 1.0) -> tuple:
    """Minimal cumulative alignment cost between two sequences.

    Fills the cumulative matrix by
    gamma(i,j) = d(y_i, z_j) + min(gamma(i-1,j-1), gamma(i-1,j), gamma(i,j-1))
    with out-of-range neighbors treated as +inf and gamma(1,1) = d(y_1, z_1).

    Parameters
    ----------
    y, z : array_like
        Non-empty value sequences; lengths may differ.
    weight : float
        Positive, finite scale of the pointwise distance.

    Returns
    -------
    distance : float
        gamma(m, n); a cost beyond the float range is +inf.
    matrix : CostMatrix
        Full cumulative grid, for path recovery.
    """
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
    """DTW distance of every row of ``windows`` to one reference sequence.

    Runs the recurrence of :func:`dtw_distance` cell by cell in the same
    order, with each cell vectorised over all rows, so entry k equals
    ``dtw_distance(windows[k], reference, weight)[0]`` bit for bit. Time is
    O(n*m*L); only two rows of the cumulative grid are held, as (L, n)
    arrays, never the full (n, m, L) tensor.

    Parameters
    ----------
    windows : array_like, shape (n, m)
        Candidate sequences, one per row; m >= 1.
    reference : array_like, shape (L,)
        Non-empty sequence every row is aligned to.
    weight : float
        Positive, finite scale of the pointwise distance.

    Returns
    -------
    ndarray, shape (n,)
        gamma(m, L) of each row; a cost beyond the float range is +inf.
    """
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


def warp_path(matrix: CostMatrix) -> tuple:
    """Recover the optimal alignment path by backtracking from (m, n).

    At each cell the minimal predecessor among diagonal (i-1,j-1),
    vertical (i-1,j) and horizontal (i,j-1) is chosen; ties resolve in that
    fixed order, so the result is deterministic.

    Returns
    -------
    tuple of (i, j)
        1-based index pairs from (1,1) to (m,n); each step increments i, j,
        or both by exactly 1.
    """
    g = matrix.cells
    i, j = g.shape[0] - 1, g.shape[1] - 1
    path = [(i + 1, j + 1)]
    while i > 0 or j > 0:
        candidates = []
        if i > 0 and j > 0:
            candidates.append((g[i - 1, j - 1], i - 1, j - 1))
        if i > 0:
            candidates.append((g[i - 1, j], i - 1, j))
        if j > 0:
            candidates.append((g[i, j - 1], i, j - 1))
        best = min(candidates, key=lambda c: c[0])  # list order breaks ties
        _, i, j = best
        path.append((i + 1, j + 1))
    path.reverse()
    return tuple(path)


def euclidean_distance(y, z) -> float:
    """Lock-step distance sum(|y_i - z_i|) under the same point metric,
    for apples-to-apples comparison with DTW. Lengths must match."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.size != z.size:
        raise ValueError(f"length mismatch: {y.size} vs {z.size}")
    if y.size == 0:
        raise ValueError("sequences must be non-empty")
    return float(np.sum(np.abs(y - z)))
