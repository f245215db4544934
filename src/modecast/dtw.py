"""Dynamic time warping between two sequences, with warping-path recovery
and a lock-step Euclidean baseline.

Cells and path pairs use 1-based indices: the cumulative cost gamma(1,1) is
the local distance of the first points and the optimal alignment cost is
gamma(m,n). Every DTW entry point runs one recurrence, one anti-diagonal of
the grid at a time (``_diagonals``). Slices of one sequence read their local
costs from one table over it; arbitrary rows compute theirs per diagonal.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import check_positive


def point_distance(a: float, b: float, weight: float = 1.0) -> float:
    """Weighted one-dimensional Euclidean distance ``weight * |a - b|``."""
    check_positive(weight=weight)
    return weight * abs(a - b)


def _checked(y, z, ndim: int, weight: float = 1.0) -> tuple:
    """``y`` (``ndim``-D) and ``z`` (1-D) as float arrays, once both are
    non-empty and finite and ``weight`` is positive and finite."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.ndim != ndim or z.ndim != 1:
        raise ValueError(f"expected a {ndim}-D and a 1-D sequence, got shapes "
                         f"{y.shape} and {z.shape}")
    if y.shape[-1] == 0 or z.size == 0:
        raise ValueError("sequences must be non-empty")
    if not (np.isfinite(y).all() and np.isfinite(z).all()):
        raise ValueError("sequences must be finite")
    check_positive(weight=weight)
    return y, z


def _diagonals(source: np.ndarray, m: int, z: np.ndarray, weight: float):
    """Yield ``(lo, cells)`` per anti-diagonal d = i + j, in order, of the
    cumulative grids of n length-m candidates against ``z`` (L,):
    ``cells[k]`` is gamma(lo + k, d - lo - k) of candidate k until the next
    step. Candidates are the rows of a 2-D ``source``, whose local costs
    each diagonal computes, or the n = T - m + 1 length-m slices of a 1-D
    ``source`` v, whose costs weight * |v[k + i] - z_j| it reads from one
    (L, T) table through a view with row stride T + 1: O(T*L + n*L)
    memory. Three rotating (m + 1, n) buffers hold row i in slot i + 1 and
    the border row i = -1 in slot 0, at +inf but for gamma(-1, -1) = 0, so
    gamma(0, 0) = local + 0.0 = local. Run under ``over="ignore"``."""
    l, z_reversed = z.size, z[::-1]
    if source.ndim == 1:
        t = source.size
        n = t - m + 1
        table = np.subtract(source, z_reversed[:, None])
        np.abs(table, out=table)
        np.multiply(weight, table, out=table)
        lanes = sliding_window_view(table.ravel(), n)  # lanes[r * t + c] is table[r, c : c + n]

        def local(d, lo, hi, out):
            start = (l - 1 - d + lo) * t + lo  # table row l - 1 - j, column i, at i = lo
            return lanes[start : start + (hi - lo) * (t + 1) + 1 : t + 1]
    else:
        n = source.shape[0]
        rows = np.ascontiguousarray(source.T)

        def local(d, lo, hi, out):
            # z_j for j = d - lo down to d - hi
            np.subtract(rows[lo : hi + 1], z_reversed[l - 1 - d + lo : l - d + hi, None], out=out)
            np.abs(out, out=out)
            np.multiply(weight, out, out=out)
            return out
    diagonal = np.full((3, m + 1, n), np.inf)
    diagonal[0, 0] = 0.0
    for d in range(m + l - 1):
        before, last, current = diagonal[d % 3], diagonal[(d + 1) % 3], diagonal[(d + 2) % 3]
        lo, hi = max(0, d - l + 1), min(m - 1, d)
        # diagonal d - 2 is read for the last time, so it takes the minimum
        best, out = before[lo : hi + 1], current[lo + 1 : hi + 2]
        np.minimum(best, last[lo : hi + 1], out=best)
        np.minimum(best, last[lo + 1 : hi + 2], out=best)
        np.add(local(d, lo, hi, out), best, out=out)
        current[lo] = np.inf  # the border row, unless gamma(-1, -1) left a 0 there
        yield lo, out


def _distances(source: np.ndarray, m: int, z: np.ndarray, weight: float) -> np.ndarray:
    """gamma(m, L) of every candidate of :func:`_diagonals`, +inf beyond the
    float range; the caller checks the inputs."""
    with np.errstate(over="ignore"):
        for _, cells in _diagonals(source, m, z, weight):
            pass
    return cells[0].copy()


def dtw_distance(y, z, weight: float = 1.0) -> tuple:
    """Minimal cumulative alignment cost between two sequences.

    Fills the cumulative matrix by
    gamma(i,j) = d(y_i, z_j) + min(gamma(i-1,j-1), gamma(i-1,j), gamma(i,j-1))
    with out-of-range neighbors treated as +inf and gamma(1,1) = d(y_1, z_1),
    one anti-diagonal at a time: the one-candidate case of the recurrence
    of :func:`dtw_distances`, with local costs read from one table.

    Parameters
    ----------
    y, z : array_like
        Non-empty, finite 1-D sequences; lengths may differ.
    weight : float
        Positive, finite scale of the pointwise distance.

    Returns
    -------
    distance : float
        gamma(m, n); a cost beyond the float range is +inf.
    matrix : ndarray, shape (m, n)
        The full cumulative grid, read-only: ``matrix[i - 1, j - 1]`` is
        gamma(i, j), non-decreasing along any monotone path from (1,1) to
        (m,n). :func:`warp_path` recovers the alignment from it.
    """
    y, z = _checked(y, z, ndim=1, weight=weight)
    g, i = np.empty((y.size, z.size)), np.arange(y.size)
    with np.errstate(over="ignore"):
        for d, (lo, cells) in enumerate(_diagonals(y, y.size, z, weight)):
            rows = i[lo : lo + cells.size]
            g[rows, d - rows] = cells[:, 0]
    g.flags.writeable = False
    return float(g[-1, -1]), g


def dtw_distances(windows, reference, weight: float = 1.0) -> np.ndarray:
    """DTW distance of every row of ``windows`` to one reference sequence.

    Runs the anti-diagonal recurrence of :func:`dtw_distance` with each
    diagonal vectorised over all rows, so entry k equals
    ``dtw_distance(windows[k], reference, weight)[0]`` bit for bit. Rows are
    arbitrary, so each diagonal computes its own local costs. Time is
    O(n*m*L); only three diagonals of the cumulative grids are held, as
    (m + 1, n) arrays, never the full (n, m, L) tensor.

    Parameters
    ----------
    windows : array_like, shape (n, m)
        Finite candidate sequences, one per row; m >= 1.
    reference : array_like, shape (L,)
        Non-empty, finite sequence every row is aligned to.
    weight : float
        Positive, finite scale of the pointwise distance.

    Returns
    -------
    ndarray, shape (n,)
        gamma(m, L) of each row; a cost beyond the float range is +inf.
    """
    windows, z = _checked(windows, reference, ndim=2, weight=weight)
    return _distances(windows, windows.shape[1], z, weight)


def warp_path(matrix: np.ndarray) -> tuple:
    """Recover the optimal alignment path by backtracking from (m, n)
    through the cumulative grid that :func:`dtw_distance` returns.

    At each cell the minimal predecessor among diagonal (i-1,j-1),
    vertical (i-1,j) and horizontal (i,j-1) is chosen; ties resolve in that
    fixed order, so the result is deterministic.

    Returns
    -------
    tuple of (i, j)
        1-based index pairs from (1,1) to (m,n); each step increments i, j,
        or both by exactly 1.
    """
    g = np.asarray(matrix)
    i, j = g.shape[0] - 1, g.shape[1] - 1
    path = [(i + 1, j + 1)]
    while i > 0 or j > 0:
        steps = [(i - 1, j - 1), (i - 1, j), (i, j - 1)]
        # min keeps the first of equal costs, so list order breaks ties
        i, j = min([s for s in steps if min(s) >= 0], key=lambda s: g[s])
        path.append((i + 1, j + 1))
    path.reverse()
    return tuple(path)


def euclidean_distance(y, z) -> float:
    """Lock-step distance sum(|y_i - z_i|) under the same point metric and
    input checks, for apples-to-apples comparison with DTW. Lengths must
    match; a sum beyond the float range is +inf."""
    y, z = _checked(y, z, ndim=1)
    if y.size != z.size:
        raise ValueError(f"length mismatch: {y.size} vs {z.size}")
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(y - z)))
