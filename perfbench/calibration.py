"""Machine-speed calibration for the benchmark's timings.

On a shared host the same op can take twice as long in one minute as in
the next, and process CPU time slows down with it. A fixed calibration
kernel timed next to the op follows that slowdown: in a four-minute probe,
an EEMD call moved between 0.25 s and 0.51 s while its ratio to the kernel
stayed between 38 and 44. So the benchmark rescales every time it reports
to a reference speed:

    reported = measured * REFERENCE_S / mean(calibration before, calibration after)

The kernel mixes the three kinds of work the workloads spend their time in:
a DTW recurrence on numpy scalars, small dense gradient steps and cubic
spline fits. It uses numpy and scipy only, never modecast, so a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

# Median kernel time on the machine the baseline was measured on (2-core
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17), in a quiet
# spell; reported times are in seconds at that speed.
REFERENCE_S = 0.0180
REPEATS = 5

_RNG = np.random.default_rng(20190512)
_Y = _RNG.uniform(size=24)
_Z = _RNG.uniform(size=24)
_X = _RNG.uniform(size=(32, 8))
_T = _RNG.uniform(size=32)
_W0 = _RNG.uniform(-0.5, 0.5, size=8)
_KNOTS = np.cumsum(_RNG.uniform(2.0, 6.0, size=50))
_KNOT_VALUES = _RNG.uniform(-1.0, 1.0, size=50)
_GRID = np.arange(int(_KNOTS[-1]), dtype=np.float64)


def kernel() -> float:
    """One pass of the fixed calibration work; returns a checksum."""
    total = 0.0
    for _ in range(16):
        local = np.abs(_Y[:, None] - _Z[None, :])
        g = np.empty_like(local)
        g[0, 0] = local[0, 0]
        for j in range(1, 24):
            g[0, j] = local[0, j] + g[0, j - 1]
        for i in range(1, 24):
            g[i, 0] = local[i, 0] + g[i - 1, 0]
            for j in range(1, 24):
                g[i, j] = local[i, j] + min(g[i - 1, j - 1], g[i - 1, j], g[i, j - 1])
        total += g[-1, -1]
    w = _W0.copy()
    for _ in range(400):
        h = 1.0 / (1.0 + np.exp(-(_X * w)))
        err = h.sum(axis=1) - _T
        w = w - 0.01 * (err[:, None] * h * (1.0 - h)).mean(axis=0)
    total += float(w.sum())
    for k in range(40):
        total += float(CubicSpline(_KNOTS, np.roll(_KNOT_VALUES, k), bc_type="natural")(_GRID)[-1])
    return total


def measure() -> float:
    """Median wall time of :data:`REPEATS` kernel passes, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
