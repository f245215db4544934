"""Core series/decomposition types, CSV ingestion, scaling and seed plumbing.

Every type here is immutable after construction. Indexing follows the
1-based convention used throughout the rest of the package (window offsets,
warping paths, CSV columns).
"""

from __future__ import annotations

import csv
import math
import numbers
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np


class DataError(ValueError):
    """Raised when an input file or series violates ingestion contracts."""


def check_integers(minimum: int, **values) -> None:
    """Raise a ValueError naming the first of ``values`` that is not an
    integer of at least ``minimum``. numpy integer types are integers; a
    bool is not, as in the CLI's JSON types."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not one, as in the CLI's JSON types."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def check_positive(**values) -> None:
    """Raise a ValueError naming the first of ``values`` that is not a real
    number in (0, largest float]; a bool is not one (:func:`_is_real`)."""
    for name, value in values.items():
        if not _is_real(value) or not 0 < value <= sys.float_info.max:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def frozen_copy(values, dtype=np.float64) -> np.ndarray:
    """A read-only C-contiguous ``dtype`` copy of ``values``: how every value
    type of the package keeps an array, so the caller's array stays theirs."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Seed plumbing
# ---------------------------------------------------------------------------

RngSeed = int  # 64-bit unsigned seed; identical seeds give bit-identical streams


def derive_seed(seed: RngSeed, *key: int) -> int:
    """Derive a child seed as a pure function of (seed, key).

    Children with distinct keys are statistically independent, so work can be
    farmed out per (component, trial, step, ...) and executed in any order
    without changing results.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def spawn_rng(seed: RngSeed, *key: int) -> np.random.Generator:
    """Build an independent Generator from a root seed and stream key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued sequence with optional per-point labels.

    Parameters
    ----------
    values : array_like
        Finite real samples, in time order.
    labels : sequence of str, optional
        Per-point identifiers (e.g. years, timestamps). Must match length.
    """

    values: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        arr = frozen_copy(self.values)
        if arr.ndim != 1 or arr.size < 1:
            raise DataError("series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise DataError("series contains NaN or infinite values")
        object.__setattr__(self, "values", arr)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != arr.size:
                raise DataError(
                    f"labels length {len(labels)} != series length {arr.size}"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.values.size)

    def replace_values(self, values) -> "TimeSeries":
        """New series with the same labels and different values."""
        return TimeSeries(values, self.labels)


@dataclass(frozen=True)
class Decomposition:
    """Ordered intrinsic mode functions plus residual trend.

    IMFs are ordered fastest-fluctuating first; the residual is the monotone
    remainder and may be treated as the last (slowest) component.
    ``sift_stats`` holds one sift record per IMF where the decomposition kept
    them (:func:`~modecast.decomposition.emd` does), else None.
    """

    imfs: tuple
    residual: TimeSeries
    sift_stats: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "imfs", tuple(self.imfs))
        if not all(isinstance(part, TimeSeries) for part in (self.residual, *self.imfs)):
            raise ValueError("imfs and residual must be TimeSeries")
        for i, imf in enumerate(self.imfs):
            if len(imf) != self.source_length:
                raise ValueError(
                    f"imf {i + 1} length {len(imf)} != source length {self.source_length}"
                )
        if self.sift_stats is not None and len(self.sift_stats) != self.n_imfs:
            raise ValueError(f"{len(self.sift_stats)} sift_stats for {self.n_imfs} imfs")

    @property
    def source_length(self) -> int:
        """The length of the decomposed series: the residual's, and every IMF's."""
        return len(self.residual)

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def components(self) -> list:
        """IMFs in order, residual appended last."""
        return list(self.imfs) + [self.residual]

    def names(self) -> list:
        """Component names in the order of :meth:`components`."""
        return [f"imf_{i + 1}" for i in range(self.n_imfs)] + ["residual"]

    def reconstruct(self) -> np.ndarray:
        """Pointwise sum of all IMFs and the residual."""
        total = self.residual.values.copy()
        for imf in self.imfs:
            total += imf.values
        return total


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------

def pow2_exponent(values: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Exponent e such that the squares of ``np.ldexp(values, -e)`` neither
    overflow nor underflow: 0 while max|values| (over ``axis``, kept as a
    length-1 axis) lies within 2**+-500, else the binary exponent of
    max|values|, which maps the values into (-1, 1). Scaling by a power of
    two is exact wherever it neither overflows nor underflows, so ratios of
    sums of squares, standard deviations and z-scores keep their bits."""
    e = np.frexp(np.max(np.abs(values), axis=axis, keepdims=axis is not None))[1]
    return e * (abs(e) > 500)


@dataclass(frozen=True)
class MinMaxScale:
    """Affine map onto [0, 1] with exact inverse.

    Degenerate (constant) inputs map to 0.5 everywhere; the inverse then
    returns the stored constant regardless of input.
    """

    lo: float
    hi: float

    @property
    def degenerate(self) -> bool:
        """Whether the range is empty (``hi == lo``)."""
        return self.hi == self.lo

    def transform(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.degenerate:
            return np.full_like(x, 0.5)
        return (x - self.lo) / (self.hi - self.lo)

    def inverse(self, y):
        """``lo + y * (hi - lo)``; a result that is not finite (a value
        mapped beyond the float range) is a DataError, not a warning."""
        y = np.asarray(y, dtype=np.float64)
        if self.degenerate:
            return np.full_like(y, self.lo)
        with np.errstate(over="ignore"):
            x = self.lo + y * (self.hi - self.lo)
        if not np.isfinite(x).all():
            raise DataError("denormalized value beyond the float range")
        return x


def minmax_normalize(series: TimeSeries) -> tuple:
    """Scale a series onto [0, 1] and return the invertible scale parameters.

    Parameters
    ----------
    series : TimeSeries
        Input of length >= 2.

    Returns
    -------
    scaled : TimeSeries
        Values in [0, 1]; all 0.5 for a constant input.
    scale : MinMaxScale
        Stores (min, max).
    """
    if len(series) < 2:
        raise ValueError("normalization needs at least 2 points")
    lo = float(series.values.min())
    hi = float(series.values.max())
    if not math.isfinite(hi - lo):
        raise DataError(f"series range {lo!r}..{hi!r} exceeds the float range")
    scale = MinMaxScale(lo=lo, hi=hi)
    return series.replace_values(scale.transform(series.values)), scale


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

# plain ASCII decimal text, with an optional sign and exponent; float()
# alone would also take "1_0", non-ASCII digits, "nan" and "inf"
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_cell(cell: str, row: int, column: str) -> float:
    if not _DECIMAL.fullmatch(cell):
        raise DataError(f"row {row}, column {column}: cannot parse {cell!r} as a number")
    value = float(cell)
    if not np.isfinite(value):
        raise DataError(f"row {row}, column {column}: non-finite value {cell!r}")
    return value


def load_csv(
    path: Union[str, Path],
    column: Union[str, int] = 1,
    has_header: bool = False,
) -> TimeSeries:
    """Load one numeric column of a CSV file as a TimeSeries.

    Parameters
    ----------
    path : str or Path
        CSV file, UTF-8 (with or without a byte-order mark), comma-separated, '.' decimal separator.
    column : str or int
        Header name (requires ``has_header``) or 1-based column number.
    has_header : bool
        Whether the first non-blank row is a header.

    Returns
    -------
    TimeSeries
        Values in file row order; blank rows are skipped. When the selected
        column is not the first, the first column supplies per-point labels.

    Raises
    ------
    DataError
        Missing or unreadable file (not UTF-8, or a field over the csv
        module's size limit), unknown column, unparseable cell (reported with its line in the file and
        its column), or empty series.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)  # rows keep their line numbers; blank ones go
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path} as UTF-8 CSV: {exc}") from None
    if not rows:
        raise DataError(f"empty file: {path}")

    header = None
    if has_header:
        header = rows[0][1]
        rows = rows[1:]
    if not rows:
        raise DataError(f"no data rows in {path}")

    if isinstance(column, str):
        if header is None:
            raise DataError(f"column name {column!r} given but file has no header")
        try:
            col_idx = header.index(column)
        except ValueError:
            raise DataError(f"column {column!r} not found in header {header}") from None
        col_name = column
    else:
        col_idx = int(column) - 1  # columns are numbered from 1
        if col_idx < 0:
            raise DataError(f"column number must be >= 1, got {column}")
        col_name = str(column)

    values = []
    labels = []
    for line, row in rows:
        if col_idx >= len(row):
            raise DataError(f"row {line}, column {col_name}: missing cell")
        values.append(_parse_cell(row[col_idx].strip(" \t"), line, col_name))
        if col_idx != 0:
            labels.append(row[0])
    return TimeSeries(values, labels if labels else None)


def format_number(x: float) -> str:
    """Round-trip-safe decimal rendering (shortest repr)."""
    return repr(float(x))
