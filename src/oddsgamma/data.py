"""Datasets: the embedded Wheaton River exceedances and CSV ingestion."""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "Summary", "load_csv", "summary", "wheaton", "write_csv"]

# Flood exceedances of the Wheaton River near Carcross (m^3/s),
# 72 values, row-major as tabulated.
_WHEATON = (
    1.7, 2.2, 14.4, 1.1, 0.4, 20.6, 5.3, 0.7, 1.9, 13.0, 12.0, 9.3,
    1.4, 18.7, 8.5, 25.5, 11.6, 14.1, 22.1, 1.1, 2.5, 14.4, 1.7, 37.6,
    0.6, 2.2, 39.0, 0.3, 15.0, 11.0, 7.3, 22.9, 1.7, 0.1, 1.1, 0.6,
    9.0, 1.7, 7.0, 20.1, 0.4, 2.8, 14.1, 9.9, 10.4, 10.7, 30.0, 3.6,
    5.6, 30.8, 13.3, 4.2, 25.5, 3.4, 11.9, 21.5, 27.6, 36.4, 2.7, 64.0,
    1.5, 2.5, 27.4, 1.0, 27.1, 20.2, 16.8, 5.3, 9.7, 27.5, 2.5, 27.0,
)


@dataclass(frozen=True)
class Dataset:
    """An immutable named sequence of real observations."""

    name: str
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise DataError("a Dataset requires at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise DataError("Dataset values must all be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)


def _positive_observations(data, entry):
    """The one observation rule: data as a non-empty 1-D float array of
    finite values > 0 (a scalar is one observation). entry names the
    caller in the shape and empty-data messages.

    The public fit, likelihood, standard-error, GoF and score entry
    points call this once; everything they pass observations on to
    takes them as given.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim > 1:
        raise DataError(f"{entry} takes a 1-D sequence of observations, got shape {x.shape}")
    x = x.ravel()
    if x.size == 0:
        raise DataError(f"{entry} requires at least one observation")
    if not np.isfinite(x).all() or (x <= 0.0).any():
        raise DataError("observations must be finite and strictly positive")
    return x


def wheaton():
    """The 72 embedded flood exceedances, in table order."""
    return Dataset(name="wheaton", values=_WHEATON)


def _parse_cell(cell, row_no, col_label):
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"cell {cell!r} at row {row_no} (column {col_label}) does not parse as a number"
        ) from None


def load_csv(path, column=None):
    """Read one numeric column from a CSV or plain list file.

    Values are comma- or newline-separated; blank lines are skipped.
    A header row is assumed when the first non-blank row fails numeric
    parsing, and ``column`` then selects a field by name. Errors name
    the offending row and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            continue
        rows.append((lineno, [c.strip() for c in line.split(",")]))
    if not rows:
        raise DataError(f"{path} contains no data rows")

    header = None
    first_cells = rows[0][1]
    try:
        [float(c) for c in first_cells]
    except ValueError:
        header = first_cells
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path} contains a header but no data rows")

    if column is not None:
        if header is None:
            raise DataError(
                f"column {column!r} requested but {path} has no header row"
            )
        if column not in header:
            raise DataError(
                f"column {column!r} not found in {path}; header has {header}"
            )
        idx = header.index(column)
        label = column
    else:
        width = max(len(cells) for _, cells in rows)
        if width > 1 and header is not None:
            raise DataError(
                f"{path} has {width} columns; pass column= to pick one of {header}"
            )
        # headerless comma-separated reals flatten in row order
        idx = None
        label = header[0] if header else "1"

    values = []
    for lineno, cells in rows:
        if idx is None:
            for c in cells:
                values.append(_parse_cell(c, lineno, label))
        else:
            if idx >= len(cells):
                raise DataError(f"row {lineno} has no column {label!r}")
            values.append(_parse_cell(cells[idx], lineno, label))
    if not values:
        raise DataError(f"{path} contains no values")
    import os

    return Dataset(name=os.path.basename(str(path)), values=tuple(values))


def write_csv(dataset, path, column_name="value"):
    """Write one value per line under a single header column."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(column_name + "\n")
        for v in dataset.values:
            fh.write(repr(float(v)) + "\n")


class Summary(NamedTuple):
    n: int
    min: float
    max: float
    mean: float
    variance: Optional[float]  # None when undefined (n = 1)
    median: float


def summary(dataset):
    """(n, min, max, mean, variance, median); unbiased variance, None at n=1."""
    vals = sorted(dataset.values)
    n = len(vals)
    mean = math.fsum(vals) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    else:
        variance = None
    mid = n // 2
    median = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return Summary(n, vals[0], vals[-1], mean, variance, median)
