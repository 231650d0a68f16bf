"""Sample containers, validation helpers, and CSV input/output.

CSV data format: first row holds the variable labels, every following row is
one observation, comma separated, '.' decimal point. Files are UTF-8; a
leading byte order mark and trailing blank rows are ignored. Parse failures
report the 1-based row and column of the first offending cell.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvFormatError,
    InsufficientSamplesError,
    ValidationError,
)

SYMMETRY_RTOL = 1e-12


def check_finite(values: np.ndarray, what: str = "matrix") -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} contains non-finite entries")


def asymmetry(values: np.ndarray) -> tuple[float, float]:
    """max|m - m^T| (infinite for a non-square m) and the tolerance
    SYMMETRY_RTOL * max(1, max|m|) within which m counts as symmetric."""
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        return np.inf, 0.0
    scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
    return float(np.max(np.abs(values - values.T), initial=0.0)), SYMMETRY_RTOL * scale


def check_square_symmetric(values: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix; asymmetric inputs are rejected,
    never silently symmetrized."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {values.shape}")
    check_finite(values, what)
    asym, tol = asymmetry(values)
    if asym > tol:
        raise ValidationError(
            f"{what} is not symmetric (max asymmetry {asym:.3e}, tolerance {tol:.3e})"
        )
    return values


@dataclass(frozen=True)
class SampleMatrix:
    """n x p observation matrix (rows are observations) with variable labels."""

    data: np.ndarray
    names: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        # always copy: the array is frozen and must not alias caller state
        data = np.array(self.data, dtype=float, order="C")
        if data.ndim != 2:
            raise ValidationError(f"sample matrix must be 2-D, got ndim {data.ndim}")
        n, p = data.shape
        if p < 1:
            raise ValidationError("sample matrix needs at least one variable")
        if n < 2:
            raise InsufficientSamplesError(
                f"need at least 2 observations, got {n}"
            )
        check_finite(data, "sample matrix")
        names = self.names if self.names is not None else [f"v{i + 1}" for i in range(p)]
        names = tuple(str(x) for x in names)
        if len(names) != p:
            raise ValidationError(
                f"got {len(names)} variable labels for {p} variables"
            )
        if len(set(names)) != p:
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise ValidationError(f"duplicate variable labels: {dupes}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class TwoGroupDataset:
    """A pair of samples over the same variables, in the same order."""

    group1: SampleMatrix
    group2: SampleMatrix

    def __post_init__(self):
        if self.group1.p != self.group2.p:
            raise ValidationError(
                f"groups have different dimensions: {self.group1.p} vs {self.group2.p}"
            )
        if self.group1.names != self.group2.names:
            for a, b in zip(self.group1.names, self.group2.names):
                if a != b:
                    raise ValidationError(
                        f"variable labels differ between groups: {a!r} vs {b!r}"
                    )

    @property
    def p(self) -> int:
        return self.group1.p

    @property
    def names(self) -> tuple[str, ...]:
        return self.group1.names


def _read_rows(path) -> list[list[str]]:
    """The rows of a CSV file, read as UTF-8 with any byte order mark
    dropped and trailing blank rows removed. The header row must not be
    blank, and every row must have as many cells as the header."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    while rows and not any(cell.strip() for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise CsvFormatError(f"{path}: file is empty", row=1)
    if not any(cell.strip() for cell in rows[0]):
        raise CsvFormatError(f"{path}: empty header row", row=1)
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise CsvFormatError(f"{path}: expected {width} cells, got {len(row)}", row=i)
    return rows


def _parse_cell(cell, path, row_no, col_no):
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            f"{path}: cell {cell!r} is not numeric", row=row_no, column=col_no
        ) from None
    if not np.isfinite(value):
        raise CsvFormatError(
            f"{path}: cell {cell!r} is not finite", row=row_no, column=col_no
        )
    return value


def _parse_block(path, body, columns) -> np.ndarray:
    """The cells of body (file rows 2, 3, ...; 1-based file columns given by
    columns) as a float array. Parsed one by one only if the single numpy
    conversion fails or leaves a non-finite value, to name the first bad cell."""
    with contextlib.suppress(ValueError):
        data = np.array(body, dtype=float).reshape(len(body), len(columns))
        if np.isfinite(data).all():
            return data
    return np.array(
        [
            [_parse_cell(cell, path, i, j) for j, cell in zip(columns, row)]
            for i, row in enumerate(body, start=2)
        ]
    ).reshape(len(body), len(columns))


def read_sample_csv(path) -> SampleMatrix:
    """Read an observations CSV (header row of labels, then data rows)."""
    rows = _read_rows(path)
    names = tuple(cell.strip() for cell in rows[0])
    return SampleMatrix(_parse_block(path, rows[1:], range(1, len(names) + 1)), names)


def parse_group_spec(spec: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Parse a --groups mapping like "A+B:C" into (group1 labels, group2 labels)."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValidationError(
            f"group spec {spec!r} must have the form LABELS:LABELS"
        )
    sides = []
    for part in parts:
        labels = tuple(x.strip() for x in part.split("+") if x.strip())
        if not labels:
            raise ValidationError(f"group spec {spec!r} has an empty side")
        sides.append(labels)
    return sides[0], sides[1]


def read_labeled_csv(path, label_column: str, groups: str | None = None) -> TwoGroupDataset:
    """Read a single labeled CSV and split rows into two groups.

    Without a group spec the label column must contain exactly two distinct
    labels; group1 is the label seen first. With a spec like "A+B:C" the left
    side is pooled into group1 and the right into group2; rows with other
    labels are dropped.
    """
    rows = _read_rows(path)
    header = [cell.strip() for cell in rows[0]]
    if label_column not in header:
        raise ValidationError(
            f"{path}: label column {label_column!r} not found in header {header}"
        )
    label_idx = header.index(label_column)
    names = tuple(x for i, x in enumerate(header) if i != label_idx)
    if not names:
        raise ValidationError(f"{path}: no variable columns besides the label column")

    keep = [j for j in range(len(header)) if j != label_idx]
    labels = [row[label_idx].strip() for row in rows[1:]]
    values = _parse_block(
        path, [[row[j] for j in keep] for row in rows[1:]], [j + 1 for j in keep]
    )

    if groups is None:
        distinct = list(dict.fromkeys(labels))
        if len(distinct) != 2:
            raise ValidationError(
                f"{path}: expected exactly 2 distinct group labels, got "
                f"{distinct}; use --groups to pool or select labels"
            )
        side1, side2 = (distinct[0],), (distinct[1],)
    else:
        side1, side2 = parse_group_spec(groups)
        present = set(labels)
        missing = [x for x in side1 + side2 if x not in present]
        if missing:
            raise ValidationError(
                f"{path}: group labels {missing} do not occur in column "
                f"{label_column!r}"
            )
        overlap = set(side1) & set(side2)
        if overlap:
            raise ValidationError(f"group labels {sorted(overlap)} appear on both sides")

    rows1 = values[[lab in side1 for lab in labels]]
    rows2 = values[[lab in side2 for lab in labels]]
    for side, got in ((side1, rows1), (side2, rows2)):
        if len(got) < 2:
            raise InsufficientSamplesError(
                f"{path}: group {'+'.join(side)} has {len(got)} rows, need at least 2"
            )
    return TwoGroupDataset(SampleMatrix(rows1, names), SampleMatrix(rows2, names))


def write_matrix_csv(fh, values: np.ndarray, row_labels, col_labels) -> None:
    """Write a labeled matrix CSV with 17 significant digits (exact round trip)
    to a text file opened with newline="" and encoding="utf-8"."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(row_labels), len(col_labels)):
        raise ValidationError(
            f"matrix shape {values.shape} does not match labels "
            f"({len(row_labels)}, {len(col_labels)})"
        )
    writer = csv.writer(fh)
    writer.writerow([""] + list(col_labels))
    for label, row in zip(row_labels, values):
        writer.writerow([label] + [format(x, ".17g") for x in row.tolist()])


def read_matrix_csv(path) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """Read a labeled matrix CSV as written by write_matrix_csv."""
    rows = _read_rows(path)
    col_labels = tuple(x.strip() for x in rows[0][1:])
    row_labels = tuple(row[0].strip() for row in rows[1:])
    body = [row[1:] for row in rows[1:]]
    return _parse_block(path, body, range(2, len(col_labels) + 2)), row_labels, col_labels
