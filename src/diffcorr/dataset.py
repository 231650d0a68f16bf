"""Sample containers, validation helpers, and CSV input/output.

CSV data format: first row holds the variable labels, every following row is
one observation, comma separated, '.' decimal point. Files are UTF-8; a
leading byte order mark and trailing blank rows are ignored. Parse failures
report the 1-based row and column of the first offending cell. Ingest is one
C-level parse of the values (np.loadtxt); only quoted or malformed input is
walked cell by cell, by the csv module and float(), and both give the same
values and errors.
"""

from __future__ import annotations

import contextlib
import csv
import io
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


# Characters on which np.loadtxt and float() disagree, so text holding one is
# read by the csv module: the quote, which loadtxt does not parse, and the
# ASCII separators 0x1c-0x1f, which loadtxt strips from a cell and float() rejects.
_WALK_ONLY = '"\x1c\x1d\x1e\x1f'


def _read_table(path, label=None) -> tuple[tuple[str, ...], list[str], np.ndarray]:
    """The stripped header cells of the value columns, the stripped cells of
    the label column (none when label is None) and the value cells as floats,
    of a CSV file read as UTF-8 with any byte order mark dropped and trailing
    blank rows removed. label names the label column by 0-based index or by
    header cell. The header row must not be blank, every row must have as
    many cells as the header and every value must be finite.

    One np.loadtxt call parses the values. When the text holds a character of
    _WALK_ONLY, or loadtxt fails, skips a blank row or reads a non-finite
    value, the csv module reads the rows and float() parses each cell in
    turn, so the first bad cell is named by its row and column."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    # without a quote a row is a line, ended by \r\n, \r or \n as the csv
    # module ends it, and its cells lie between commas
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and not lines[-1].replace(",", "").strip():
        lines.pop()
    fast = (
        len(lines) > 1
        and bool(lines[0].replace(",", "").strip())
        and not any(c in text for c in _WALK_ONLY)
    )
    rows = None if fast else _csv_rows(path, text)
    header = [cell.strip() for cell in (lines[0].split(",") if fast else rows[0])]
    if isinstance(label, str):
        if label not in header:
            _csv_rows(path, text)  # a row of another width is reported first
            raise ValidationError(f"{path}: label column {label!r} not found in header {header}")
        label = header.index(label)
    keep = [j for j in range(len(header)) if j != label]
    names = tuple(header[j] for j in keep)
    body = lines[1:]
    # given usecols, loadtxt skips the cells past them instead of rejecting a
    # longer row, so with a label column the commas are counted
    usecols = None if label is None else keep
    if fast and keep and (usecols is None or all(x.count(",") == len(keep) for x in body)):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, usecols=usecols)
            if values.shape == (len(body), len(keep)) and np.isfinite(values).all():
                labels = [] if label is None else [x.split(",", label + 1)[label] for x in body]
                return names, [x.strip() for x in labels], values
    rows = rows or _csv_rows(path, text)
    labels = [] if label is None else [row[label].strip() for row in rows[1:]]
    values = np.array(
        [[_parse_cell(row[j], path, i, j + 1) for j in keep] for i, row in enumerate(rows[1:], 2)]
    ).reshape(len(rows) - 1, len(keep))
    return names, labels, values


def _csv_rows(path, text) -> list[list[str]]:
    """The rows of the csv module's reading of text, trailing blank rows
    removed, checked for a blank header and for rows of another width."""
    rows = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            rows.append(row)
    except csv.Error as exc:  # a cell longer than the csv module's field limit
        raise CsvFormatError(f"{path}: {exc}", row=len(rows) + 1) from None
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


def read_sample_csv(path) -> SampleMatrix:
    """Read an observations CSV (header row of labels, then data rows)."""
    names, _, values = _read_table(path)
    return SampleMatrix(values, names)


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
    names, labels, values = _read_table(path, label_column)
    if not names:
        raise ValidationError(f"{path}: no variable columns besides the label column")

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
    # a thresholded estimate is mostly zeros: only its nonzero cells are formatted
    for label, row in zip(row_labels, values):
        cells, floats = np.where(np.signbit(row), "-0", "0").tolist(), row.tolist()
        for j in np.flatnonzero(row).tolist():
            cells[j] = format(floats[j], ".17g")
        writer.writerow([label] + cells)


def read_matrix_csv(path) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """Read a labeled matrix CSV as written by write_matrix_csv."""
    col_labels, row_labels, values = _read_table(path, 0)
    return values, tuple(row_labels), col_labels
