"""Exception hierarchy. Every error carries a category used for CLI exit codes:
USER (bad input), DATA (degenerate statistics), INTERNAL (solver failure).
"""

import operator


class DiffCorrError(Exception):
    """Base of every diffcorr error; uncategorised ones are INTERNAL."""

    category = "INTERNAL"


class ValidationError(DiffCorrError):
    """Malformed or out-of-contract input."""

    category = "USER"


class DataError(DiffCorrError):
    """Input is well formed but statistically degenerate."""

    category = "DATA"


class InsufficientSamplesError(ValidationError):
    """Fewer than two observations."""


class UnsupportedDimensionError(ValidationError):
    """Dimension outside the range an operation is defined for."""


class CsvFormatError(ValidationError):
    """CSV parse failure; carries 1-based row/column location."""

    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class DegenerateVariableError(DataError):
    """A variable is constant, or its sample variance is not finite."""

    def __init__(self, index, label=None):
        name = label if label is not None else f"index {index}"
        super().__init__(f"variable {name} has a sample variance that is not positive and finite")
        self.index = index
        self.label = label


class DegenerateVarianceError(DataError):
    """A test-statistic denominator is exactly zero."""


def check_index(value, name: str, least: int) -> int:
    """value as an integer (operator.index) of at least least, else a ValidationError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value
