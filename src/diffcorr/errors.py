"""Exception hierarchy. Every error carries a category used for CLI exit codes:
USER (bad input), DATA (degenerate statistics), INTERNAL (solver failure).
"""


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

