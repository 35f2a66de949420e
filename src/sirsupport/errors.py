"""Exception types shared across the package, the scalar gates, and the
message that cites a byte that is not UTF-8.

The CLI maps these onto exit codes: argument and input-format problems
exit with 1, numerical failures with 2.

Every scalar argument passes ``_check_int`` or ``_check_real``, as every
matrix passes ``sir.as_matrix``; a bool passes neither.  They test with
``numbers``, not numpy, so the console front end loads no numpy.
"""

import math
import numbers


class SirSupportError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(SirSupportError, ValueError):
    """An argument violates a documented precondition."""


class IngestError(SirSupportError, ValueError):
    """A data file could not be ingested (missing column, bad cell, too few rows)."""


class NumericalError(SirSupportError, ArithmeticError):
    """A numerical routine failed (eigensolver breakdown, infeasible state)."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite has an eigenvalue below the floor."""

    def __init__(self, eigenvalue: float, floor: float):
        self.eigenvalue = float(eigenvalue)
        self.floor = float(floor)
        super().__init__(
            f"matrix is not positive definite: eigenvalue {self.eigenvalue:.6e} "
            f"is below the floor {self.floor:.6e}"
        )


class RankDeficientError(NumericalError):
    """The sample covariance cannot be inverted (typically n <= p)."""


def _check_int(value, name: str, lo: int) -> int:
    """``value`` as an int; ``InvalidArgumentError`` unless it is an integer >= ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise InvalidArgumentError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _check_real(value, name: str) -> float:
    """``value`` as a float; ``InvalidArgumentError`` unless it is a finite real >= 0."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = real and value >= 0 and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        ok = False
    if not ok:
        raise InvalidArgumentError(f"{name} must be finite and nonnegative, got {value!r}")
    return float(value)


def _first_non_utf8(path) -> str:
    """The message naming the first byte of ``path`` that is not UTF-8, and its row.

    Rows count from 1 (a CSV header is row 1).  Lines are split as the
    text reader splits them; a UTF-8 sequence never holds a line-break
    byte, so the first line that fails to decode alone holds the byte the
    reader stopped at.
    """
    with open(path, newline="", encoding="latin-1") as fh:
        for row, line in enumerate(fh, start=1):
            raw = line.encode("latin-1")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{path}: byte 0x{raw[exc.start]:02x} at row {row} is not UTF-8 text"
    raise AssertionError(f"{path} decodes as UTF-8 line by line")  # pragma: no cover
