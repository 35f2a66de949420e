"""Exception types shared across the package.

The CLI maps these onto exit codes: argument and input-format problems
exit with 1, numerical failures with 2.
"""


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

