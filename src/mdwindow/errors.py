"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter or configuration value violates its domain constraints."""


class PrecisionError(ArithmeticError):
    """The requested tolerance cannot be certified with the available
    truncation budget (the result would be smaller than the best rigorous
    remainder bound)."""


class BracketEmptyError(ValueError):
    """A certificate does not exist at the queried horizon; carries the
    smallest usable horizon, or None when none up to 2^40 works."""

    def __init__(self, message: str, min_n: int | None):
        super().__init__(message)
        self.min_n = min_n
