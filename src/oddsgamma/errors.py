"""Exception types shared across the package."""


class DataError(ValueError):
    """Observations violate the support or a file could not be parsed."""


class NumericalError(RuntimeError):
    """A numerical routine could not deliver its advertised accuracy."""


class DivergenceError(NumericalError):
    """An integral or series was detected to be non-convergent."""


class FitError(NumericalError):
    """A fit produced no usable maximum."""
