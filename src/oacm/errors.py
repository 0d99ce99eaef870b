"""Exception types shared across the package."""


class OacmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(OacmError, ValueError):
    """A parameter or input value is outside its legal domain."""


class PeriodSearchError(OacmError, RuntimeError):
    """A**M is not the identity for the multiple M of the period.

    matrix_period starts from M = lcm over p**e || n of p**e * (p*p - 1),
    a proven multiple of the order of every determinant-1 matrix mod n, so
    this signals a broken implementation rather than a bad input.
    """


class ImageFormatError(OacmError, ValueError):
    """An image file is malformed, truncated, or a netpbm variant this
    package does not read; the message names which."""
