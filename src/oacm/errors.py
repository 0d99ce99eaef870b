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
    """Base class for image decoding failures."""


class MalformedHeaderError(ImageFormatError):
    """The netpbm header could not be parsed."""


class UnsupportedFormatError(ImageFormatError):
    """The file is a recognizable image but not a supported variant."""


class TruncatedDataError(ImageFormatError):
    """The pixel payload is shorter than the header promises."""


class SampleRangeError(ImageFormatError):
    """A sample exceeds the maxval the header declares."""
