"""Exception types shared across the package."""


class OacmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(OacmError, ValueError):
    """A parameter or input value is outside its legal domain."""


class PeriodSearchError(OacmError, RuntimeError):
    """No matrix period found within the 3N safety bound.

    The bound is a proven property of the map family, so hitting it
    signals a broken implementation rather than a bad input.
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
