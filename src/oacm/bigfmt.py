"""Scientific notation for arbitrary-precision positive integers.

float() overflows around 1e308 while image periods run past 1e489, so the
mantissa is rounded with integer arithmetic.
"""

from __future__ import annotations

from .errors import ParameterError


def scientific(value: int) -> str:
    """Format like 4.3e+826.

    The mantissa is rounded half-up to two significant figures, so 1349
    reads 1.3e+3 and 9.97e5 reads 1.0e+6.
    """
    if value < 1:
        raise ParameterError(f"value must be a positive integer, got {value}")
    exponent = len(str(value)) - 1
    unit = 10**exponent
    tenths, rem = divmod(10 * value, unit)
    tenths += 2 * rem >= unit
    if tenths == 100:
        tenths, exponent = 10, exponent + 1
    return f"{tenths // 10}.{tenths % 10}e+{exponent}"
