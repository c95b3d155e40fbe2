"""Exact rational coercion for download fractions and code rates."""

import re
from fractions import Fraction

_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([0-9_]*)\s*\Z", re.IGNORECASE)


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, or a string such as "3/4", "0.75" or "5e-3". A
    string with a zero denominator such as "1/0" raises ValueError, as does
    a decimal exponent of magnitude above 4300, CPython's default limit on
    the digits of an int read from a string, which Fraction would spend
    seconds expanding. Floats are rejected: binary rounding of values like
    0.4 silently breaks the exact boundary comparisons the radius formulas
    rely on.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a rational number, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"{value!r} has a decimal exponent of magnitude "
                             f"above {_MAX_EXPONENT}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(
        f"expected Fraction, int, or str, got {type(value).__name__} "
        "(floats are rejected; pass '0.4' or Fraction(2, 5) instead)"
    )
