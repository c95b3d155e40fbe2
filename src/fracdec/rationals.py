"""Exact rational coercion for download fractions and code rates."""

import re
from fractions import Fraction

_MAX_EXPONENT = _MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?([0-9_]*)\s*\Z", re.IGNORECASE)
_SHORT = 10 ** 24  # integers below this are printed in full


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, or a string such as "3/4", "0.75" or "5e-3". A
    string with a zero denominator such as "1/0" raises ValueError, as does
    one of more than 4300 digits or with a decimal exponent of magnitude
    above 4300, CPython's default limit on the digits of an int read from
    a string, which Fraction would refuse in its own words or spend
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
        head = f"{value[:20]!r}... ({len(value)} characters)"
        if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"{head} has a decimal exponent of magnitude "
                             f"above {_MAX_EXPONENT}")
        if sum(map(str.isdigit, value)) > _MAX_DIGITS:
            raise ValueError(f"{head} has more than {_MAX_DIGITS} digits")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(
        f"expected Fraction, int, or str, got {type(value).__name__} "
        "(floats are rejected; pass '0.4' or Fraction(2, 5) instead)"
    )


def brief(value):
    """A rational as error-message text of at most about 40 characters: in
    full when it is short, else each long numerator or denominator as its
    digit count, found without str(), which raises past 4300 digits."""
    value = Fraction(value)
    parts = [str(x) if abs(x) < _SHORT else
             f"{'-' * (x < 0)}<{_digit_count(abs(x))} digits>"
             for x in (value.numerator, value.denominator)]
    return parts[0] if value.denominator == 1 else "/".join(parts)


def _digit_count(x):
    """The decimal digits of the integer x >= 1."""
    count = (x.bit_length() - 1) * 30102 // 100000 + 1
    while x >= 10 ** count:
        count += 1
    return count
