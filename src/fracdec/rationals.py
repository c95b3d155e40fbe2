"""Exact rational coercion for download fractions and code rates."""

from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, or a string such as "3/4" or "0.75"; a string
    with a zero denominator such as "1/0" raises ValueError. Floats are
    rejected: binary rounding of values like 0.4 silently breaks the exact
    boundary comparisons the radius formulas rely on.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a rational number, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(
        f"expected Fraction, int, or str, got {type(value).__name__} "
        "(floats are rejected; pass '0.4' or Fraction(2, 5) instead)"
    )
