"""Exception types shared across the package, and the checks that
numeric config fields go through."""

import math
import numbers


class NumericError(RuntimeError):
    """A non-finite quantity appeared where a finite one is required."""


class ParseError(ValueError):
    """A data or config file could not be parsed; message carries the location."""


def require_number(name: str, value, integral: bool = False, minimum=None) -> None:
    """TypeError naming the field and its value unless value is a real
    number (an integer if integral), then ValueError unless it is at least
    minimum, when one is given.  YAML 1.1 reads 1.0e6 as the string
    '1.0e6', and bool counts as neither."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {'an integer' if integral else 'a number'}, "
                        f"got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def require_positive(name: str, value) -> None:
    """require_number, then ValueError naming the field unless value is
    positive and finite (nan is neither)."""
    require_number(name, value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
