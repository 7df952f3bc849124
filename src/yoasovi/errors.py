"""Exception types shared across the package, and the type check that
numeric config fields go through."""

import numbers


class NumericError(RuntimeError):
    """A non-finite quantity appeared where a finite one is required."""


class DegenerateReferenceError(ValueError):
    """The acceptance rule was given a reference ELBO of exactly zero."""


class ParseError(ValueError):
    """A data or config file could not be parsed; message carries the location."""


def require_number(name: str, value, integral: bool = False) -> None:
    """TypeError naming the field and its value unless value is a real
    number (an integer if integral).  YAML 1.1 reads 1.0e6 as the string
    '1.0e6', and bool counts as neither."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {'an integer' if integral else 'a number'}, "
                        f"got {value!r}")
