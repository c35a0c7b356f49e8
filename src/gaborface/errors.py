"""Exception types shared across the toolkit, and the number and key
checks of the document loaders and parameters.

Everything derives from ValidationError (bad inputs, exit code 1 in the
CLI) or RuntimeFailure (a computation that could not proceed, exit code 2).
"""

import numbers
import sys


class ValidationError(ValueError):
    """Invalid parameters or malformed input data."""


class FormatError(ValidationError):
    """A document or file does not match its expected schema."""


class ParameterError(ValidationError):
    """A numeric or structural parameter violates its preconditions."""


class OutOfBoundsError(ValidationError):
    """A coordinate falls outside the valid image region."""


class RuntimeFailure(RuntimeError):
    """A computation failed on otherwise well-formed inputs."""


class UndefinedCorrelationError(RuntimeFailure):
    """Rank correlation is undefined (a constant series)."""


class AlignmentError(ValidationError):
    """Two matrices or configurations cannot be paired item-by-item."""


class DegenerateConfigurationError(RuntimeFailure):
    """A configuration or distance set is degenerate (all zero)."""


def require_numbers(values, what):
    """Raise FormatError unless every item of the iterable `values` is a
    number.  A string or a boolean is not one, although float() and numpy
    would convert it."""
    for kind in set(map(type, values)):
        if kind is bool or not issubclass(kind, numbers.Real):
            raise FormatError(f"{what} must be numbers, got {kind.__name__}")


def require_integer(value, name, least):
    """`value` as an int; raise ParameterError unless it is an integer of at
    least `least`.  A boolean or a float is not one, though int() takes it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"need {name} >= {least}, got {value}")
    return int(value)


def require_real(value, name, least):
    """`value` as a float; raise ParameterError unless it is a finite real
    number of at least `least`: not a boolean, nor an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    if not (least <= value and abs(value) <= sys.float_info.max):
        raise ParameterError(f"need a finite {name} >= {least}, got {value!r}")
    return float(value)


def require_known_keys(doc, known, section):
    """Raise FormatError if the dict `doc` has a key outside `known`, so
    that a misspelled key is refused, not ignored for its default."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise FormatError(f"unknown {section} key {unknown[0]!r}")
