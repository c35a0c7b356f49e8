"""Exception types shared across the toolkit, and the number and key
checks of the document loaders and parameters.

ValidationError is bad input (exit code 1 in the CLI), and so are its two
kinds: FormatError, a document of the wrong shape, and ParameterError, a
value or a pairing of items, dimensions or points that breaks its rule.
RuntimeFailure is a computation that cannot proceed (exit code 2).

malformed is the one document-walk rule: each reader of a JSON document
that the pipeline writes and reads back walks it inside one malformed
block, so a missing key, a value of the wrong type, a failed check or an
integer too large for a float is a FormatError that names the kind.
"""

import contextlib
import numbers
import sys


class ValidationError(ValueError):
    """Invalid parameters or malformed input data."""


class FormatError(ValidationError):
    """A document or file does not match its expected schema."""


class ParameterError(ValidationError):
    """A numeric or structural parameter violates its preconditions."""


class RuntimeFailure(RuntimeError):
    """A computation failed on otherwise well-formed inputs."""


@contextlib.contextmanager
def malformed(what):
    """In this block, a KeyError becomes FormatError "malformed <what>:
    missing <key>"; a TypeError, ValueError (a ValidationError is one) or
    OverflowError (an integer too large for a float) "malformed <what>: <error>"."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"malformed {what}: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {what}: {exc}") from exc


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
