"""Exception types shared across the toolkit.

Everything derives from ValidationError (bad inputs, exit code 1 in the
CLI) or RuntimeFailure (a computation that could not proceed, exit code 2).
"""


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


class DegenerateJetError(RuntimeFailure):
    """A jet is all-zero, so its normalized dot product is undefined."""


class DimensionError(ValidationError):
    """Vector or matrix dimensions do not agree."""


class UndefinedCorrelationError(RuntimeFailure):
    """Rank correlation is undefined (a constant series)."""


class AlignmentError(ValidationError):
    """Two matrices or configurations cannot be paired item-by-item."""


class DegenerateConfigurationError(RuntimeFailure):
    """A configuration or distance set is degenerate (all zero)."""
