"""Exception hierarchy shared by the library and the CLI, and the value
checks that the readers of user input share.

Each error category carries the process exit code the CLI maps it to.
"""
import math
import numbers


class MptrajError(Exception):
    """Base class for all library errors."""

    exit_code = 1
    category = "error"


class ValidationError(MptrajError):
    """Invalid argument, configuration, or domain violation."""

    exit_code = 2
    category = "validation"


class IoError(MptrajError):
    """File missing, unreadable, or unwritable."""

    exit_code = 3
    category = "io"


class NumericalError(MptrajError):
    """Overflow, divergence, singular factorization, or failed self-check."""

    exit_code = 4
    category = "numerical"


class DimensionError(MptrajError):
    """Shape or dimension mismatch between inputs."""

    exit_code = 5
    category = "dimension"


def check_finite_nonneg(name: str, value: float) -> float:
    """value, if it is finite and >= 0; ValidationError otherwise."""
    # negated so that NaN fails the check
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def check_int(name: str, value) -> int:
    """value as an int, if it is an integer; a float, bool or string (as JSON
    may carry) is rejected instead of being truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)
