"""Exception hierarchy shared by the library and the CLI, the checks that
every reader of user input shares, so that a malformed value fails the same
way everywhere (a ValidationError naming the field), and the one intake of
arrays: take_floats, and take_array and take_value for record fields.

Each error category carries the process exit code the CLI maps it to.
"""
import contextlib
import math
import numbers

import numpy as np


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


def _is_real(value) -> bool:
    """Whether value is one real number that is not a bool: a numbers.Real
    (numpy's integer and float scalars among them) or a 0-d integer or
    float array."""
    if isinstance(value, np.ndarray):
        return value.ndim == 0 and value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """value as a rejection message shows it: a real number as it prints, and
    anything else as its repr, so that the string '0.1' does not read as 0.1."""
    return f"{value}" if _is_real(value) else f"{value!r}"


def check_finite_nonneg(name: str, value: float) -> float:
    """value, if it is a real number, finite and >= 0, and not a bool;
    ValidationError otherwise."""
    # negated so that NaN fails the check
    if not _is_real(value) or not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {_shown(value)}")
    return value


def check_finite_positive(name: str, value: float) -> float:
    """value, if it is a real number, finite and > 0, and not a bool;
    ValidationError otherwise."""
    # negated so that NaN fails the check
    if not _is_real(value) or not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {_shown(value)}")
    return value


def check_int(name: str, value) -> int:
    """value as an int, if it is an integer; a float, bool or string (as JSON
    may carry) is rejected instead of being truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r:.40}")
    return int(value)


def check_count(name: str, value) -> int:
    """value as an int, if it is an integer as check_int takes it and >= 1."""
    count = check_int(name, value)
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    return count


def check_seed(value):
    """value, if it is a seed the package takes: None, a numpy Generator, or
    an integer >= 0 that is not a bool.  numpy would raise its own ValueError
    or TypeError for a negative or a fractional one."""
    if value is None or isinstance(value, np.random.Generator):
        return value
    seed = check_int("seed", value)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


# JSON's names for the types json.loads returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def check_type(name: str, value, kind: type):
    """value, if it is a kind: dict, list or str for a JSON object, array or string."""
    if not isinstance(value, kind):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValidationError(f"{name} must be a JSON {_JSON_TYPES[kind]}, got {found}")
    return value


def check_record(data, what: str, required, optional=()) -> dict:
    """data, if it is a JSON object with every required key and no key
    outside required and optional."""
    check_type(what, data, dict)
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValidationError(f"missing {what} keys: {', '.join(missing)}")
    return data


def check_number(name: str, value) -> float:
    """value as a float, if it is one number as check_numbers takes it."""
    arr = check_numbers(name, value)
    if arr.ndim:
        raise ValidationError(f"{name} must be a JSON number, got an array")
    return float(arr)


def check_numbers(name: str, value) -> np.ndarray:
    """value as a float array, if it is a number or a rectangular nest of lists
    of numbers; a bool, string, null or integer too large for a float is not."""
    arr = np.array(value, dtype=object)
    # a ragged nest leaves lists among the elements
    if not all(issubclass(kind, numbers.Real) and kind is not bool
               for kind in set(map(type, arr.reshape(-1)))):
        raise ValidationError(f"{name} must be a JSON number or a rectangular array "
                              f"of numbers, got {value!r:.40}")
    try:
        return arr.astype(float)
    except OverflowError as exc:
        raise ValidationError(f"{name} holds an integer too large for a float") from exc


@contextlib.contextmanager
def numerical_errors(what: str):
    """An overflow, invalid operation or division by zero in the block ends in
    one NumericalError, "floating-point <numpy's message> (<what>)", where it
    happens: no inf or NaN is returned, and no pass over the output checks."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point {exc} ({what})") from exc


def freeze(record, **arrays) -> None:
    """Set each array read-only and store it on the frozen dataclass record
    under its keyword's name."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(record, name, arr)


def take_floats(where: str, value, ndim: int | None, finite: bool = True) -> np.ndarray:
    """value as a float array with ndim axes (its own for None, fewer promoted
    as np.atleast_1d/atleast_2d promote), a float64 array not copied.  A value
    numpy cannot read as floats, a complex one among them, and with finite a NaN
    or inf, is a ValidationError, and more axes a DimensionError, naming where."""
    try:
        arr = np.asarray(value)
        if arr.dtype != float:
            # tested first, as the conversion reads a complex value as its real part;
            # value converts, not arr, so that numpy's messages quote it as given
            if arr.dtype.kind == "c":
                raise ValidationError(f"{where} must be numbers: got complex values")
            arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where} must be numbers: {exc}") from exc
    if arr.ndim != ndim and ndim is not None:
        if arr.ndim > ndim:
            raise DimensionError(f"{where} has shape {arr.shape}: "
                                 f"{arr.ndim} axes, more than {ndim}")
        arr = arr.reshape((1,) * (ndim - arr.ndim) + arr.shape)
    # counting the finite entries costs half of np.isfinite(arr).all() on small arrays
    if finite and np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValidationError(f"{where} must be finite")
    return arr


def take_array(record, name: str, ndim: int, finite: bool = True):
    """Field name of the frozen dataclass record through take_floats naming
    <Record>.<field>, as a new array stored read-only; None stays None."""
    value = getattr(record, name)
    if value is None:
        return None
    arr = take_floats(f"{type(record).__name__}.{name}", value, ndim, finite)
    # a new array numpy made of a list, a tuple or another dtype is the record's
    # own; order K keeps the layout that a BLAS product's bits follow
    if arr is value or arr.base is not None or not isinstance(value, (np.ndarray, list, tuple)):
        arr = arr.copy(order="K")
    arr.flags.writeable = False
    object.__setattr__(record, name, arr)
    return arr


def take_value(record, name: str, kind: type = float):
    """kind(field name of the frozen dataclass record), stored and returned;
    a value kind cannot take is a ValidationError naming <Record>.<field>.
    float keeps its leniency: True reads as 1.0 and '0.5' as 0.5."""
    try:
        value = kind(getattr(record, name))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{type(record).__name__}.{name} cannot be read as a "
                              f"{kind.__name__}: {exc}") from exc
    object.__setattr__(record, name, value)
    return value
