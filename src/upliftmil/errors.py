"""Exception types shared across the package, `enum_member`, the one
lookup that reports an unknown enum value as a `ConfigError`,
`check_int`, which holds the one message of a bad integer setting,
`check_alpha` and `check_hidden_sizes`, the one rules of the bag
regularizer's weight and of a network's hidden layer sizes,
`check_reals`, the one check of a real-valued input array, and `is_int`,
`is_real` and `is_binary`, the one tests of an integer setting, of a
real-valued setting and of a binary column.

`is_binary` is the package's one definition of a binary column, the
treatment and outcome of every data set: `Dataset`, `load_table` and the
uplift curve each call it, and each raises its own typed error, naming
the column, when it fails."""

import math

import numpy as np


class UpliftError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(UpliftError, ValueError):
    """Invalid configuration value or combination."""


class ShapeError(UpliftError, ValueError):
    """Array dimensions do not match what an operation requires."""


class ParseError(UpliftError, ValueError):
    """A value in an input file could not be interpreted."""


class SchemaError(UpliftError, ValueError):
    """An input file does not carry the columns the schema names."""


class MetricError(UpliftError, ValueError):
    """A metric is undefined for the given data (e.g. a single-arm set)."""


class TrainingError(UpliftError, RuntimeError):
    """Training aborted; message carries the offending step diagnostics."""


def enum_member(enum, value, name: str):
    """`enum(value)`, or a ConfigError naming the field `name`, the
    choices and the value."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(m.value for m in enum)
        raise ConfigError(f"{name!r} must be one of {choices}, got {value!r}") from None


def is_int(v, least: int = 1) -> bool:
    """An integer >= least; bool, float and str values are not integers."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


def check_int(name: str, value, least: int = 1) -> int:
    """`int(value)` for an integer >= least (`is_int`), else a ConfigError
    naming the setting `name`, the least value and the value."""
    if not is_int(value, least):
        raise ConfigError(f"{name!r} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_alpha(alpha) -> None:
    """The one rule of the bag regularizer's weight: a ConfigError naming
    'alpha' unless it is a finite real (`is_real`) >= 0."""
    if not (is_real(alpha) and alpha >= 0):
        raise ConfigError(f"'alpha' must be finite and >= 0, got {alpha!r}")


def check_hidden_sizes(hidden_sizes) -> tuple[int, ...]:
    """`hidden_sizes` as a tuple of Python ints when it is a non-empty
    sequence of integers >= 1 (`is_int`), else a ConfigError naming it
    and the value: the one rule of a network's hidden layer sizes."""
    hidden = tuple(hidden_sizes) if np.iterable(hidden_sizes) else ()
    if not hidden or not all(map(is_int, hidden)):
        raise ConfigError(f"hidden_sizes must be positive integers, got {hidden_sizes!r}")
    return tuple(map(int, hidden))


def check_reals(name: str, values) -> np.ndarray:
    """`values` as a float64 array, not copied when it is one, else a
    ConfigError naming the argument `name`. Bool, integer and float
    arrays pass, and so does an object array whose values would form
    one; complex values, text, None and ragged nesting do not, so no
    cast drops an imaginary part or parses a string."""
    try:
        v = np.asarray(values)
        if v.dtype.kind == "O":  # judged by the values it holds
            v = np.array(v.tolist())
    except ValueError:  # ragged nesting
        v = None
    if v is None or v.dtype.kind not in "biuf":
        got = "ragged nesting" if v is None else f"dtype {v.dtype}"
        raise ConfigError(f"{name!r} must hold real numbers (bool, integer or float), "
                          f"got {got}")
    return v.astype(np.float64, copy=False)


def is_real(v) -> bool:
    """A finite int or float (an int beyond float range is not); bool,
    str and None are not real values."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def is_binary(values) -> bool:
    """Every entry of the array `values` is 0 or 1, judged by its dtype:
    a bool array always is; an integer array is when its min is >= 0 and
    its max <= 1, two reductions and no temporary; a floating array is
    when each value equals 0 or 1 (so -0.0 is, and NaN and the
    infinities are not); any other dtype (str, object, complex) never
    is, even empty. An empty bool, integer or floating array is."""
    v = np.asarray(values)
    kind = v.dtype.kind
    if kind not in "biuf":
        return False
    if kind == "b" or v.size == 0:
        return True
    if kind == "f":
        return bool(((v == 0.0) | (v == 1.0)).all())
    return bool(v.min() >= 0 and v.max() <= 1)
