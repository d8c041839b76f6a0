"""Exception types shared across the package, the four rules that checked
values obey (counts and seeds: :func:`check_count`; labels and batch
indices, of the rank their caller expects: :func:`check_indices`;
real-valued settings: :func:`check_real`; array arguments:
:func:`check_array`), and a text reader that raises one of them."""

import math
from pathlib import Path

import numpy as np

_FLOAT64 = np.dtype(np.float64)


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class CorruptionError(RuntimeError):
    """Cached state (trace, argmax map) is inconsistent with its source."""


class DivergenceError(ArithmeticError):
    """Training drove a parameter to inf or NaN."""


class ConfigurationError(ValueError):
    """A configuration value or call argument is outside its valid domain."""


class IdxFormatError(ValueError):
    """An IDX byte stream carries the wrong magic number."""


class IdxTruncationError(ValueError):
    """An IDX byte stream ends before its declared payload.

    ``offset`` is the byte position at which data ran out.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class UndefinedAffinityError(ValueError):
    """Affinity of two all-zero vectors or a non-finite vector requested."""


def check_count(value, name: str, low: int = 1, high: int | None = None):
    """``value`` if it is an integer, not a bool, of at least ``low`` (1 for a
    count; 0 for a seed, capacity or class id) and, when given, at most
    ``high``, else ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigurationError(
            f"{name} must be an integer {bounds}, got {value!r}")
    return value


def check_array(values, name: str, ndim=None) -> np.ndarray:
    """``values`` as float64, if it is rectangular, of bools, integers or
    reals, and of rank ``ndim``: an int, a ``(low, high)`` range, or None
    for any. Else DimensionError or ConfigurationError naming ``name``. A
    float64 array comes back as it is."""
    try:
        array = np.asarray(values)
    except ValueError:   # numpy's "inhomogeneous shape"
        raise _shape_error(name) from None
    # numpy shares one float64 dtype: the common case is one identity test
    if array.dtype is not _FLOAT64:
        if array.dtype.kind not in "biuf":
            raise ConfigurationError(
                f"{name} must hold real numbers, got dtype {array.dtype}")
        array = array.astype(_FLOAT64)
    if ndim is not None and array.ndim != ndim and (
            type(ndim) is int or not ndim[0] <= array.ndim <= ndim[1]):
        raise _shape_error(name, array, ndim)
    return array


def _shape_error(name: str, array=None, ndim=None) -> DimensionError:
    """The error for ragged rows, or for ``array`` not of rank ``ndim``."""
    if array is None:
        return DimensionError(
            f"{name} must be rectangular, got rows of different lengths")
    low, high = (ndim, ndim) if type(ndim) is int else ndim
    ranks = (low if low == high else f"{low} or more" if high == math.inf
             else f"{low} to {high}")
    return DimensionError(
        f"{name} must have {ranks} axes, got shape {array.shape}")


def check_indices(values, noun: str, bound: int | None = None,
                  ndim: int | None = None) -> np.ndarray:
    """``values`` as an array, if it is rectangular, of rank ``ndim`` when
    given, of an integer dtype (the IDX files' uint8 among them) and, with
    a ``bound``, in [0, bound); else DimensionError or ConfigurationError,
    naming the first entry outside the range. A bool or float dtype is
    refused, so no cast drops a fraction."""
    try:
        values = np.asarray(values)
    except ValueError:
        raise _shape_error(f"{noun}s") from None
    if ndim is not None and values.ndim != ndim:
        raise _shape_error(f"{noun}s", values, ndim)
    if values.dtype.kind not in "iu":
        raise ConfigurationError(
            f"{noun}s must be integers, got dtype {values.dtype}")
    if bound is not None and values.size and (
            np.minimum.reduce(values, axis=None) < 0
            or np.maximum.reduce(values, axis=None) >= bound):
        outside = values[(values < 0) | (values >= bound)]
        raise ConfigurationError(f"{noun}s hold a {noun} outside [0, {bound}): "
                                 f"{noun} {outside[0]} is the first")
    return values


def check_real(value, name: str, low: float, high: float):
    """``value`` if it is a Python or numpy real number, not a bool, that is
    finite and lies in [low, high], else ConfigurationError."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            # written so that NaN fails it
            or not (low <= value <= high and -math.inf < value < math.inf)):
        raise ConfigurationError(f"{name} must be a finite real number in "
                                 f"[{low}, {high}], got {value!r}")
    return value


def read_text(path) -> str:
    """The text of the file at ``path``. A byte that does not decode raises
    ConfigurationError naming the file and the byte's offset."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ConfigurationError(
            f"{path}: undecodable byte at offset {err.start}") from None
