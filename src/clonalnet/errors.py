"""Exception types shared across the package, the integer rule that every
count, size and seed obeys, and a text reader that raises one of them."""

from pathlib import Path

import numpy as np


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


def check_count(value, name: str, low: int = 1):
    """``value`` if it is an integer, not a bool, of at least ``low`` (1 for a
    count; 0 for a seed, capacity or class id), else ConfigurationError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ConfigurationError(
            f"{name} must be an integer >= {low}, got {value!r}")
    return value


def read_text(path) -> str:
    """The text of the file at ``path``. A byte that does not decode raises
    ConfigurationError naming the file and the byte's offset."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ConfigurationError(
            f"{path}: undecodable byte at offset {err.start}") from None
