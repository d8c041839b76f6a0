"""Exception types shared across the package, and the text-file reader
that turns undecodable bytes into one of them."""

from pathlib import Path


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


def read_text(path) -> str:
    """The text of the file at ``path``. A byte that does not decode raises
    ConfigurationError naming the file and the byte's offset."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as err:
        raise ConfigurationError(
            f"{path}: undecodable byte at offset {err.start}") from None
