"""Shared exception types."""

from __future__ import annotations

from functools import wraps


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


class SizeError(ParameterError):
    """An instance is too large for the requested exhaustive computation."""


class FormatError(ValueError):
    """A file does not match the expected on-disk format."""


class ConstructionError(RuntimeError):
    """A randomized construction failed to verify within its retry budget."""


def reads_format(read):
    """Make a reader of UTF-8 files raise FormatError for a byte that is not
    UTF-8 and for the ParameterError of the constructor it ends in."""
    @wraps(read)
    def reader(path):
        try:
            return read(path)
        except ParameterError as exc:
            raise FormatError(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc.reason}") from exc

    return reader
