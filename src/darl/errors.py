"""Exception hierarchy shared across the package.

``exit_code`` drives the CLI process status: 1 usage / missing prerequisite,
2 data or format problems, 3 numerical failures.
"""

from __future__ import annotations


def _restore(cls, args):
    """Rebuild a pickled error without calling its ``__init__``."""
    error = cls.__new__(cls)
    error.args = args
    return error


class DarlError(Exception):
    exit_code = 2

    def __reduce__(self):
        # subclasses build their message from other arguments than the
        # ``args`` they store, so unpickling must not call __init__
        return _restore, (type(self), self.args), self.__dict__


class ConfigError(DarlError, ValueError):
    """Invalid configuration value; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class DataFormatError(DarlError, ValueError):
    """Malformed data file; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class BadMagicError(DataFormatError):
    pass


class TruncatedPayloadError(DataFormatError):
    pass


class NonFiniteValueError(DataFormatError):
    pass


class DuplicateIdError(DarlError, ValueError):
    pass


class DimensionMismatchError(DarlError, ValueError):
    pass


class SingularCovarianceError(DarlError, ValueError):
    exit_code = 3


class DivergenceError(DarlError, ArithmeticError):
    """A training step left a non-finite model parameter."""

    exit_code = 3


class CheckpointError(DarlError, ValueError):
    pass


class MissingArtifactError(DarlError, FileNotFoundError):
    """A subcommand prerequisite is absent; names the producing subcommand."""

    exit_code = 1

    def __init__(self, path, producer: str):
        super().__init__(
            f"missing artifact {path}; run `{producer}` first to produce it"
        )
        self.path = path
        self.producer = producer


class RunDirError(DarlError):
    """The run directory (or a directory inside it) cannot be created."""

    exit_code = 1


class WorkerError(DarlError):
    """A forked worker process ended without sending back its results."""

    exit_code = 1
