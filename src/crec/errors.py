"""Exception types shared across the pipeline."""

from os import PathLike


class CrecError(Exception):
    """Base class for all pipeline errors."""


class NotARepository(CrecError):
    pass


class EmptyRepository(CrecError):
    pass


class UnknownCommit(CrecError):
    pass


class GitError(CrecError):
    """A git process failed, died, or answered with missing or truncated objects."""


class RangeViolation(CrecError):
    """A computed feature fell outside its documented range (internal bug signal)."""


class DegenerateData(CrecError):
    pass


class InsufficientNegatives(CrecError):
    pass


class TooSmall(CrecError):
    pass


class TooFewProjects(CrecError):
    pass


class MissingInput(CrecError):
    pass


class WriteError(CrecError):
    """An artifact could not be written; the file it would replace is kept."""


class ConfigError(CrecError):
    pass


class FormatVersionMismatch(CrecError):
    pass


class ParseError(CrecError):
    """A malformed line of the file at *path*, which the message names first."""

    def __init__(self, message: str, line_number: int, path: str | PathLike):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number
