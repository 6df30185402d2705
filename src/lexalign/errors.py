"""Exception hierarchy shared by every module.

Anything the toolkit raises on purpose derives from LexalignError, so callers
(and the command-line front end) can tell deliberate failures from bugs.
"""

from __future__ import annotations


class LexalignError(Exception):
    """Base class for all errors raised by this package."""


class DataError(LexalignError):
    """Input data violates a contract: bad shapes, unknown words, empty sets,
    rank-deficient matrices where full rank is required, and the like."""


class EmbeddingParseError(DataError):
    """A text embedding file could not be parsed.

    code is one of "header" (a bad header line, or a row past the count it
    promises), "arity", "value", "empty", "truncated" (fewer rows than the
    header promises); line is 1-based.
    """

    def __init__(self, message: str, code: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.code = code
        self.line = line


class DictionaryFormatError(DataError):
    """A dictionary file line did not have exactly two columns."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ExternalServiceError(LexalignError):
    """A remote service misbehaved (network failure, bad status, bad payload)."""


class TranslationError(ExternalServiceError):
    """A translation lookup failed, either over HTTP or against a replay cache."""


class PipelineStageError(LexalignError):
    """Wraps any failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage={stage}: {cause}")
        self.stage = stage
        self.cause = cause
