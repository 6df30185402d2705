"""Exception hierarchy shared by every module.

Anything the toolkit raises on purpose derives from LexalignError, so callers
(and the command-line front end) can tell deliberate failures from bugs.
"""

from __future__ import annotations

import os
import re

# what a byte that is not UTF-8 decodes to under errors="surrogateescape"
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class LexalignError(Exception):
    """Base class for all errors raised by this package."""


class DataError(LexalignError):
    """Input data violates a contract: bad shapes, unknown words, empty sets,
    rank-deficient matrices where full rank is required, and the like."""


class LocatedError(DataError):
    """A defect at a known line of an input file. The message reads
    "<path>: line N: <what>", or "line N: <what>" without a path; line is
    1-based."""

    def __init__(self, message: str, line: int, path=None):
        located = f"line {line}: {message}"
        super().__init__(located if path is None else f"{os.fspath(path)}: {located}")
        self.line = line
        self.path = path


class EmbeddingParseError(LocatedError):
    """A text embedding file could not be parsed.

    code is one of "header" (a bad header line, or a row past the count it
    promises), "arity", "value", "empty", "truncated" (fewer rows than the
    header promises), "encoding" (a byte that is not UTF-8).
    """

    def __init__(self, message: str, code: str, line: int, path=None):
        super().__init__(message, line, path)
        self.code = code


class DictionaryFormatError(LocatedError):
    """A dictionary file line did not have exactly two columns, or held a
    byte that is not UTF-8."""


class ExternalServiceError(LexalignError):
    """A remote service misbehaved (network failure, bad status, bad payload)."""


class TranslationError(ExternalServiceError):
    """A translation lookup failed, either over HTTP or against a replay cache."""


class PipelineStageError(LexalignError):
    """Wraps any failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage={stage}: {describe(cause)}")
        self.stage = stage
        self.cause = cause


def describe(exc: BaseException) -> str:
    """The message to show for exc: "<path>: <reason>" for an OSError that
    names a file, as in "en.vec: No such file or directory", else str(exc)."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


def read_lines(path, error=LocatedError):
    """Yield (line_no, line) for each line of the UTF-8 text file at path,
    newline kept; line_no is 1-based and counted as a text-mode reader counts
    lines. A byte that is not UTF-8 raises error(message, line=N, path=path),
    N being the line of the file's first such byte, once every line above it
    has been yielded: a caller that stops at an earlier defect reports that
    one. The decoder reads ahead, so line N and the lines above it not yet
    yielded come from reading the file again; for a file that cannot be read
    twice, such as a pipe, the error is a DataError that names only the file."""
    done = 0  # the lines yielded from the first reading
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for done, line in enumerate(fh, start=1):
                yield done, line
            return
        except UnicodeDecodeError as exc:
            message = f"can't decode byte 0x{exc.object[exc.start]:02x} as UTF-8 ({exc.reason})"
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                if _ESCAPED_BYTE.search(line):
                    raise error(message, line=line_no, path=path) from None
                if line_no > done:
                    yield line_no, line
    raise DataError(f"{os.fspath(path)}: {message}") from None
