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


class EmbeddingParseError(DataError):
    """A text embedding file could not be parsed.

    code is one of "header" (a bad header line, or a row past the count it
    promises), "arity", "value", "empty", "truncated" (fewer rows than the
    header promises), "encoding" (a byte that is not UTF-8); line is 1-based.
    """

    def __init__(self, message: str, code: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.code = code
        self.line = line


class DictionaryFormatError(DataError):
    """A dictionary file line did not have exactly two columns, or held a
    byte that is not UTF-8."""

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


def locate_decode_error(path, exc: UnicodeDecodeError) -> tuple[int | None, str]:
    """For exc, raised while the file at path was read as UTF-8 text: the
    1-based line of its first byte that is not UTF-8, counted as a text-mode
    reader counts lines, and a message naming the file. The line comes from
    reading the file again, so it is None for a file that cannot be read
    twice, such as a pipe."""
    message = (f"{os.fspath(path)}: can't decode byte 0x{exc.object[exc.start]:02x} "
               f"as UTF-8 ({exc.reason})")
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                if _ESCAPED_BYTE.search(line):
                    return line_no, message
    return None, message
