"""Text-format word embedding I/O and row normalization.

The on-disk layout is the common word2vec/fastText text format: a header line
``<count> <dim>``, then one ``<word> <v1> ... <v_dim>`` row per word, fields
separated by single spaces, UTF-8 encoded, "\\n" line endings.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, EmbeddingParseError

logger = logging.getLogger(__name__)

NORM_STEPS = ("unit", "center")
DEFAULT_NORMALIZE = ("unit", "center", "unit")


@dataclass(frozen=True)
class VocabEmbedding:
    """An ordered vocabulary with one double-precision row vector per word.

    norm_recipe records the normalization steps already applied, in order.
    """

    language: str
    words: tuple[str, ...]
    matrix: np.ndarray
    norm_recipe: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "norm_recipe", tuple(self.norm_recipe))
        matrix = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2:
            raise DataError(f"embedding matrix must be 2-d, got shape {matrix.shape}")
        if matrix.shape[0] != len(self.words):
            raise DataError(f"{len(self.words)} words but {matrix.shape[0]} matrix rows")
        if matrix.shape[1] < 1:
            raise DataError("embedding dimension must be positive")
        for w in self.words:
            if not w or w.split() != [w]:
                raise DataError(f"invalid word {w!r}: empty or contains whitespace")
        if len(set(self.words)) != len(self.words):
            raise DataError("duplicate words in vocabulary")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self.word_index

    @cached_property
    def word_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def vector(self, word: str) -> np.ndarray:
        try:
            return self.matrix[self.word_index[word]]
        except KeyError:
            raise DataError(f"word {word!r} not in {self.language!r} vocabulary") from None


def _language_from_path(path) -> str:
    token = os.path.basename(os.fspath(path)).split(".")[0]
    return token or "und"


def load_embeddings(path, max_words: int | None = None, lowercase: bool = False,
                    language: str | None = None) -> VocabEmbedding:
    """Read a text-format embedding file.

    max_words keeps at most that many entries (a prefix of the file).
    lowercase folds words on ingestion; on a collision the first occurrence
    wins and the number of folded entries is logged. language defaults to the
    first dot-separated token of the file name.
    """
    if max_words is not None and max_words < 1:
        raise DataError("max_words must be positive")
    if language is None:
        language = _language_from_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmbeddingParseError("expected '<count> <dim>' header", code="header", line=1)
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbeddingParseError(f"non-integer header fields {header!r}",
                                      code="header", line=1) from None
        if count < 0 or dim < 1:
            raise EmbeddingParseError(f"bad header counts {count} {dim}", code="header", line=1)
        limit = count if max_words is None else min(count, max_words)
        words: list[str] = []
        rows: list[np.ndarray] = []
        index: dict[str, int] = {}
        folded = 0
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            if len(words) >= limit:
                break
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            parts = line.rstrip(" ").split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingParseError(f"expected {dim + 1} fields, found {len(parts)}",
                                          code="arity", line=line_no)
            word = parts[0]
            if not word or word.split() != [word]:
                raise EmbeddingParseError(f"bad word field {word!r}", code="arity", line=line_no)
            if lowercase:
                word = word.lower()
            if word in index:
                folded += 1
                continue
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(str(exc), code="value", line=line_no) from None
            if not np.isfinite(vec).all():
                raise EmbeddingParseError("non-finite value", code="value", line=line_no)
            index[word] = len(words)
            words.append(word)
            rows.append(vec)
    if len(words) + folded < count and len(words) < limit:
        raise EmbeddingParseError(f"header promises {count} rows, file has "
                                  f"{len(words) + folded}", code="truncated",
                                  line=line_no + 1)
    if not words:
        raise EmbeddingParseError("no embedding rows", code="empty", line=1)
    if folded:
        logger.info("%s: dropped %d duplicate words, first occurrence kept", path, folded)
    return VocabEmbedding(language=language, words=tuple(words), matrix=np.array(rows))


def save_embeddings(emb: VocabEmbedding, path, decimals: int = 6) -> None:
    """Write emb in the text format, values with `decimals` fractional digits."""
    if len(emb) == 0:
        raise DataError("refusing to write an empty vocabulary")
    fmt = f"%.{decimals}f"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(emb)} {emb.dim}\n")
        for word, row in zip(emb.words, emb.matrix):
            fh.write(word + " " + " ".join(fmt % v for v in row) + "\n")


def normalize(emb: VocabEmbedding, steps) -> VocabEmbedding:
    """Apply "unit" (rows to length 1) and "center" (subtract the column mean)
    steps in order, returning a new embedding with an extended norm_recipe."""
    steps = tuple(steps)
    for step in steps:
        if step not in NORM_STEPS:
            raise ValueError(f"unknown normalization step {step!r}, expected one of {NORM_STEPS}")
    matrix = np.array(emb.matrix, dtype=np.float64, copy=True)
    for step in steps:
        if step == "unit":
            norms = np.linalg.norm(matrix, axis=1)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DataError(
                    f"zero-length row at 'unit' step: word {emb.words[zero[0]]!r}")
            matrix /= norms[:, None]
        else:
            matrix -= matrix.mean(axis=0)
    return VocabEmbedding(emb.language, emb.words, matrix, emb.norm_recipe + steps)
