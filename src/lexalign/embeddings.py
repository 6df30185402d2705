"""Text-format word embedding I/O and row normalization.

The on-disk layout is the common word2vec/fastText text format: a header line
``<count> <dim>``, then one ``<word> <v1> ... <v_dim>`` row per word, fields
separated by single spaces, UTF-8 encoded, "\\n" line endings.
"""

from __future__ import annotations

import contextlib
import logging
import os
import stat
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dictionary import first_bad_token, single_token
from .errors import DataError, EmbeddingParseError, read_lines
from .options import DEFAULT_NORMALIZE, NORM_STEPS

logger = logging.getLogger(__name__)

# rows per np.linalg.norm call in row_norms: the x*x temporary stays this
# small, and each row's sum does not depend on the block it is in
NORM_ROWS = 256


class Vocabulary(tuple):
    """An ordered tuple of distinct words, each a single token. Building one
    checks that, once; embeddings built over the same Vocabulary share it and
    its word_index."""

    def __new__(cls, words):
        vocab = super().__new__(cls, words)
        bad = first_bad_token(vocab)
        if bad is not None:
            raise DataError(f"invalid word {bad!r}: empty or contains whitespace")
        if len(set(vocab)) != len(vocab):
            raise DataError("duplicate words in vocabulary")
        return vocab

    @cached_property
    def word_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self)}


@dataclass(frozen=True)
class VocabEmbedding:
    """An ordered vocabulary with one double-precision row vector per word.

    words is made a Vocabulary, which checks it, unless it is one already:
    normalize, align.apply_map and every map of a chain pass their input's
    Vocabulary on, so their results share its checked words and its
    word -> row index (built on first use) instead of copying them.
    norm_recipe records the normalization steps already applied, in order.
    The first retrieval against the embedding computes its row norms and
    keeps them (see norms), so the matrix is treated as read-only from then
    on: values written into it later are scored against stale norms.
    """

    language: str
    words: Vocabulary
    matrix: np.ndarray
    norm_recipe: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.words, Vocabulary):
            object.__setattr__(self, "words", Vocabulary(self.words))
        object.__setattr__(self, "norm_recipe", tuple(self.norm_recipe))
        matrix = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2:
            raise DataError(f"embedding matrix must be 2-d, got shape {matrix.shape}")
        if matrix.shape[0] != len(self.words):
            raise DataError(f"{len(self.words)} words but {matrix.shape[0]} matrix rows")
        if matrix.shape[1] < 1:
            raise DataError("embedding dimension must be positive")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self.word_index

    @property
    def word_index(self) -> dict[str, int]:
        return self.words.word_index

    @cached_property
    def norms(self) -> np.ndarray:
        """row_norms(self.matrix), computed on first use and kept (8 bytes
        per word): repeated retrieval against one space computes them once."""
        return row_norms(self.matrix, self.words)

    def vector(self, word: str) -> np.ndarray:
        try:
            return self.matrix[self.word_index[word]]
        except KeyError:
            raise DataError(f"word {word!r} not in {self.language!r} vocabulary") from None


def language_of(path, lang: str | None) -> str:
    """lang, or when it is None the first dot-separated token of the file
    name ("und" if that is empty)."""
    if lang is not None:
        return lang
    return os.path.basename(os.fspath(path)).split(".")[0] or "und"


# Rows per np.loadtxt call in load_embeddings, and values per formatted block
# in save_embeddings: enough to amortize each numpy call, few enough that the
# writer's temporaries stay in cache and the reader's a few MB.
_READ_ROWS = 1024
_WRITE_VALUES = 1 << 14
# Characters str.isspace() accepts that np.loadtxt strips around a field but
# numpy's str -> float64 cast rejects; a chunk holding one is parsed row by row.
_LOADTXT_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")
_EXACT_INT = 2.0 ** 52


def _arity_error(body: str, dim: int, line_no: int, path) -> EmbeddingParseError:
    """The error for a row whose body (the text after the word and its
    space, "" when there is none) does not hold dim fields."""
    found = body.count(" ") + 2 if body else 1
    return EmbeddingParseError(f"expected {dim + 1} fields, found {found}", code="arity",
                               line=line_no, path=path)


def _parse_bodies(bodies: list[str], line_nos: list[int], dim: int,
                  path=None) -> np.ndarray:
    """Parse row bodies ("v1 ... v_dim") into a (len(bodies), dim) matrix.

    One np.loadtxt call does the work, and its field count is the only one a
    good chunk gets: it splits each body on single spaces, refuses an empty
    field and a row of another length, and its shape must be (rows, dim). If
    it fails, returns the wrong shape or a non-finite value, the chunk is
    parsed again row by row: a body without dim - 1 spaces is an "arity"
    error, and the rest go through the reference np.array(tokens,
    dtype=float64). That names the first bad line, and it accepts the tokens
    float() takes but loadtxt refuses ("1_0", non-ASCII digits). Where
    loadtxt accepts a row, its values are bitwise the reference's. path is
    the file the rows come from, for the error message.
    """
    # loadtxt skips an empty body (a row with no value), and warns when none is left
    if "" not in bodies and not any(c in body for body in bodies for c in _LOADTXT_ONLY_SPACE):
        try:
            block = np.loadtxt(bodies, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if block.shape == (len(bodies), dim) and np.isfinite(block).all():
                return block
    block = np.empty((len(bodies), dim))
    for i, (body, line_no) in enumerate(zip(bodies, line_nos)):
        if body.count(" ") != dim - 1 or not body:
            raise _arity_error(body, dim, line_no, path)
        try:
            block[i] = np.array(body.split(" "), dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingParseError(str(exc), code="value", line=line_no,
                                      path=path) from None
        if not np.isfinite(block[i]).all():
            raise EmbeddingParseError("non-finite value", code="value", line=line_no,
                                      path=path)
    return block


def load_embeddings(path, max_words: int | None = None, lowercase: bool = False,
                    language: str | None = None) -> VocabEmbedding:
    """Read a text-format embedding file.

    max_words keeps at most that many entries (a prefix of the file).
    lowercase folds words on ingestion; on a collision the first occurrence
    wins and the number of folded entries is logged. language defaults to the
    first dot-separated token of the file name. Every row read, kept or
    folded, counts against the header: a row past the count is a "header"
    error and a file with fewer rows is "truncated", unless max_words stops
    reading first. A byte that is not UTF-8 is an "encoding" error at the line
    errors.read_lines locates. With several defects the earliest line is
    reported, whatever its kind, from any file, a pipe included.
    """
    if max_words is not None and max_words < 1:
        raise DataError("max_words must be positive")
    # closing: a read that stops early (max_words, a defect) frees the file now
    encoding_error = partial(EmbeddingParseError, code="encoding")
    with contextlib.closing(read_lines(path, encoding_error)) as lines:
        header = next(lines, (1, ""))[1].split()
        if len(header) != 2:
            raise EmbeddingParseError("expected '<count> <dim>' header", code="header",
                                      line=1, path=path)
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbeddingParseError(f"non-integer header fields {header!r}",
                                      code="header", line=1, path=path) from None
        if count < 0 or dim < 1:
            raise EmbeddingParseError(f"bad header counts {count} {dim}", code="header",
                                      line=1, path=path)
        # one matrix for every kept row, parsed into in place: at most the
        # rows the header and max_words allow, and for a regular file no more
        # than its size can hold (a row takes at least 2 * dim + 2 bytes);
        # anything else starts empty and grows as rows arrive. It is resized
        # in place without a reference check (which a debugger holding this
        # frame's locals would fail): no view of it outlives a statement.
        limit = count if max_words is None else min(count, max_words)
        info = os.stat(path)
        rows = min(limit, info.st_size // (2 * dim + 2)) if stat.S_ISREG(info.st_mode) else 0
        matrix = np.empty((rows, dim))
        words: dict[str, None] = {}  # the kept words, in file order
        bodies: list[str] = []
        body_lines: list[int] = []
        read = 0
        line_no = 1

        def flush():
            if bodies:
                if len(words) > len(matrix):
                    matrix.resize((min(limit, max(2 * len(matrix), len(words))), dim),
                                  refcheck=False)
                matrix[len(words) - len(bodies):len(words)] = \
                    _parse_bodies(bodies, body_lines, dim, path)
                bodies.clear()
                body_lines.clear()

        try:
            for line_no, line in lines:
                if max_words is not None and len(words) >= max_words:
                    break
                # text mode turns every line break into a single trailing "\n"
                line = line.rstrip("\n").rstrip(" ")
                if not line or line.isspace():
                    continue
                word, _, body = line.partition(" ")
                if read == count:
                    raise EmbeddingParseError(f"more rows than the header's {count}",
                                              code="header", line=line_no, path=path)
                # a kept row's fields are counted when its chunk is parsed
                if not single_token(word):
                    if line.count(" ") != dim:
                        raise _arity_error(body, dim, line_no, path)
                    raise EmbeddingParseError(f"bad word field {word!r}", code="arity",
                                              line=line_no, path=path)
                read += 1
                if lowercase:
                    word = word.lower()
                if word in words:
                    if line.count(" ") != dim:  # a folded row is never parsed
                        raise _arity_error(body, dim, line_no, path)
                    continue
                words[word] = None
                bodies.append(body)
                body_lines.append(line_no)
                if len(bodies) == _READ_ROWS:
                    flush()
        except EmbeddingParseError:
            # a bad value on a row buffered above the defect comes first (when
            # flush() raised, its rows are still buffered and raise again)
            flush()
            raise
        flush()
    if read < count and (max_words is None or len(words) < max_words):
        raise EmbeddingParseError(f"header promises {count} rows, file has {read}",
                                  code="truncated", line=line_no + 1, path=path)
    if not words:
        raise EmbeddingParseError("no embedding rows", code="empty", line=1, path=path)
    if read > len(words):
        logger.info("%s: dropped %d duplicate words, first occurrence kept",
                    path, read - len(words))
    if len(matrix) > len(words):
        matrix.resize((len(words), dim), refcheck=False)  # no view keeps the spare rows
    # every word passed single_token and is kept once: a Vocabulary without the check
    return VocabEmbedding(language_of(path, language), tuple.__new__(Vocabulary, words), matrix)


def _format_block(block: np.ndarray, decimals: int) -> list[bytes | None]:
    """Each row of block as ASCII bytes "v1 ... v_d\n", every value formatted as
    "%.{decimals}f" % v would; None for a row left to Python's formatter.

    Requires 0 <= decimals and 10**decimals < 2**52. Why this is exact: for a
    value x let X = |x| * 10**decimals (a real number; 10**decimals is an exact
    double) and a = fl(X), so |a - X| <= spacing(a) / 2 <= a * 2**-53. Python's
    "%f" is correctly rounded, half to even: it prints the sign bit of x, then
    the integer nearest X with a point `decimals` digits from the right. Below
    2**52, a - floor(a) - 0.5 is exact wherever it is near 0, and when it
    exceeds a * 2**-51 (>= 2 * spacing(a)) in magnitude, X lies on the same
    side of the half-integer nearest a as a does: rint(a) is the integer
    nearest X, and X is no tie. Rows with a value inside that band (exact ties
    included), with a >= 2**52 or not finite, go to Python.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(block) * 10.0 ** decimals
        python = ~(a < _EXACT_INT) | (np.abs(a - np.floor(a) - 0.5) <= a * 2.0 ** -51)
    a = np.rint(a, out=a)
    a[python] = 0.0
    n = a.astype(np.int64)
    int_digits = len(str(int(n.max()) // 10 ** decimals))
    point = 1 if decimals else 0
    # per value: sign, integer digits, point, fraction digits, separator;
    # zero bytes mark the sign of a positive value and leading integer zeros
    width = 1 + int_digits + point + decimals + 1
    buf = np.empty(block.shape + (width,), dtype=np.uint8)
    buf[..., 0] = np.signbit(block)
    buf[..., 0] *= ord("-")
    if decimals:
        buf[..., width - 2 - decimals] = ord(".")
    for p in range(int_digits + decimals):  # p-th digit from the right
        col = width - 2 - p - (point if p >= decimals else 0)
        q = n // 10
        digit = n - q * 10
        digit += ord("0")
        if p > decimals:
            digit[n == 0] = 0
        buf[..., col] = digit
        n = q
    buf[..., -1] = ord(" ")
    buf[:, -1, -1] = ord("\n")
    return _row_bytes(buf.reshape(len(block), -1), python.any(axis=1))


def _row_bytes(rows: np.ndarray, python: np.ndarray) -> list[bytes | None]:
    """Each row of the uint8 array rows as bytes with its zero bytes (the
    padding) dropped, or None where python is true."""
    return [None if bad else row.tobytes().translate(None, b"\0")
            for bad, row in zip(python.tolist(), rows)]


def save_embeddings(emb: VocabEmbedding, path, decimals: int = 6) -> None:
    """Write emb in the text format, values with `decimals` fractional digits.

    The bytes are those of "%.{decimals}f" % v per value; see _format_block.
    """
    if len(emb) == 0:
        raise DataError("refusing to write an empty vocabulary")
    row_fmt = " ".join([f"%.{decimals}f"] * emb.dim) + "\n"
    vectorized = decimals >= 0 and 10 ** decimals < 2 ** 52
    step = max(1, _WRITE_VALUES // emb.dim)
    with open(path, "wb") as fh:
        fh.write(f"{len(emb)} {emb.dim}\n".encode())
        for start in range(0, len(emb), step):
            block = emb.matrix[start:start + step]
            texts = _format_block(block, decimals) if vectorized else [None] * len(block)
            out = []
            for word, row, text in zip(emb.words[start:start + step], block, texts):
                if text is None:
                    text = (row_fmt % tuple(row.tolist())).encode("ascii")
                out += (word.encode("utf-8"), b" ", text)
            fh.write(b"".join(out))


def check_steps(steps) -> tuple:
    """steps as a tuple, or DataError when one is not in NORM_STEPS."""
    steps = tuple(steps)
    bad = [s for s in steps if s not in NORM_STEPS]
    if bad:
        raise DataError(f"unknown normalization steps {bad}, expected some of {NORM_STEPS}")
    return steps


def finite(compute, message: str):
    """compute() run with numpy's floating-point warnings off; DataError(message)
    unless every array it returns (one, or a tuple of them) is finite. The one
    check on a product, sum or solve of finite values that may overflow."""
    with np.errstate(all="ignore"):
        result = compute()
    if not all(np.isfinite(r).all() for r in (result if isinstance(result, tuple) else (result,))):
        raise DataError(message)
    return result


def row_norms(matrix: np.ndarray, words=None) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1), computed NORM_ROWS rows at a time so no
    full-size temporary exists; the bits are those of the one-call form. A
    finite row whose squared length overflows raises DataError, which names
    the row's word when words, the matrix's vocabulary, is given."""
    norms = np.empty(matrix.shape[0])
    with np.errstate(over="ignore"):
        for start in range(0, matrix.shape[0], NORM_ROWS):
            norms[start:start + NORM_ROWS] = np.linalg.norm(matrix[start:start + NORM_ROWS],
                                                            axis=1)
    inf = np.flatnonzero(np.isinf(norms))
    over = inf[np.isfinite(matrix[inf]).all(axis=1)]
    if over.size:
        where = "a vector" if words is None else f"the vector of word {words[over[0]]!r}"
        raise DataError(f"{where} is too large: its squared length overflows")
    return norms


def normalize(emb: VocabEmbedding, steps, *, copy: bool = True) -> VocabEmbedding:
    """Apply "unit" (rows to length 1) and "center" (subtract the column mean)
    steps in order, returning a new embedding with an extended norm_recipe.

    By default emb is left unchanged and the result owns a new matrix.
    copy=False works on emb.matrix itself and the result shares it, so no
    second full-size matrix exists; it is only for a matrix nobody else
    holds, such as one just loaded, since emb's values no longer match its
    recipe afterwards, and it drops the norms emb has cached. The result's
    bits are the same either way."""
    steps = tuple(steps)
    for step in steps:
        if step not in NORM_STEPS:
            raise ValueError(f"unknown normalization step {step!r}, expected one of {NORM_STEPS}")
    if not copy:
        emb.__dict__.pop("norms", None)  # they are stale once emb.matrix changes
    matrix = np.array(emb.matrix, copy=True) if copy else emb.matrix
    for step in steps:
        if step == "unit":
            norms = row_norms(matrix, emb.words)
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                raise DataError(
                    f"zero-length row at 'unit' step: word {emb.words[zero[0]]!r}")
            matrix /= norms[:, None]
        else:
            mean = finite(lambda: matrix.mean(axis=0),
                          "a column sum overflows at the 'center' step")
            # |x - mean| cannot round past the largest double while |mean| < 2**970
            big = np.abs(mean) >= 2.0 ** 970
            finite(lambda: matrix[:, big] - mean[big],
                   "a value minus its column mean overflows at the 'center' step")
            matrix -= mean
    return VocabEmbedding(emb.language, emb.words, matrix, emb.norm_recipe + steps)
