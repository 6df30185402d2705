"""Linear-algebra kernels for dictionary-supervised mapping.

Everything works on double precision. SVD-based routines share one sign
convention so a given input always yields the same factors: in each left
singular vector the entry of largest magnitude is made non-negative (ties
resolved toward the lowest row index), and the matching right singular vector
is flipped with it, which leaves every product this package uses unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .embeddings import _row_bytes, finite
from .errors import DataError, LocatedError, read_lines

MAP_KINDS = ("orthogonal", "unconstrained", "whitening", "composite")

# ||A^T (A W - B)||_F <= RESIDUAL_RTOL * ||A^T B||_F is the solver contract
RESIDUAL_RTOL = 1e-6

_LAPACK_COL_MAJOR = 102


@dataclass(frozen=True)
class LinearMap:
    """A right-multiplication map row -> row @ matrix, tagged by kind."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", matrix)
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}, expected one of {MAP_KINDS}")
        if matrix.ndim != 2:
            raise DataError(f"map matrix must be 2-d, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise DataError("map matrix has non-finite entries")
        d_in, d_out = matrix.shape
        if self.kind == "orthogonal":
            if d_in != d_out:
                raise DataError("orthogonal map must be square")
            if np.abs(matrix.T @ matrix - np.eye(d_out)).max() > 1e-6:
                raise DataError("orthogonal map violates W^T W = I beyond 1e-6")
        elif self.kind == "whitening":
            if d_in != d_out:
                raise DataError("whitening map must be square")
            if np.abs(matrix - matrix.T).max() > 1e-6:
                raise DataError("whitening map must be symmetric")

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.d_in:
            raise DataError(f"rows have width {rows.shape[-1]}, map expects {self.d_in}")
        return rows @ self.matrix


@dataclass(frozen=True)
class PairedMatrices:
    """Dictionary rows gathered from two spaces: X[i] and Z[i] belong to the
    i-th usable pair. Out-of-vocabulary counts are carried for reporting."""

    X: np.ndarray
    Z: np.ndarray
    _: KW_ONLY
    oov_src: int = 0
    oov_tgt: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Z = np.asarray(self.Z, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        if X.ndim != 2 or Z.ndim != 2:
            raise DataError("paired matrices must be 2-d")
        if X.shape[0] != Z.shape[0]:
            raise DataError("X and Z disagree on the pair count")
        if X.shape[1] != Z.shape[1]:
            raise DataError(f"paired matrices disagree on width: {X.shape[1]} vs {Z.shape[1]}")

    def __len__(self) -> int:
        return self.X.shape[0]


def build_paired_matrices(src_emb, tgt_emb, pairs) -> PairedMatrices:
    """Gather embedding rows for every dictionary pair with both words in
    vocabulary, preserving dictionary order. Raises when nothing is usable."""
    if pairs.src_lang != src_emb.language or pairs.tgt_lang != tgt_emb.language:
        raise DataError(f"dictionary is {pairs.src_lang}->{pairs.tgt_lang}, "
                        f"embeddings are {src_emb.language}->{tgt_emb.language}")
    src_index = src_emb.word_index
    tgt_index = tgt_emb.word_index
    xi, zi = [], []
    oov_src = oov_tgt = 0
    for pair in pairs.pairs:
        i, j = src_index.get(pair[0]), tgt_index.get(pair[1])
        oov_src += i is None
        oov_tgt += j is None
        if i is not None and j is not None:
            xi.append(i)
            zi.append(j)
    if not xi:
        raise DataError("no dictionary pair has both words in vocabulary")
    return PairedMatrices(src_emb.matrix[xi], tgt_emb.matrix[zi],
                          oov_src=oov_src, oov_tgt=oov_tgt)


def cross_covariance_svd(pm: PairedMatrices):
    """SVD of X^T Z under the shared sign convention.

    Returns (U, s, V) with X^T Z = U diag(s) V^T, singular values descending.
    """
    C = finite(lambda: pm.X.T @ pm.Z, "non-finite values in the cross-covariance: "
               "X^T Z overflows, or X or Z is not finite")
    try:
        u, s, vt = np.linalg.svd(C, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"SVD failed to converge: {exc}") from None
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return u * signs, s, (vt * signs[:, None]).T


def procrustes(pm: PairedMatrices) -> LinearMap:
    """The orthogonal map minimizing ||X W - Z||_F, in closed form."""
    u, _, v = cross_covariance_svd(pm)
    return LinearMap(u @ v.T, "orthogonal")


@functools.cache
def _lapacke():
    """numpy's own LAPACKE dpotrf and dpotrs, or None where numpy lacks them.

    numpy's Linux and Windows wheels link an OpenBLAS with 64-bit integers
    whose LAPACKE names carry a "scipy_" prefix and a "64_" suffix; they are
    looked up through numpy's linalg extension, so no library is loaded.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        potrf = lib.scipy_LAPACKE_dpotrf64_
        potrs = lib.scipy_LAPACKE_dpotrs64_
    except (AttributeError, OSError):
        return None
    matrix = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
    c_int64 = ctypes.c_int64
    potrf.argtypes = [ctypes.c_int, ctypes.c_char, c_int64, matrix, c_int64]
    potrs.argtypes = [ctypes.c_int, ctypes.c_char, c_int64, c_int64, matrix, c_int64,
                      matrix, c_int64]
    potrf.restype = potrs.restype = c_int64
    return potrf, potrs


def _cholesky_solve(ata, atb) -> np.ndarray:
    """scipy.linalg.cho_solve(scipy.linalg.cho_factor(ata), atb) for a 2-d atb.

    Makes the LAPACK calls scipy makes by default (upper factor, Fortran-order
    copies, finite inputs only) in numpy's LAPACKE, and returns the same
    Fortran-order solution. A matrix that is not positive definite raises
    np.linalg.LinAlgError. Where numpy has no LAPACKE, scipy.linalg solves.
    """
    lapacke = _lapacke()
    if lapacke is None:
        import scipy.linalg
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(ata), atb)
    potrf, potrs = lapacke
    n = len(ata)
    if np.shape(ata) != (n, n) or np.ndim(atb) != 2 or len(atb) != n:
        raise ValueError(f"cannot solve shapes {np.shape(ata)} and {np.shape(atb)}")
    lda = max(n, 1)  # LAPACK's minimum, also for n = 0
    factor = np.array(np.asarray_chkfinite(ata), order="F")
    info = potrf(_LAPACK_COL_MAJOR, b"U", n, factor, lda)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of dpotrf")
    solution = np.array(np.asarray_chkfinite(atb), order="F")
    info = potrs(_LAPACK_COL_MAJOR, b"U", n, solution.shape[1], factor, lda, solution, lda)
    if info:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of dpotrs")
    return solution


def least_squares_map(A, B) -> LinearMap:
    """The unconstrained map minimizing ||A W - B||_F.

    Solves the normal equations by Cholesky, through the LAPACKE in numpy's
    own OpenBLAS where the numpy wheel has one and through scipy.linalg
    elsewhere. When A^T A is not positive definite, or the factorization
    fails the residual contract, falls back to the SVD minimum-norm solution.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DataError(f"incompatible least-squares shapes {A.shape} and {B.shape}")
    if A.shape[0] == 0:
        raise DataError("least squares needs at least one row")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise DataError("non-finite values in least-squares inputs")
    ata, atb = finite(lambda: (A.T @ A, A.T @ B),
                      "least-squares inputs too large: A^T A or A^T B overflows")
    try:
        W = _cholesky_solve(ata, atb)
        residual, scale = finite(lambda: (np.linalg.norm(ata @ W - atb), np.linalg.norm(atb)),
                                 "the residual of the normal equations overflows")
        solved = residual <= RESIDUAL_RTOL * max(scale, np.finfo(float).tiny)
    except (np.linalg.LinAlgError, DataError):
        solved = False
    if not solved:
        W, _, _, _ = np.linalg.lstsq(A, B, rcond=None)
    return LinearMap(W, "unconstrained")


def _eigh(C: np.ndarray):
    """np.linalg.eigh(C), or DataError when LAPACK does not converge."""
    try:
        return np.linalg.eigh(C)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"eigendecomposition failed: {exc}") from None


def whitening_transform(A) -> LinearMap:
    """The symmetric inverse square root of A^T A.

    A near-singular covariance is regularized by adding
    1e-8 * trace(A^T A) / d to the diagonal before inversion.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] == 0:
        raise DataError(f"whitening input must be a non-empty 2-d matrix, got {A.shape}")
    if not np.isfinite(A).all():
        raise DataError("non-finite values in whitening input")
    overflow = "whitening input too large: A^T A overflows"
    C = finite(lambda: A.T @ A, overflow)
    d = C.shape[0]
    evals, evecs = _eigh(C)
    if evals[-1] <= 0.0 or evals[0] < 1e-10 * evals[-1]:
        lam = finite(lambda: 1e-8 * np.trace(C) / d, overflow)
        if lam <= 0.0:
            raise DataError("covariance is identically zero, cannot whiten")
        evals, evecs = _eigh(finite(lambda: C + lam * np.eye(d), overflow))
        if evals[0] <= 0.0:
            raise DataError("covariance is not positive definite even after regularization")
    W = (evecs * evals ** -0.5) @ evecs.T
    return LinearMap(0.5 * (W + W.T), "whitening")


def spd_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, kept symmetric."""
    evals, evecs = _eigh(finite(lambda: M, "matrix to invert is not finite"))
    if evals[0] <= 0.0:
        raise DataError("matrix is not positive definite")
    inv = (evecs * evals ** -1.0) @ evecs.T
    return 0.5 * (inv + inv.T)


# Values per formatted block in save_maps, in whole rows: the block's
# temporaries stay below save_embeddings' block temporaries.
_MAP_VALUES = 1 << 12
# uint32 words per value in _format_g17's output
_SLOT = 7
# value classes in _format_g17: a decimal exponent of -4 ... -1 (classes
# 0 ... 3), a zero, or a value Python formats
_ZERO_CLASS, _PYTHON_CLASS = 4, 5


def _words(text: str) -> np.ndarray:
    """text's bytes as uint32 words, 4 characters each ("\0" pads)."""
    return np.frombuffer(text.encode("latin-1"), np.uint8).view(np.uint32)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo, each half with at most 26 bits."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _g17_tables():
    """The lookup tables of _format_g17, built on its first use: the exact
    powers 10**p (0 <= p <= 22) and their Veltkamp halves, then its words."""
    pow10 = np.array([float(10 ** p) for p in range(23)])
    # the four ASCII digits of each integer below 10**4, then each again with
    # its trailing zeros as "\0"
    digits = np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.cumprod(digits[:, ::-1] == 0, axis=1)[:, ::-1].astype(bool)
    text = (digits + ord("0")).astype(np.uint8)
    groups = np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).ravel()
    # by (separator, sign, class) and by (class, leading digit)
    heads = _words("".join(sep + sign + ("0." if cls < _ZERO_CLASS else "0\0")
                           for sep in "\0 " for sign in "\0-" for cls in range(6)))
    leads = _words("".join(("0" * (3 - cls)).ljust(3, "\0") + digit if cls < _ZERO_CLASS
                           else "\0" * 4 for cls in range(6) for digit in "0123456789"))
    return (pow10, *_split(pow10), groups, heads, leads)


def _format_g17(block: np.ndarray, out: np.ndarray) -> None:
    """Write block's rows into out[:, :-1], each value as the bytes of
    "%.17g" % v in 7 uint32 words with "\0" as padding: the separator ("\0"
    in the first column, " " elsewhere), the sign and "0." or "0"; the zeros
    after the point and the leading digit; four words of four digits, whose
    trailing zeros at the end are padding; and a word of padding.

    Why this is exact: for 1e-4 <= |x| < 1 take E = floor(log10|x|) as numpy
    computes it and p = 16 - E, so 16 <= p <= 21 and 10**p is an exact
    double. Dekker's product of |x| and 10**p, built from Veltkamp splits
    without a fused multiply-add, gives hi + lo == |x| * 10**p exactly:
    nothing overflows or underflows at these sizes. When 10**16 < hi < 10**17,
    E is the decimal exponent of x, and hi, above 2**53, is an even integer
    with |lo| <= 8. So N = hi + rint(lo) is the integer nearest the product,
    half to even, below 10**17 (nothing carries): the 17 significant digits
    Python's correctly rounded "%.17g" prints. For -4 <= E < 0 "%g" prints
    "0.", -E - 1 zeros and N's digits without their trailing zeros, and a zero
    as "0" or "-0". Every other value (hi at 10**16 or 10**17, as for 1e-4,
    0.001, 0.01 and 0.1, a log10 off by one next to a power of ten, or a value
    outside that range or not finite) is formatted by Python in its slot.
    """
    pow10, pow10_hi, pow10_lo, groups, heads, leads = _g17_tables()
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    inside = (a >= 1e-4) & (a < 1.0)
    zero = a == 0.0
    a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - e
    a_hi, a_lo = _split(a)
    hi = a * pow10.take(p)
    b_hi = pow10_hi.take(p)
    lo = a_hi * b_hi - hi
    lo += a_lo * b_hi
    b_lo = pow10_lo.take(p)
    lo += a_hi * b_lo
    lo += a_lo * b_lo
    fast = inside & (hi > 1e16) & (hi < 1e17)
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    cls = np.add(e, 4, out=e)
    cls[~fast] = _PYTHON_CLASS
    cls[zero] = _ZERO_CLASS
    n[~fast] = 0  # a zero prints only its head; Python's text overwrites the rest
    n = n.view(np.uint64)
    top = n // 10 ** 8
    low = n - top * 10 ** 8
    lead = top // 10 ** 8
    mid = top - lead * 10 ** 8
    g1 = mid // 10 ** 4
    g3 = low // 10 ** 4
    g = [d.view(np.int64) for d in (g1, mid - g1 * 10 ** 4, g3, low - g3 * 10 ** 4)]
    # a group whose following groups are all zero drops its trailing zeros
    zeros_after = np.ones(len(x), bool)
    for k in (3, 2, 1, 0):
        zero_group = g[k] == 0
        g[k] += zeros_after * 10 ** 4
        zeros_after &= zero_group
    words = out[:, :cols]
    key = (np.signbit(x) * 6 + cls).reshape(rows, cols)
    key[:, 1:] += 12
    words[..., 0] = heads.take(key)
    lead = lead.view(np.int64)
    lead += cls * 10
    words[..., 1] = leads.take(lead).reshape(rows, cols)
    for k in range(4):
        words[..., 2 + k] = groups.take(g[k]).reshape(rows, cols)
    words[..., 6] = 0
    python = np.flatnonzero(cls == _PYTHON_CLASS)
    if python.size:
        text = b"".join((b"%.17g" % v).ljust(4 * _SLOT - 1, b"\0") for v in x[python].tolist())
        chars = out.view(np.uint8)
        chars[python // cols, python % cols, 1:] = \
            np.frombuffer(text, np.uint8).reshape(len(python), -1)


def save_maps(maps, path) -> None:
    """Write maps as concatenated text blocks: a "kind d_in d_out" header line,
    then d_in rows of %.17g values (lossless for doubles).

    The bytes are those of "%.17g" % v per value. Blocks of rows are formatted
    in numpy (see _format_g17 for why that is exact). Python formats each
    value that is not zero and lies below 1e-4 or at 1 or more in magnitude,
    and the rare one next to a power of ten whose log10 misleads.
    """
    maps = list(maps)
    if not maps:
        raise DataError("no maps to save")
    newline = _words("\n\0\0\0")[0]
    with open(path, "wb") as fh:
        for m in maps:
            fh.write(f"{m.kind} {m.d_in} {m.d_out}\n".encode())
            step = max(1, _MAP_VALUES // m.d_out)
            # one slot past each row's values holds its newline
            out = np.zeros((min(step, m.d_in), m.d_out + 1, _SLOT), np.uint32)
            out[:, -1, 0] = newline
            for start in range(0, m.d_in, step):
                block = np.ascontiguousarray(m.matrix[start:start + step])
                rows = out[:len(block)]
                _format_g17(block, rows)
                fh.write(b"".join(_row_bytes(rows.view(np.uint8).reshape(len(block), -1),
                                             np.zeros(len(block), bool))))


def load_maps(path) -> list[LinearMap]:
    """Read the maps save_maps wrote, in order, one block at a time, so the
    first bad line of the file is the one reported. Any defect raises a
    DataError whose message starts with the file; where the line is known, it
    is a LocatedError, "<path>: line N: <what>"."""
    maps = []
    with contextlib.closing(read_lines(path)) as lines:
        for header_no, line in lines:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                kind, d_in, d_out = line.split()
                d_in, d_out = int(d_in), int(d_out)
                if d_in < 1 or d_out < 1:
                    raise ValueError
            except ValueError:
                raise LocatedError(f"bad map header {line!r}", header_no, path) from None
            block = list(itertools.islice(lines, d_in))
            if len(block) != d_in:
                raise LocatedError("map block is truncated", header_no, path)
            rows = []
            for line_no, row in block:
                try:
                    values = [float(value) for value in row.split()]
                except ValueError as exc:
                    raise LocatedError(f"bad map value: {exc}", line_no, path) from None
                if len(values) != d_out:
                    raise LocatedError(f"map row has {len(values)} values, header says {d_out}",
                                       line_no, path)
                rows.append(values)
            try:
                maps.append(LinearMap(rows, kind))
            except (DataError, ValueError) as exc:
                raise LocatedError(str(exc), header_no, path) from None
    if not maps:
        raise DataError(f"{path}: no maps found")
    return maps
