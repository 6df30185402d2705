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
from dataclasses import dataclass

import numpy as np

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
    used_pairs: tuple[tuple[str, str], ...]
    oov_src: int = 0
    oov_tgt: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Z = np.asarray(self.Z, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "used_pairs", tuple(self.used_pairs))
        if X.ndim != 2 or Z.ndim != 2:
            raise DataError("paired matrices must be 2-d")
        if not (X.shape[0] == Z.shape[0] == len(self.used_pairs)):
            raise DataError("X, Z and used_pairs disagree on the pair count")
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
    xi, zi, used = [], [], []
    oov_src = oov_tgt = 0
    for pair in pairs.pairs:
        i = src_index.get(pair[0])
        j = tgt_index.get(pair[1])
        if i is None:
            oov_src += 1
        if j is None:
            oov_tgt += 1
        if i is None or j is None:
            continue
        xi.append(i)
        zi.append(j)
        used.append(pair)
    if not used:
        raise DataError("no dictionary pair has both words in vocabulary")
    return PairedMatrices(src_emb.matrix[xi], tgt_emb.matrix[zi], tuple(used),
                          oov_src, oov_tgt)


def cross_covariance_svd(pm: PairedMatrices):
    """SVD of X^T Z under the shared sign convention.

    Returns (U, s, V) with X^T Z = U diag(s) V^T, singular values descending.
    """
    C = pm.X.T @ pm.Z
    if not np.isfinite(C).all():
        raise DataError("non-finite values in the cross-covariance")
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
    ata = A.T @ A
    atb = A.T @ B
    try:
        W = _cholesky_solve(ata, atb)
        residual = np.linalg.norm(ata @ W - atb)
        solved = residual <= RESIDUAL_RTOL * max(np.linalg.norm(atb), np.finfo(float).tiny)
    except np.linalg.LinAlgError:
        solved = False
    if not solved:
        W, _, _, _ = np.linalg.lstsq(A, B, rcond=None)
    return LinearMap(W, "unconstrained")


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
    C = A.T @ A
    d = C.shape[0]
    evals, evecs = np.linalg.eigh(C)
    if evals[-1] <= 0.0 or evals[0] < 1e-10 * evals[-1]:
        lam = 1e-8 * np.trace(C) / d
        if lam <= 0.0:
            raise DataError("covariance is identically zero, cannot whiten")
        evals, evecs = np.linalg.eigh(C + lam * np.eye(d))
        if evals[0] <= 0.0:
            raise DataError("covariance is not positive definite even after regularization")
    W = (evecs * evals ** -0.5) @ evecs.T
    return LinearMap(0.5 * (W + W.T), "whitening")


def spd_inverse(M: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, kept symmetric."""
    evals, evecs = np.linalg.eigh(np.asarray(M, dtype=np.float64))
    if evals[0] <= 0.0:
        raise DataError("matrix is not positive definite")
    inv = (evecs * evals ** -1.0) @ evecs.T
    return 0.5 * (inv + inv.T)


def save_maps(maps, path) -> None:
    """Write maps as concatenated text blocks: a "kind d_in d_out" header line,
    then d_in rows of %.17g values (lossless for doubles)."""
    maps = list(maps)
    if not maps:
        raise DataError("no maps to save")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for m in maps:
            fh.write(f"{m.kind} {m.d_in} {m.d_out}\n")
            row_fmt = " ".join(["%.17g"] * m.d_out) + "\n"
            for row in m.matrix.tolist():
                fh.write(row_fmt % tuple(row))


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
            except ValueError:
                raise LocatedError(f"bad map header {line!r}", header_no, path) from None
            block = list(itertools.islice(lines, max(d_in, 0)))
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
            matrix = np.array(rows, dtype=np.float64)
            if matrix.shape != (d_in, d_out):
                raise LocatedError(f"map block has shape {matrix.shape}, "
                                   f"header says ({d_in}, {d_out})", header_no, path)
            try:
                maps.append(LinearMap(matrix, kind))
            except (DataError, ValueError) as exc:
                raise LocatedError(str(exc), header_no, path) from None
    if not maps:
        raise DataError(f"{path}: no maps found")
    return maps
