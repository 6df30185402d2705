"""Nearest-neighbor translation retrieval and precision-at-k evaluation."""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .align import AlignedSpace
from .embeddings import NORM_ROWS, finite, row_norms
from .errors import DataError
from .options import OOV_POLICIES

logger = logging.getLogger(__name__)

_EPS = 1e-12
_BLOCK_ROWS = 8192
_QUERY_BLOCK = 64


def _embedding_of(space):
    return space.embedding if isinstance(space, AlignedSpace) else space


def _unit_rows(matrix: np.ndarray, norms: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """matrix / max(row norm, _EPS), written into out when given (out=matrix
    divides in place, with the same bits). norms, when given, are
    row_norms(matrix), already computed."""
    if norms is None:
        norms = row_norms(matrix)
    return np.divide(matrix, np.maximum(norms[:, None], _EPS), out=out)


def _row_blocks(n: int, size: int):
    """(start, stop) of the row blocks of at most `size` rows that cover
    range(n). A last block of one row joins the block before it: numpy scores
    a one-row matrix with a dot product, whose bits can differ from those the
    matrix-vector product gives the same row in a larger block."""
    stops = list(range(size, n, size))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return zip([0] + stops, stops + [n])


def _scores(q: np.ndarray, matrix: np.ndarray, rows: int,
            norms: np.ndarray | None = None) -> np.ndarray:
    """matrix @ q, computed `rows` matrix rows at a time. With norms, the
    matrix's row norms, each block is divided by them before its product, so
    no normalized copy of the whole matrix is made. rows = len(matrix) is the
    one-block case: one product over the whole matrix (an empty matrix is
    one empty block)."""
    out = np.empty(len(matrix))
    for start, stop in _row_blocks(len(matrix), max(rows, 1)):
        block = matrix[start:stop]
        if norms is not None:
            block = _unit_rows(block, norms[start:stop])
        out[start:stop] = block @ q
    return out


def cosine_scores(query: np.ndarray, unit_matrix: np.ndarray,
                  backend: str = "blocked") -> np.ndarray:
    """Cosine of `query` against every row of a row-normalized matrix.

    Both backends run the same row-block loop. backend "blocked" scores
    _BLOCK_ROWS rows at a time to bound the working set; "exact", the
    brute-force reference, is the one-block case: one dense product over the
    whole matrix. Each row's accumulation is unchanged by blocking, so the
    two backends return identical scores and therefore identical rankings
    (the retrieval tests enforce this, tie order included).
    """
    rows = {"blocked": _BLOCK_ROWS, "exact": len(unit_matrix)}.get(backend)
    if rows is None:
        raise ValueError(f"unknown backend {backend!r}")
    return _scores(query / max(np.linalg.norm(query), _EPS), unit_matrix, rows)


def rank_by_score(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score; equal scores rank the lower index first."""
    return np.argsort(-scores, kind="stable")


def _first_k(scores: np.ndarray, k: int) -> np.ndarray:
    """rank_by_score(row)[:k] for every row of a 2-d score array.

    argpartition finds k candidates; when exactly k targets score at least the
    k-th candidate's score, those k are the ranked prefix and only they are
    sorted. Otherwise (a tie straddles the k-th place, or a NaN) the row falls
    back to a full stable sort, so the tie rule always holds.
    """
    top = np.empty((scores.shape[0], k), dtype=np.intp)
    cut = scores.shape[1] - k
    for r, row in enumerate(scores):
        cand = np.sort(np.argpartition(row, cut)[cut:])
        if np.count_nonzero(row >= row[cand].min()) == k:
            top[r] = cand[rank_by_score(row[cand])]
        else:
            top[r] = rank_by_score(row)[:k]
    return top


def _merge_top(top, best, scores: np.ndarray, offset: int, k: int):
    """Each row's running top k (indices top, their scores best, ranked)
    merged with the scores of the next target block, whose columns are
    targets offset, offset + 1, ...: the ranked first min(k, ...) of both,
    and their scores. The first block (no running top yet) goes to _first_k.
    A later block's targets all have higher indices than the running ones,
    so they lose ties: once a row holds k, only a score above its k-th score
    is a candidate, or any number where the k-th score is NaN (NaN ranks last)."""
    n, have = top.shape
    if not have:
        first = _first_k(scores, min(k, scores.shape[1]))
        return first, np.take_along_axis(scores, first, 1)
    if have < k:
        keep = np.ones(scores.shape, dtype=bool)
    else:
        keep = scores > best[:, -1:]
        nan = np.isnan(best[:, -1])
        keep[nan] = ~np.isnan(scores[nan])
    rows, cols = np.divmod(np.flatnonzero(keep), keep.shape[1])  # faster than 2-d nonzero
    owner = np.concatenate([np.repeat(np.arange(n), have), rows])
    index = np.concatenate([top.ravel(), cols + offset])
    score = np.concatenate([best.ravel(), scores[rows, cols]])
    order = np.lexsort((index, -score, owner))  # by row, then as rank_by_score
    counts = np.bincount(owner, minlength=n)
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(min(k, have + scores.shape[1]))]
    return index[pick], score[pick]


def _topk(queries, targets: np.ndarray, k: int, words=None,
          norms: np.ndarray | None = None, in_place: bool = False) -> np.ndarray:
    """topk, streamed over _BLOCK_ROWS target rows at a time. With norms, the
    targets' row norms, each block is first divided by them: into one reused
    block-sized buffer, or with in_place in the targets' own rows. Every
    query block is then scored against the block and the scores merged into
    the running top k (_merge_top), so the score buffer holds one query block
    against one target block."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != targets.shape[1]:
        raise DataError(f"queries of shape {queries.shape} do not match targets of "
                        f"dimension {targets.shape[1]}")
    (n, dim), size = queries.shape, targets.shape[0]
    if not 1 <= k <= size:
        raise DataError(f"k must be in [1, {size}], got {k}")
    query_norms = row_norms(queries, words)
    block_rows = min(_BLOCK_ROWS, size)
    unit = np.empty((block_rows, dim)) if norms is not None and not in_place else None
    query_block = np.empty((_QUERY_BLOCK, dim))
    scores = np.empty((_QUERY_BLOCK, block_rows))
    top, best = np.empty((n, 0), dtype=np.intp), np.empty((n, 0))
    for t in range(0, size, _BLOCK_ROWS):
        block = targets[t:t + _BLOCK_ROWS]
        if norms is not None:
            block = _unit_rows(block, norms[t:t + len(block)],
                               block if in_place else unit[:len(block)])
        width = min(k, t + len(block))
        next_top, next_best = np.empty((n, width), dtype=np.intp), np.empty((n, width))
        for start in range(0, n, _QUERY_BLOCK):
            rows = slice(start, start + _QUERY_BLOCK)
            part = queries[rows]
            _unit_rows(part, query_norms[rows], query_block[:len(part)])
            query_block[len(part):] = 0.0
            out = scores[:, :len(block)]
            np.matmul(query_block, block.T, out=out)
            next_top[rows], next_best[rows] = _merge_top(top[rows], best[rows],
                                                         out[:len(part)], t, k)
        top, best = next_top, next_best
    return top


def topk(queries: np.ndarray, unit_targets: np.ndarray, k: int, words=None) -> np.ndarray:
    """Indices of the k targets nearest each query row by cosine, best first.

    Row i is rank_by_score(cosine_scores(queries[i], unit_targets))[:k], with
    the scores computed by GEMM instead of one product per query, so they may
    differ from cosine_scores in the last bit. Queries are scored
    _QUERY_BLOCK rows at a time, the last block zero-padded, against
    _BLOCK_ROWS targets at a time: BLAS picks its kernel by the operands'
    shapes, so fixed blocks keep results bitwise reproducible whatever the
    query count. The top k is kept per row as the target blocks stream past
    (see _topk), so the score buffer holds one query block against one target
    block, never a query against every target. words, the queries' words,
    name a query whose squared length overflows.
    """
    return _topk(queries, unit_targets, k, words)


def induce(query, target_space, k: int, backend: str = "blocked"):
    """The k nearest target words to `query` by cosine, best first.

    Returns (word, score) tuples. Ties break toward the earlier vocabulary
    index, so results are reproducible across runs and backends. The target's
    row norms are the ones its embedding keeps (VocabEmbedding.norms), so
    only the first call against a space computes them. Both backends run
    cosine_scores' row-block loop, dividing each block by its row norms
    before its product with the unit query. backend "blocked" takes
    NORM_ROWS target rows at a time and never holds a normalized copy of the
    whole target; "exact", the full-matrix reference, is the one-block case.
    Each row's norm and product are the same in a block as in the whole
    matrix, so both return the same bits, unless a multi-threaded BLAS
    splits the whole-matrix product at a row that is not a block boundary:
    the rows there can then differ in the last bit.
    """
    emb = _embedding_of(target_space)
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != emb.dim:
        raise DataError(f"query has dimension {q.shape[0]}, space has {emb.dim}")
    if not np.isfinite(q).all():
        raise DataError("query has non-finite values")
    length = finite(lambda: np.linalg.norm(q),
                    "the query vector is too large: its squared length overflows")
    if length == 0.0:
        raise DataError("query vector is zero")
    if not 1 <= k <= len(emb):
        raise DataError(f"k must be in [1, {len(emb)}], got {k}")
    rows = {"blocked": NORM_ROWS, "exact": len(emb)}.get(backend)
    if rows is None:
        raise ValueError(f"unknown backend {backend!r}")
    scores = _scores(q / max(length, _EPS), emb.matrix, rows, emb.norms)
    order = _first_k(scores[None, :], k)[0]
    return [(emb.words[i], float(scores[i])) for i in order]


@dataclass
class EvalReport:
    """Precision-at-k figures for one language pair and method.

    precision maps k to a fraction in [0, 1]; evaluated counts the distinct
    test source words that entered the denominator; skipped_oov_src counts
    the distinct source words excluded for being out of vocabulary;
    gold_oov_tgt counts test pairs whose gold target is out of vocabulary.
    """

    src_lang: str
    tgt_lang: str
    k_values: tuple[int, ...]
    precision: dict[int, float]
    evaluated: int
    skipped_oov_src: int = 0
    gold_oov_tgt: int = 0
    method_label: str = ""

    def __post_init__(self):
        self.k_values = tuple(sorted({int(k) for k in self.k_values}))
        if not self.k_values or self.k_values[0] < 1:
            raise DataError(f"k values must be positive integers, got {self.k_values}")
        self.precision = {int(k): float(v) for k, v in self.precision.items()}
        missing = [k for k in self.k_values if k not in self.precision]
        if missing:
            raise DataError(f"missing precision for k={missing}")
        series = [self.precision[k] for k in self.k_values]
        if any(not 0.0 <= v <= 1.0 for v in series):
            raise DataError(f"precision outside [0, 1]: {series}")
        if any(b < a - 1e-12 for a, b in zip(series, series[1:])):
            raise DataError(f"precision must be non-decreasing in k: {series}")
        if self.evaluated < 0 or self.skipped_oov_src < 0 or self.gold_oov_tgt < 0:
            raise DataError("counts must be non-negative")


def precision_at_k(src_space, tgt_space, test: "DictionaryPairs", ks=(1, 5, 10),
                   oov_policy: str = "skip", method_label: str = "",
                   in_place: bool = False) -> EvalReport:
    """Evaluate translation retrieval on a test dictionary.

    Each distinct test source word is one unit, counted correct at k when any
    of its in-vocabulary gold targets appears in the top k. oov_policy "skip"
    removes out-of-vocabulary source words from the denominator (they are
    counted in skipped_oov_src); "fail" keeps them as guaranteed misses.

    Retrieval streams over the target (see _topk): each block of
    _BLOCK_ROWS target rows is divided by its row norms, then scored against
    every query, so no normalized copy of the whole target is made. By
    default both spaces are left unchanged, and each block is divided into
    one reused block-sized buffer. in_place=True divides each block in the
    target's own rows instead, with the same bits, and drops the norms the
    target kept: it is for a caller that owns the target and will not read
    it again, since its values no longer match its recipe afterwards.
    """
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"oov_policy must be one of {OOV_POLICIES}, got {oov_policy!r}")
    src_emb = _embedding_of(src_space)
    tgt_emb = _embedding_of(tgt_space)
    if (test.src_lang, test.tgt_lang) != (src_emb.language, tgt_emb.language):
        raise DataError(f"test set is {test.src_lang}->{test.tgt_lang}, spaces are "
                        f"{src_emb.language}->{tgt_emb.language}")
    if not test.pairs:
        raise DataError("empty test set")
    ks = tuple(sorted({int(k) for k in ks}))
    if not ks or ks[0] < 1:
        raise DataError(f"k values must be positive, got {ks}")

    golds: dict[str, list[str]] = {}
    for s, t in test.pairs:
        golds.setdefault(s, []).append(t)
    gold_oov_tgt = sum(1 for _, t in test.pairs if t not in tgt_emb)

    in_vocab = [s for s in golds if s in src_emb]
    skipped = len(golds) - len(in_vocab)
    if oov_policy == "skip":
        evaluated = len(in_vocab)
        if evaluated == 0:
            raise DataError("every test source word is out of vocabulary")
    else:
        evaluated = len(golds)

    depth = min(max(ks), len(tgt_emb))
    queries = src_emb.matrix[[src_emb.word_index[w] for w in in_vocab]]
    tops = _topk(queries, tgt_emb.matrix, depth, in_vocab, tgt_emb.norms, in_place)
    if in_place:
        tgt_emb.__dict__.pop("norms")  # stale: they are those of the matrix before
    hits = {k: 0 for k in ks}
    for word, top in zip(in_vocab, tops):
        position = {tgt_emb.words[i]: rank for rank, i in enumerate(top)}
        best = min((position[t] for t in golds[word] if t in position), default=None)
        if best is None:
            continue
        for k in ks:
            if best < k:
                hits[k] += 1

    report = EvalReport(src_lang=src_emb.language, tgt_lang=tgt_emb.language,
                        k_values=ks, precision={k: hits[k] / evaluated for k in ks},
                        evaluated=evaluated,
                        skipped_oov_src=skipped if oov_policy == "skip" else 0,
                        gold_oov_tgt=gold_oov_tgt, method_label=method_label)
    logger.info("eval %s->%s: %s evaluated=%d skipped_oov_src=%d gold_oov_tgt=%d",
                report.src_lang, report.tgt_lang,
                " ".join(f"P@{k}={report.precision[k]:.4f}" for k in ks),
                report.evaluated, report.skipped_oov_src, report.gold_oov_tgt)
    return report


def render_report(reports, fmt: str = "table") -> str:
    """Render reports as "json" (every EvalReport field), "tsv" (one row per
    report and k), or "table" (methods as rows, language-pair/k columns,
    percentages with one decimal). Deterministic: same reports, same bytes.
    An empty report list yields just the header."""
    reports = list(reports)
    if fmt == "json":
        # string keys: sort_keys orders precision "1", "10", "5", not by number
        return json.dumps([{**asdict(r), "precision": {str(k): r.precision[k]
                                                       for k in r.k_values}}
                           for r in reports], sort_keys=True, indent=2) + "\n"
    if fmt == "tsv":
        lines = ["method\tsrc\ttgt\tk\tprecision\tevaluated\tskipped_oov_src\tgold_oov_tgt"]
        for r in reports:
            for k in r.k_values:
                lines.append(f"{r.method_label}\t{r.src_lang}\t{r.tgt_lang}\t{k}"
                             f"\t{r.precision[k]:.6f}\t{r.evaluated}"
                             f"\t{r.skipped_oov_src}\t{r.gold_oov_tgt}")
        return "\n".join(lines) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")

    cells = {(r.method_label or "unlabeled", r.src_lang, r.tgt_lang, k): r.precision[k]
             for r in reports for k in r.k_values}
    # pairs and methods in order of first appearance, k ascending
    pairs = dict.fromkeys((s, t) for _, s, t, _ in cells)
    methods = dict.fromkeys(label for label, *_ in cells)
    all_ks = sorted({k for *_, k in cells})
    columns = [(s, t, k) for s, t in pairs for k in all_ks]
    headers = ["method"] + [f"{s}-{t}:P@{k}" for s, t, k in columns]
    rows = []
    for label in methods:
        row = [label]
        for s, t, k in columns:
            v = cells.get((label, s, t, k))
            row.append("" if v is None else f"{100.0 * v:.1f}")
        rows.append(row)
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(headers)]
    def format_row(cells_):
        first = cells_[0].ljust(widths[0])
        rest = [c.rjust(widths[i + 1]) for i, c in enumerate(cells_[1:])]
        return "  ".join([first] + rest).rstrip()
    return "\n".join([format_row(headers)] + [format_row(r) for r in rows]) + "\n"
