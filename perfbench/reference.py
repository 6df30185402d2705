"""Independent numpy reference for the figures the benchmark pins.

It recomputes, from the generator's matrices and pairs, what lexalign must
output: the normalization recipe, the orthogonal and Meemi fits, and
precision at k by a full batched ranking. It shares no code with lexalign,
so a change that alters retrieval results fails the benchmark's checks.
"""

from __future__ import annotations

import random

import numpy as np

KS = (1, 5, 10)


def normalized(matrix):
    m = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    m = m - m.mean(axis=0)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def clean(pairs):
    seen, kept = set(), []
    for s, t in pairs:
        if (s, t) in seen:
            continue
        seen.add((s, t))
        if len(s.split()) == 1 and len(t.split()) == 1:
            kept.append((s, t))
    return kept


def split(pairs, test_size: int, seed: int):
    sources = list(dict.fromkeys(s for s, _ in pairs))
    held = set(random.Random(seed).sample(sources, test_size))
    return ([p for p in pairs if p[0] not in held], [p for p in pairs if p[0] in held])


def rows(index, words):
    return np.array([index[w] for w in words])


def procrustes(x, z):
    u, _, vt = np.linalg.svd(x.T @ z)
    return u @ vt


def top_k(queries, targets, k: int):
    """Indices of the k best targets per query by cosine, ties to the lower index.

    argpartition finds the k best; a row where another target ties the k-th
    score is re-ranked by a full stable sort, so the tie rule always holds."""
    unit_t = targets / np.linalg.norm(targets, axis=1, keepdims=True)
    unit_q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    scores = unit_q @ unit_t.T
    best = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    best_scores = np.take_along_axis(scores, best, axis=1)
    order = np.take_along_axis(best, np.lexsort((best, -best_scores), axis=1), axis=1)
    kth = np.take_along_axis(scores, order[:, -1:], axis=1)
    for row in np.flatnonzero((scores >= kth).sum(axis=1) != k):
        order[row] = np.argsort(-scores[row], kind="stable")[:k]
    return order, np.take_along_axis(scores, order, axis=1)


def hits_at_k(src, src_index, tgt, tgt_index, test_pairs):
    """{k: hits} over distinct test sources, any gold target counting."""
    golds: dict[str, set] = {}
    for s, t in test_pairs:
        golds.setdefault(s, set()).add(tgt_index[t])
    queries = list(golds)
    order, _ = top_k(src[rows(src_index, queries)], tgt, max(KS))
    hits = {k: 0 for k in KS}
    for q, top in zip(queries, order):
        ranks = [r for r, i in enumerate(top) if i in golds[q]]
        for k in KS:
            hits[k] += bool(ranks) and ranks[0] < k
    return hits, len(queries)


def pipeline_meemi(en, en_words, tr, tr_words, raw_pairs, test_size, seed):
    """Hits for `lexalign run` with method meemi and a seeded split; eval en->tr."""
    en_i = {w: i for i, w in enumerate(en_words)}
    tr_i = {w: i for i, w in enumerate(tr_words)}
    train, test = split(clean(raw_pairs), test_size, seed)
    en_n, tr_n = normalized(en), normalized(tr)
    src, tgt = rows(en_i, [s for s, _ in train]), rows(tr_i, [t for _, t in train])
    tr_al = tr_n @ procrustes(tr_n[tgt], en_n[src])
    x, z = en_n[src], tr_al[tgt]
    mid = 0.5 * (x + z)
    en_f = en_n @ np.linalg.lstsq(x, mid, rcond=None)[0]
    tr_f = tr_al @ np.linalg.lstsq(z, mid, rcond=None)[0]
    return hits_at_k(en_f, en_i, tr_f, tr_i, test)


def retrieval_orthogonal(en, en_words, tr, tr_words, train, test):
    """(tr_aligned, en_normalized, hits, evaluated) for an orthogonal fit; eval tr->en."""
    en_i = {w: i for i, w in enumerate(en_words)}
    tr_i = {w: i for i, w in enumerate(tr_words)}
    en_n, tr_n = normalized(en), normalized(tr)
    src, tgt = rows(en_i, [s for s, _ in train]), rows(tr_i, [t for _, t in train])
    tr_al = tr_n @ procrustes(tr_n[tgt], en_n[src])
    hits, evaluated = hits_at_k(tr_al, tr_i, en_n, en_i, test)
    return tr_al, en_n, hits, evaluated
