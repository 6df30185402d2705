"""induction.topk against the kernel it replaced.

reference_topk is topk as it was before it streamed over the target: one
unit-length copy of the whole target, then every query block scored against
every target into a full score row, _BLOCK_ROWS targets per product, and
_first_k on each full row. The streamed kernel makes the same products, so
its indices must be the same, bit for bit. _BLOCK_ROWS is patched to 7 so
that small targets span several blocks: a one-row last block, k above one
block, ties and NaN scores on both sides of a block boundary, zero rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexalign import DictionaryPairs, VocabEmbedding, induction, precision_at_k
from lexalign.embeddings import row_norms
from lexalign.induction import _QUERY_BLOCK, _first_k, _topk, _unit_rows, topk

BLOCK = 7


def reference_topk(queries, unit_targets, k):
    queries = np.asarray(queries, dtype=np.float64)
    n, size = queries.shape[0], unit_targets.shape[0]
    top = np.empty((n, k), dtype=np.intp)
    block = np.empty((_QUERY_BLOCK, queries.shape[1]))
    scores = np.empty((_QUERY_BLOCK, size))
    for start in range(0, n, _QUERY_BLOCK):
        rows = min(_QUERY_BLOCK, n - start)
        block[:rows] = _unit_rows(queries[start:start + rows])
        block[rows:] = 0.0
        for t in range(0, size, induction._BLOCK_ROWS):
            np.matmul(block, unit_targets[t:t + induction._BLOCK_ROWS].T,
                      out=scores[:, t:t + induction._BLOCK_ROWS])
        top[start:start + rows] = _first_k(scores[:rows], k)
    return top


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(induction, "_BLOCK_ROWS", BLOCK)


# rows with exactly representable unit lengths: against them many queries
# score exact ties, wherever the rows fall
PALETTE = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0],
                    [0.8, 0.0, 0.6, 0.0], [0.0, 0.0, 0.0, 1.0], [0.28, 0.96, 0.0, 0.0],
                    [3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])


@st.composite
def retrieval(draw):
    """(queries, targets, k): targets drawn from PALETTE (ties and zero rows)
    or at random, some rows NaN; queries from PALETTE rows and random rows,
    up to past one query block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                           2 * BLOCK + 1, 3 * BLOCK + 1]),
                          st.integers(1, 6 * BLOCK)))
    targets = PALETTE[rng.integers(len(PALETTE), size=size)]
    if draw(st.booleans()):
        targets = np.where(rng.random((size, 1)) < 0.5, targets, rng.normal(size=(size, 4)))
    if draw(st.booleans()):
        targets[rng.random(size) < draw(st.sampled_from([0.2, 0.8]))] = np.nan
    n = draw(st.sampled_from([1, 3, _QUERY_BLOCK, _QUERY_BLOCK + 2]))
    queries = np.where(rng.random((n, 1)) < 0.5, PALETTE[rng.integers(len(PALETTE), size=n)],
                       rng.normal(size=(n, 4)))
    k = draw(st.one_of(st.integers(1, min(size, 3)), st.integers(1, size)))
    return queries, targets, k


@settings(max_examples=300, deadline=None)
@given(retrieval())
def test_streamed_topk_equals_the_full_score_rows(case):
    queries, targets, k = case
    norms = row_norms(targets)
    unit = _unit_rows(targets, norms)
    expected = reference_topk(queries, unit, k)
    assert np.array_equal(topk(queries, unit, k), expected)
    assert np.array_equal(_topk(queries, targets, k, norms=norms), expected)
    owned = targets.copy()
    assert np.array_equal(_topk(queries, owned, k, norms=norms, in_place=True), expected)
    assert owned.tobytes() == unit.tobytes()


@pytest.mark.parametrize("size, k", [(size, k) for size in (BLOCK - 1, BLOCK, BLOCK + 1,
                                                             2 * BLOCK + 1, 3 * BLOCK)
                                     for k in (1, BLOCK - 1, BLOCK + 2, 2 * BLOCK + 1)
                                     if k <= size])
def test_block_boundaries_and_k_above_one_block(size, k):
    rng = np.random.default_rng(size * 100 + k)
    unit = _unit_rows(rng.normal(size=(size, 5)))
    queries = rng.normal(size=(_QUERY_BLOCK + 3, 5))
    assert np.array_equal(topk(queries, unit, k), reference_topk(queries, unit, k))


def test_ties_spanning_blocks_rank_the_lower_index_first():
    # the same row in every block: a basis query scores it equal everywhere
    unit = _unit_rows(np.tile(PALETTE[:BLOCK], (4, 1)))
    queries = np.eye(4)
    for k in (1, BLOCK, 3 * BLOCK + 1):
        assert np.array_equal(topk(queries, unit, k), reference_topk(queries, unit, k))
    assert topk(queries[:1], unit, 5)[0].tolist() == [0, BLOCK, 2 * BLOCK, 3 * BLOCK, 3]


def test_a_nan_kth_score_keeps_later_candidates():
    # the first block is all NaN but one row, so the running 3rd score is NaN;
    # the finite rows of the later blocks must still displace the NaN ones
    targets = np.full((3 * BLOCK, 4), np.nan)
    targets[2] = [1.0, 0.0, 0.0, 0.0]
    targets[BLOCK + 4] = [0.6, 0.8, 0.0, 0.0]
    targets[2 * BLOCK] = [0.0, 0.0, 0.0, 1.0]
    unit = _unit_rows(targets)
    query = np.array([[1.0, 0.5, 0.0, 0.25]])
    assert topk(query, unit, 3)[0].tolist() == [2, BLOCK + 4, 2 * BLOCK]
    assert topk(query, unit, 5)[0].tolist() == [2, BLOCK + 4, 2 * BLOCK, 0, 1]
    assert np.array_equal(topk(query, unit, 5), reference_topk(query, unit, 5))


def test_zero_rows_and_a_zero_query():
    targets = np.zeros((2 * BLOCK + 1, 4))
    targets[BLOCK + 1] = [0.0, 1.0, 0.0, 0.0]
    queries = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    assert topk(queries, targets, 3).tolist() == [[0, 1, 2], [BLOCK + 1, 0, 1]]
    assert np.array_equal(topk(queries, targets, 3), reference_topk(queries, targets, 3))


def spaces(seed, size):
    rng = np.random.default_rng(seed)
    words = tuple(f"w{i}" for i in range(size))
    src = VocabEmbedding("tr", words, rng.normal(size=(size, 6)))
    tgt = VocabEmbedding("en", words, src.matrix + rng.normal(scale=0.8, size=(size, 6)))
    return src, tgt, DictionaryPairs("tr", "en", tuple((w, w) for w in words[::2]))


@pytest.mark.parametrize("size", [BLOCK + 1, 5 * BLOCK + 3, 20 * BLOCK])
def test_precision_at_k_in_place_or_not_gives_the_same_report(size):
    src, tgt, test = spaces(size, size)
    before = tgt.matrix.tobytes()
    report = precision_at_k(src, tgt, test, ks=(1, 5, 10))
    assert tgt.matrix.tobytes() == before
    owned = VocabEmbedding("en", tgt.words, tgt.matrix.copy())
    assert precision_at_k(src, owned, test, ks=(1, 5, 10), in_place=True) == report
    assert owned.matrix.tobytes() == _unit_rows(tgt.matrix).tobytes()
