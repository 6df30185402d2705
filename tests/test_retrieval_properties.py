"""Bitwise identity of the row-blocked retrieval and normalization kernels
with their full-matrix formulas, and the memory they allocate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexalign import (DEFAULT_NORMALIZE, DataError, DictionaryPairs, VocabEmbedding,
                      embeddings, induce, induction, normalize, precision_at_k, rank_by_score)
from lexalign.embeddings import NORM_ROWS, NORM_STEPS
from lexalign.induction import _EPS, _unit_rows

from conftest import peak_bytes

ROWS = st.one_of(st.sampled_from([1, NORM_ROWS - 1, NORM_ROWS, NORM_ROWS + 1]),
                 st.integers(1, 3 * NORM_ROWS + 5))


@st.composite
def matrices(draw, zero_row=True):
    """A seeded random matrix with rows of mixed scale, some rows duplicated
    (exact score ties) and, optionally, one all-zero row."""
    rows, dim = draw(ROWS), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    for _ in range(draw(st.integers(0, 3))):
        matrix[rng.integers(rows)] = matrix[rng.integers(rows)]
    if zero_row and draw(st.booleans()):
        matrix[rng.integers(rows)] = 0.0
    return matrix


def full_unit_rows(matrix):
    return matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), _EPS)


def full_normalize(matrix, steps):
    matrix = matrix.copy()
    for step in steps:
        if step == "unit":
            norms = np.linalg.norm(matrix, axis=1)
            if (norms == 0.0).any():
                raise DataError("zero-length row")
            matrix = matrix / norms[:, None]
        else:
            matrix = matrix - matrix.mean(axis=0)
    return matrix


def embedding(matrix, language="tr"):
    return VocabEmbedding(language, tuple(f"w{i}" for i in range(len(matrix))), matrix)


def full_induce(q, emb, k):
    scores = full_unit_rows(emb.matrix) @ (q / max(np.linalg.norm(q), _EPS))
    return [(emb.words[i], float(scores[i])) for i in rank_by_score(scores)[:k]]


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 2 ** 32 - 1), st.data())
def test_induce_equals_full_matrix_formula(matrix, seed, data):
    # the first call computes the norms the space keeps, the second reuses
    # them; a derived space computes its own
    emb = embedding(matrix)
    q = np.random.default_rng(seed).normal(size=emb.dim)
    k = data.draw(st.integers(1, len(emb)))
    expected = full_induce(q, emb, k)
    for _ in range(2):
        assert induce(q, emb, k) == expected
        assert induce(q, emb, k, backend="exact") == expected
    centered = normalize(emb, ["center"])
    assert induce(q, centered, k) == full_induce(q, centered, k)


def test_row_norms_are_computed_once_per_space(monkeypatch):
    rng = np.random.default_rng(4)
    src = embedding(rng.normal(size=(3 * NORM_ROWS + 7, 8)))
    tgt = embedding(rng.normal(size=(3 * NORM_ROWS + 7, 8)), language="en")
    test = DictionaryPairs("tr", "en", tuple((w, w) for w in src.words[::5]))
    row_norms, calls = embeddings.row_norms, []

    def counted(matrix, words=None):
        calls.append(np.may_share_memory(matrix, tgt.matrix))
        return row_norms(matrix, words)

    monkeypatch.setattr(embeddings, "row_norms", counted)
    monkeypatch.setattr(induction, "row_norms", counted)
    precision_at_k(src, tgt, test)
    for word in src.words[:5]:
        induce(src.vector(word), tgt, 10)
    assert calls.count(True) == 1

    # normalizing in place drops the norms the input kept: neither the
    # input nor the result is scored against the old ones
    q = src.vector("w0")
    result = normalize(tgt, DEFAULT_NORMALIZE, copy=False)
    for emb in (tgt, result):
        assert induce(q, emb, 10) == full_induce(q, emb, 10)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_unit_rows_equals_full_matrix_formula(matrix):
    assert _unit_rows(matrix).tobytes() == full_unit_rows(matrix).tobytes()


@settings(max_examples=40, deadline=None)
@given(matrices(), st.integers(0, 2 ** 32 - 1))
def test_precision_at_k_in_place_divides_the_target_to_the_same_bits(matrix, seed):
    src = embedding(np.random.default_rng(seed).normal(size=matrix.shape))
    test = DictionaryPairs("tr", "en", tuple((w, w) for w in src.words[::3]))
    expected = precision_at_k(src, embedding(matrix, "en"), test, ks=(1, 5))
    owned = embedding(matrix.copy(), "en")
    owned.norms
    assert precision_at_k(src, owned, test, ks=(1, 5), in_place=True) == expected
    assert owned.matrix.tobytes() == full_unit_rows(matrix).tobytes()
    assert "norms" not in owned.__dict__  # they were the matrix's before the division


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(st.sampled_from(NORM_STEPS), max_size=4))
def test_normalize_equals_full_matrix_reference(matrix, steps):
    emb = embedding(matrix)
    try:
        expected = full_normalize(matrix, steps)
    except DataError:
        with pytest.raises(DataError, match="zero-length row"):
            normalize(emb, steps)
        return
    result = normalize(emb, steps)
    assert result.matrix.tobytes() == expected.tobytes()
    assert result.norm_recipe == tuple(steps)


def test_retrieval_and_normalization_allocate_no_full_size_temporary():
    rng = np.random.default_rng(0)
    emb = embedding(rng.normal(size=(20000, 100)))
    query = rng.normal(size=100)
    assert peak_bytes(lambda: induce(query, emb, 10)) < 0.1 * emb.matrix.nbytes
    # the normalized result is one full-size array; nothing else may be
    assert peak_bytes(lambda: normalize(emb, DEFAULT_NORMALIZE)) < 1.25 * emb.matrix.nbytes
