"""Bitwise identity of the row-blocked retrieval and normalization kernels
with their full-matrix formulas, and the memory they allocate; normalize
split over threads gives the bits and the errors of one thread."""

import contextlib
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexalign import (DEFAULT_NORMALIZE, DataError, DictionaryPairs, VocabEmbedding,
                      embeddings, induce, induction, normalize, precision_at_k, rank_by_score)
from lexalign.embeddings import NORM_ROWS, NORM_STEPS, split_rows
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


@contextlib.contextmanager
def split_over(cpus, values):
    """normalize splits a matrix of n values into min(cpus, n // values) row
    ranges, as on a host with that many CPUs."""
    with mock.patch.object(embeddings, "SPLIT_VALUES", values), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
        yield


@st.composite
def defective_matrices(draw):
    """matrices() in C or Fortran order, with rows set to zero, to 1e200
    (finite, but the squared length overflows) or to +-1.7e308 (column sums
    and differences may overflow) at drawn places, possibly several ranges."""
    matrix = draw(matrices())
    for value in draw(st.lists(st.sampled_from([0.0, 1e200, 1.7e308, -1.7e308]), max_size=4)):
        matrix[draw(st.integers(0, len(matrix) - 1))] = value
    return np.asarray(matrix, order=draw(st.sampled_from("CF")))


def normalized(matrix, steps, copy):
    """What normalize gives on a copy of matrix: the result's bits, memory
    order and recipe, or the error's type and message."""
    emb = embedding(matrix.copy(order="K"))
    try:
        result = normalize(emb, steps, copy=copy)
    except DataError as exc:
        return type(exc), str(exc)
    return result.matrix.tobytes(order="A"), result.matrix.flags.f_contiguous, result.norm_recipe


@settings(max_examples=80, deadline=None)
@given(defective_matrices(), st.lists(st.sampled_from(NORM_STEPS), max_size=4), st.booleans(),
       st.integers(1, 4), st.integers(1, 200))
def test_split_normalize_equals_one_thread(matrix, steps, copy, cpus, values):
    serial = normalized(matrix, steps, copy)
    with split_over(cpus, values):
        split = normalized(matrix, steps, copy)
        emb = embedding(matrix.copy(order="K"))
        with contextlib.suppress(DataError):
            normalize(emb, steps)
    assert split == serial
    assert emb.matrix.tobytes(order="A") == matrix.tobytes(order="A")  # copy=True leaves it


def test_split_normalize_names_the_earliest_bad_row_across_ranges():
    matrix = np.random.default_rng(2).normal(size=(400, 10))
    for row in (30, 150, 390):  # three of four ranges
        matrix[row] = 0.0
    expected = "zero-length row at 'unit' step: word 'w30'"
    for cpus in (1, 4):
        with split_over(cpus, 10), pytest.raises(DataError, match=expected):
            normalize(embedding(matrix), ["unit"])
    for row in (120, 250, 399):  # overflow comes before any zero-length row
        matrix[row] = 1e200
    for cpus in (1, 4):
        with split_over(cpus, 10), pytest.raises(DataError, match="word 'w120' is too large"):
            normalize(embedding(matrix), ["unit"])
    matrix[[10, 200, 300], 3] = 1.7e308  # a column sum overflows
    for cpus in (1, 4):
        with split_over(cpus, 10), pytest.raises(DataError, match="a column sum overflows"):
            normalize(embedding(matrix), ["center", "unit"])


def test_split_rows_joins_its_threads_and_raises_the_earliest_error():
    before = threading.active_count()
    seen = []

    def work(lo, hi):
        seen.append((lo, hi, threading.active_count()))
        if lo:
            raise ValueError(lo)

    with split_over(4, 10), pytest.raises(ValueError) as info:
        split_rows(np.zeros((400, 10)), work)
    assert info.value.args == (100,)  # ranges 1, 2 and 3 raised
    assert sorted((lo, hi) for lo, hi, _ in seen) == [(0, 100), (100, 200), (200, 300),
                                                      (300, 400)]
    assert max(count for *_, count in seen) > before
    assert threading.active_count() == before

    matrix = np.random.default_rng(3).normal(size=(400, 10))
    with split_over(4, 10):
        normalize(embedding(matrix), DEFAULT_NORMALIZE)
        assert threading.active_count() == before
        matrix[350] = 1e200  # the last range, in a thread of its own
        with pytest.raises(DataError, match="'w350' is too large"):
            normalize(embedding(matrix), DEFAULT_NORMALIZE)
        assert threading.active_count() == before


def test_a_callers_errstate_holds_in_every_range():
    # the inf row divides inf by its inf norm, in the last of four ranges
    matrix = np.random.default_rng(4).normal(size=(400, 10))
    matrix[390, 2] = np.inf
    for cpus in (1, 4):
        with split_over(cpus, 10), np.errstate(all="raise"), \
                pytest.raises(FloatingPointError, match="invalid value"):
            normalize(embedding(matrix), ["unit"])


def test_retrieval_and_normalization_allocate_no_full_size_temporary():
    rng = np.random.default_rng(0)
    emb = embedding(rng.normal(size=(20000, 100)))
    query = rng.normal(size=100)
    assert peak_bytes(lambda: induce(query, emb, 10)) < 0.1 * emb.matrix.nbytes
    # the normalized result is one full-size array; nothing else may be
    assert peak_bytes(lambda: normalize(emb, DEFAULT_NORMALIZE)) < 1.25 * emb.matrix.nbytes
