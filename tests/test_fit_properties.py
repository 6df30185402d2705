"""Fit invariants over generated spaces and dictionaries: Procrustes maps are
orthogonal and recover an exact rotation, Meemi on identical spaces is a
fixed point, and dictionary splits are disjoint and seeded. Each fit runs
through fit_method, which consumes its inputs, and through the public
function, which leaves them alone."""

import numpy as np
from hypothesis import given, settings, strategies as st

from lexalign import (DictionaryPairs, VocabEmbedding, align_orthogonal, meemi_bilingual,
                      split_dictionary)
from lexalign.pipeline import fit_method

from conftest import identity_dict, random_orthogonal


@st.composite
def spaces(draw):
    """A seeded (rows, dim) matrix with rows >= dim + 2, its words, and a
    random number generator for anything else the test draws."""
    dim = draw(st.integers(1, 12))
    rows = draw(st.integers(dim + 2, 4 * dim + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.normal(size=(rows, dim)), tuple(f"w{i}" for i in range(rows)), rng


@settings(max_examples=60, deadline=None)
@given(spaces())
def test_procrustes_is_orthogonal_and_recovers_an_exact_rotation(space):
    matrix, words, rng = space
    rotation = random_orthogonal(rng, matrix.shape[1])
    reference = VocabEmbedding("en", words, matrix @ rotation)
    other = VocabEmbedding("tr", words, matrix)
    pairs = identity_dict(words, "tr", "en")
    public = align_orthogonal(reference, other, pairs)
    consumed = fit_method("orthogonal", "en", {"en": reference, "tr": other}, {"tr": pairs})
    for ms in (public, consumed):
        (w,) = ms["tr"].maps_applied
        eye = np.eye(w.d_out)
        assert np.linalg.norm(w.matrix.T @ w.matrix - eye) <= 1e-10
        assert np.abs(w.matrix - rotation).max() <= 1e-8
        assert ms["en"].embedding is reference
    assert public["tr"].embedding.matrix.tobytes() == consumed["tr"].embedding.matrix.tobytes()


@settings(max_examples=60, deadline=None)
@given(spaces())
def test_meemi_on_identical_spaces_is_a_fixed_point(space):
    matrix, words, _ = space
    pairs = identity_dict(words, "aa", "bb")

    def inputs():
        return {"aa": VocabEmbedding("aa", words, matrix),
                "bb": VocabEmbedding("bb", words, matrix.copy())}

    rotated = align_orthogonal(*inputs().values(), pairs)
    for ms in (meemi_bilingual(rotated, pairs), fit_method("meemi", "aa", inputs(), {"bb": pairs})):
        for lang in ("aa", "bb"):
            fitted = ms[lang].maps_applied[-1]
            assert np.abs(fitted.matrix - np.eye(matrix.shape[1])).max() <= 1e-9
            assert np.abs(ms[lang].embedding.matrix - matrix).max() <= 1e-9


@st.composite
def dictionaries(draw):
    """Pairs over a few source words, each with one or more translations,
    repeated sources and targets included."""
    sources = draw(st.integers(2, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, sources - 1), st.integers(0, 40)),
                          min_size=2, max_size=80))
    pairs = tuple(dict.fromkeys((f"s{s}", f"t{t}") for s, t in pairs))
    return DictionaryPairs("en", "tr", pairs)


@settings(max_examples=100, deadline=None)
@given(dictionaries(), st.integers(0, 2 ** 32 - 1), st.data())
def test_split_is_disjoint_complete_and_seeded(d, seed, data):
    distinct = len(d.source_words())
    if distinct < 2:
        return
    test_size = data.draw(st.integers(1, distinct - 1))
    train, test = split_dictionary(d, test_size, seed)
    assert not set(train.source_words()) & set(test.source_words())
    assert len(test.source_words()) == test_size
    assert sorted(train.pairs + test.pairs) == sorted(d.pairs)
    again = split_dictionary(d, test_size, seed)
    assert (again[0].pairs, again[1].pairs) == (train.pairs, test.pairs)
