"""How many full-size copies of a space the fitting path holds at once.

Python's own allocations are traced while one call runs, on generated spaces
of 20000 words: wide enough that a full-size matrix dwarfs one chunk of text,
but the words themselves (strings, the vocabulary tuple, the duplicate check)
still take about half of a 50-wide matrix. So the loader is pinned by what
each extra matrix byte costs, from one width to the next, and the fits by
what each extra dictionary pair costs once an output exists.
"""

import numpy as np
import pytest

from lexalign import (DEFAULT_NORMALIZE, DictionaryPairs, VocabEmbedding, align_orthogonal,
                      load_embeddings, meemi_bilingual, save_embeddings)
from lexalign.pipeline import fit_method, load_space

from conftest import peak_bytes

ROWS, DIM = 20000, 50
WORDS = tuple(f"w{i}" for i in range(ROWS))


@pytest.fixture(scope="module")
def vector_files(tmp_path_factory):
    """The same 20000 words at widths DIM and 2 * DIM."""
    rng = np.random.default_rng(0)
    paths = {}
    for dim in (DIM, 2 * DIM):
        paths[dim] = tmp_path_factory.mktemp("vectors") / "en.vec"
        save_embeddings(VocabEmbedding("en", WORDS, rng.normal(size=(ROWS, dim))), paths[dim])
    return paths


@pytest.mark.parametrize("load", [
    lambda path: load_embeddings(path),
    lambda path: load_space(path, "en", DEFAULT_NORMALIZE),
], ids=["load_embeddings", "load_space"])
def test_loading_holds_one_matrix(vector_files, load):
    # the parsed matrix is the result itself, and load_space normalizes it
    # in place: the peak grows by one byte per matrix byte, not two
    peaks = {dim: peak_bytes(lambda: load(path)) for dim, path in vector_files.items()}
    matrix_bytes = ROWS * DIM * 8
    assert peaks[2 * DIM] - peaks[DIM] < 1.25 * matrix_bytes


def spaces(seed):
    rng = np.random.default_rng(seed)
    reference = VocabEmbedding("en", WORDS, rng.normal(size=(ROWS, DIM)))
    other = VocabEmbedding("tr", WORDS, rng.normal(size=(ROWS, DIM)))
    reference.word_index, other.word_index  # built once, outside the traced calls
    return reference, other


def pairs(count):
    return DictionaryPairs("tr", "en", tuple((w, w) for w in WORDS[:count]))


@pytest.mark.parametrize("fit", ["orthogonal", "meemi"])
def test_fits_free_their_paired_rows_before_any_output(fit):
    reference, other = spaces(1)
    # the least-squares solve imports scipy.linalg on first use
    meemi_bilingual(align_orthogonal(reference, other, pairs(100)), pairs(100))

    def peak(count):
        dictionary = pairs(count)
        if fit == "orthogonal":
            return peak_bytes(lambda: align_orthogonal(reference, other, dictionary))
        rotated = align_orthogonal(reference, other, dictionary)
        rotated["tr"].embedding.word_index
        return peak_bytes(lambda: meemi_bilingual(rotated, dictionary))

    # a half-vocabulary dictionary's paired rows (X, Z and for Meemi the
    # midpoints) are as large as half a space each; none of them may still
    # be alive when the outputs are, so the peak must not grow with them
    assert peak(ROWS // 2) - peak(ROWS // 8) < 0.05 * ROWS * DIM * 8


def test_meemi_fit_frees_the_target_it_consumes():
    reference, other = spaces(2)
    dictionary = pairs(ROWS // 4)
    meemi_bilingual(align_orthogonal(reference, other, pairs(100)), pairs(100))
    rng = np.random.default_rng(3)
    targets = {}

    def fit():
        targets["tr"] = (VocabEmbedding("tr", WORDS, rng.normal(size=(ROWS, DIM))), dictionary)
        fit_method("meemi", reference, targets)

    # the target, its rotated copy and the two Meemi outputs are four spaces;
    # the target is gone before the outputs exist
    assert peak_bytes(fit) < 4 * ROWS * DIM * 8
    assert targets == {}
