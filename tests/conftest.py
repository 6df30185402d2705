import tracemalloc

import numpy as np

from lexalign import DictionaryPairs, VocabEmbedding


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def make_embedding(lang, n, d, rng, prefix="w"):
    words = tuple(f"{prefix}{i}" for i in range(n))
    return VocabEmbedding(lang, words, rng.normal(size=(n, d)))


def identity_dict(words, src_lang, tgt_lang):
    return DictionaryPairs(src_lang, tgt_lang, tuple((w, w) for w in words))


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def peak_bytes(call):
    """The most memory Python's allocators held at once while call() ran,
    counting only what it allocated."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
