"""meemi_multilingual against a per-word reference fit.

reference_tuple_fits is the tuple fit as it was first written: one vector
lookup per word, one np.mean per tuple and a Python list of rows per
language. The gathered fit in lexalign.align must give the same maps and
vectors bit for bit, and the same DataError, on every input.

Dimension 1 is left out: numpy sums eight or more one-wide values with
eight partial sums, so a one-wide tuple of eight or more vectors may differ
in the last bit.
"""

from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexalign import (AlignedSpace, DataError, DictionaryPairs, VocabEmbedding,
                      meemi_multilingual)
from lexalign import align
from lexalign.dictionary import orient
from lexalign.maps import least_squares_map

HUB = "hh"


def reference_tuple_fits(spaces, hub_lang, dictionaries, source_set, all_combinations):
    hub = spaces[hub_lang]
    langs = list(dictionaries)
    # per-language translation tables over usable (in-vocabulary) pairs
    tables: dict[str, dict[str, list[str]]] = {}
    hub_order: list[str] = []
    seen_hub = set()
    for lang, pairs in dictionaries.items():
        oriented = orient(pairs, hub_lang, lang)
        table: dict[str, list[str]] = {}
        emb = spaces[lang].embedding
        for h, t in oriented.pairs:
            if h not in hub.embedding or t not in emb:
                continue
            bucket = table.setdefault(h, [])
            if t not in bucket:
                bucket.append(t)
            if h not in seen_hub:
                seen_hub.add(h)
                hub_order.append(h)
        tables[lang] = table

    required = source_set - {hub_lang}
    tuples: list[tuple[str, dict[str, str]]] = []
    for h in hub_order:
        covering = [lang for lang in langs if h in tables[lang]]
        if not covering or not required.issubset(covering):
            continue
        if all_combinations:
            for combo in product(*(tables[lang][h] for lang in covering)):
                tuples.append((h, dict(zip(covering, combo))))
        else:
            tuples.append((h, {lang: tables[lang][h][0] for lang in covering}))
    if not tuples:
        raise DataError("no hub word forms a usable translation tuple")

    means = np.empty((len(tuples), hub.dim))
    for ti, (h, members) in enumerate(tuples):
        vecs = [hub.embedding.vector(h)]
        vecs.extend(spaces[lang].embedding.vector(t) for lang, t in members.items())
        means[ti] = np.mean(vecs, axis=0)

    fits = {}
    for lang, space in spaces.items():
        rows = []
        targets = []
        for ti, (h, members) in enumerate(tuples):
            if lang == hub_lang:
                word = h
            elif lang in members:
                word = members[lang]
            else:
                continue
            rows.append(space.embedding.vector(word))
            targets.append(means[ti])
        if not rows:
            raise DataError(f"language {lang!r} participates in no tuple")
        fits[lang] = least_squares_map(np.array(rows), np.array(targets))
    return fits


def outcome(hub, others, sources, all_combinations, reference):
    """Each language's map and vectors as bytes, or the DataError message."""
    fit = reference_tuple_fits if reference else align._tuple_fits
    with mock.patch.object(align, "_tuple_fits", fit):
        try:
            ms = meemi_multilingual(hub, others, sources, all_combinations)
        except DataError as exc:
            return str(exc)
    return {lang: (space.maps_applied[-1].matrix.tobytes(), space.embedding.matrix.tobytes())
            for lang, space in ms.spaces.items()}


def space(lang, words, matrix):
    return AlignedSpace(VocabEmbedding(lang, words, matrix), (), HUB)


@st.composite
def inputs(draw):
    """A hub and one to four other aligned spaces with -0.0 entries, each with
    a dictionary stored either way round that repeats pairs, gives a hub word
    several translations and names words outside both vocabularies."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    negative_zeros = draw(st.sampled_from([0.0, 0.3, 0.9]))

    def vectors(lang, size):
        matrix = rng.normal(size=(size, dim))
        matrix[rng.random(matrix.shape) < negative_zeros] = -0.0
        return space(lang, tuple(f"{lang}{i}" for i in range(size)), matrix)

    hub = vectors(HUB, draw(st.integers(dim + 2, 14)))
    langs = [f"l{i}" for i in range(draw(st.integers(1, 4)))]
    others = []
    for lang in langs:
        other = vectors(lang, draw(st.integers(dim + 2, 14)))
        # indices past each vocabulary are out-of-vocabulary words
        pairs = draw(st.lists(st.tuples(st.integers(0, len(hub.embedding) + 2),
                                        st.integers(0, len(other.embedding) + 2)),
                              min_size=1, max_size=40))
        pairs = [(f"{HUB}{h}", f"{lang}{t}") for h, t in pairs]
        if draw(st.booleans()):
            dictionary = DictionaryPairs(lang, HUB, tuple((t, h) for h, t in pairs))
        else:
            dictionary = DictionaryPairs(HUB, lang, tuple(pairs))
        others.append((other, dictionary))
    sources = {HUB, *draw(st.sets(st.sampled_from(langs)))}
    return hub, others, sources, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(inputs())
def test_gathered_tuple_fit_matches_the_per_word_fit_bit_for_bit(case):
    assert outcome(*case, reference=False) == outcome(*case, reference=True)


@pytest.mark.parametrize("sources, message", [
    ({HUB, "aa", "bb"}, "no hub word forms a usable translation tuple"),
    ({HUB}, "language 'bb' participates in no tuple"),
], ids=["no-tuple", "no-participation"])
def test_both_fits_raise_the_same_data_error(sources, message):
    rng = np.random.default_rng(5)
    words = ("w0", "w1", "w2", "w3")
    hub = space(HUB, words, rng.normal(size=(4, 3)))
    aa = space("aa", words, rng.normal(size=(4, 3)))
    bb = space("bb", words, rng.normal(size=(4, 3)))
    # bb's only pair has an out-of-vocabulary hub word
    others = [(aa, DictionaryPairs(HUB, "aa", (("w0", "w0"), ("w1", "w2")))),
              (bb, DictionaryPairs("bb", HUB, (("w0", "zz"),)))]
    for reference in (False, True):
        assert outcome(hub, others, sources, False, reference) == message
