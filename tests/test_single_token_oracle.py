"""dictionary.first_bad_token and its callers against the per-word checks.

first_bad_token answers from one split of the joined words and calls
single_token word by word only when some word is bad. reference_filter is
translate_wordlist's result loop as it was before, with its counts kept per
translation, and reference_clean is clean_dictionary as it was; both must
give the same pairs and counts. Words are drawn from letters and whitespace
that str.split splits on, such as "\\x1c" and "\\u3000", so a word may be
empty, multi-token or padded.
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from lexalign import (DataError, DictionaryPairs, ReplayClient, TranslationError,
                      VocabEmbedding, clean_dictionary, translate_wordlist)
from lexalign.dictionary import first_bad_token, single_token

SPACES = [" ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000"]
LETTERS = st.text(st.sampled_from(string.ascii_letters[:6]), min_size=1, max_size=3)
# mostly single tokens, so that lists of good words are drawn too
WORDS = st.one_of(LETTERS, LETTERS, LETTERS,
                  st.text(st.sampled_from(list(string.ascii_letters[:4]) + SPACES), max_size=4))


def reference_filter(words, results):
    """translate_wordlist's result loop before its counts were taken over the list."""
    pairs, failed, empty, multi = [], [], 0, 0
    for word, (ok, value) in zip(words, results):
        if not ok:
            failed.append(word)
            continue
        translation = value.strip()
        if not translation:
            empty += 1
        elif not single_token(translation):
            multi += 1
        else:
            pairs.append((word, translation))
    return tuple(pairs), failed, empty, multi


def reference_clean(d):
    """clean_dictionary before the batched check."""
    return tuple(pair for pair in dict.fromkeys(d.pairs)
                 if single_token(pair[0]) and single_token(pair[1]))


@settings(max_examples=400, deadline=None)
@given(st.lists(WORDS, max_size=12))
def test_first_bad_token_names_the_first_word_single_token_rejects(words):
    expected = next((w for w in words if not single_token(w)), None)
    assert first_bad_token(words) == expected
    assert first_bad_token(iter(words)) == expected
    assert (first_bad_token(words) is None) == all(map(single_token, words))


@settings(max_examples=300, deadline=None)
@given(words=st.lists(LETTERS, min_size=1, max_size=12),
       answers=st.dictionaries(LETTERS, WORDS))
def test_translate_wordlist_keeps_and_counts_as_the_per_word_loop(words, answers):
    table = {(w, "en", "uz"): t for w, t in answers.items()}
    results = []
    for word in words:
        try:
            results.append((True, ReplayClient(table).translate(word, "en", "uz")))
        except TranslationError as exc:
            results.append((False, str(exc)))
    pairs, failed, empty, multi = reference_filter(words, results)
    got, summary = translate_wordlist(ReplayClient(table), words, "en", "uz")
    assert got.pairs == pairs
    assert (summary.requested, summary.kept, summary.failed, summary.dropped_empty,
            summary.dropped_multi_token) == (len(words), len(pairs), failed, empty, multi)


@settings(max_examples=200, deadline=None)
@given(words=st.lists(WORDS, min_size=1, max_size=8))
def test_translate_wordlist_rejects_the_first_bad_input_word(words):
    bad = next((w for w in words if not single_token(w)), None)
    client = ReplayClient({(w, "en", "uz"): w for w in words})
    if bad is None:
        assert translate_wordlist(client, words, "en", "uz")[0].pairs == tuple(
            (w, w) for w in words)
    else:
        with pytest.raises(DataError) as exc:
            translate_wordlist(client, words, "en", "uz")
        assert str(exc.value) == f"word list entries must be single tokens, got {bad!r}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(WORDS, WORDS), max_size=12))
def test_clean_dictionary_keeps_what_the_per_pair_check_keeps(pairs):
    d = DictionaryPairs("en", "uz", tuple(pairs))
    cleaned = clean_dictionary(d)
    assert cleaned.pairs == reference_clean(d)
    assert (cleaned.src_lang, cleaned.tgt_lang) == ("en", "uz")


@settings(max_examples=200, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=8, unique=True))
def test_vocabulary_names_the_first_bad_word(words):
    bad = next((w for w in words if not single_token(w)), None)
    if bad is None:
        assert VocabEmbedding("xx", words, [[0.0]] * len(words)).words == tuple(words)
    else:
        with pytest.raises(DataError) as exc:
            VocabEmbedding("xx", words, [[0.0]] * len(words))
        assert str(exc.value) == f"invalid word {bad!r}: empty or contains whitespace"
