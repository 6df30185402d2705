import random
from collections import namedtuple

import pytest

from lexalign import (DataError, DictionaryFormatError, DictionaryPairs,
                      clean_dictionary, load_dictionary, merge_dictionaries,
                      save_dictionary, split_dictionary, transpose)


def d(pairs, src="en", tgt="tr"):
    return DictionaryPairs(src, tgt, tuple(pairs))


class TestClean:
    def test_drops_duplicates_and_multi_token(self):
        dirty = d([("a", "b"), ("a", "b"), ("c", "d e")])
        assert clean_dictionary(dirty).pairs == (("a", "b"),)

    def test_keeps_order_and_is_idempotent(self):
        dirty = d([("x", "1"), ("a", "b"), ("x", "1"), ("m", "n")])
        once = clean_dictionary(dirty)
        assert once.pairs == (("x", "1"), ("a", "b"), ("m", "n"))
        assert clean_dictionary(once).pairs == once.pairs

    def test_multi_token_source_dropped(self):
        assert clean_dictionary(d([("a b", "c"), ("d", "e")])).pairs == (("d", "e"),)

    def test_same_source_different_targets_kept(self):
        kept = clean_dictionary(d([("a", "x"), ("a", "y")]))
        assert kept.pairs == (("a", "x"), ("a", "y"))


class TestMerge:
    def test_concatenates_then_dedups(self):
        a = d([("a", "1"), ("b", "2")])
        b = d([("b", "2"), ("c", "3")])
        merged = merge_dictionaries(a, b)
        assert merged.pairs == (("a", "1"), ("b", "2"), ("c", "3"))

    def test_language_mismatch(self):
        with pytest.raises(DataError):
            merge_dictionaries(d([("a", "1")]), d([("a", "1")], src="en", tgt="uz"))

    def test_multi_token_survives_unless_requested(self):
        a = d([("a", "x y")])
        b = d([("b", "2")])
        assert merge_dictionaries(a, b).pairs == (("a", "x y"), ("b", "2"))
        assert merge_dictionaries(a, b, reapply_token_filter=True).pairs == (("b", "2"),)

    def test_empty_side(self):
        a = d([])
        b = d([("a", "1")])
        assert merge_dictionaries(a, b).pairs == (("a", "1"),)


class TestSplit:
    def test_partitions_by_source_word(self):
        full = d([("a", "1"), ("b", "2"), ("a", "3"), ("c", "4")])
        train, test = split_dictionary(full, test_size=1, seed=5)
        assert set(train.pairs) | set(test.pairs) == set(full.pairs)
        assert not set(s for s, _ in train.pairs) & set(s for s, _ in test.pairs)
        # a multi-translation source moves as a block
        test_sources = {s for s, _ in test.pairs}
        if "a" in test_sources:
            assert len(test.pairs) == 2

    def test_deterministic(self):
        full = d([(f"w{i}", f"t{i}") for i in range(50)])
        first = split_dictionary(full, test_size=10, seed=123)
        second = split_dictionary(full, test_size=10, seed=123)
        assert first[0].pairs == second[0].pairs
        assert first[1].pairs == second[1].pairs

    def test_matches_stdlib_sampler(self):
        full = d([(f"w{i}", f"t{i}") for i in range(20)])
        _, test = split_dictionary(full, test_size=4, seed=99)
        expected = set(random.Random(99).sample([f"w{i}" for i in range(20)], 4))
        assert {s for s, _ in test.pairs} == expected

    def test_sizes(self):
        full = d([(f"w{i}", f"t{i}") for i in range(30)])
        train, test = split_dictionary(full, test_size=7, seed=1)
        assert len(test) == 7
        assert len(train) == 23

    def test_test_size_bounds(self):
        full = d([("a", "1"), ("b", "2")])
        with pytest.raises(DataError):
            split_dictionary(full, test_size=2, seed=0)
        with pytest.raises(DataError):
            split_dictionary(full, test_size=0, seed=0)


class TestIO:
    def test_load_tabs(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\t1\nb\t2\n", encoding="utf-8")
        loaded = load_dictionary(p, "en", "tr")
        assert loaded.pairs == (("a", "1"), ("b", "2"))
        assert (loaded.src_lang, loaded.tgt_lang) == ("en", "tr")

    def test_load_spaces(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("a 1\nb 2\n", encoding="utf-8")
        assert load_dictionary(p).pairs == (("a", "1"), ("b", "2"))

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\t1\n\nb\t2\n", encoding="utf-8")
        assert len(load_dictionary(p)) == 2

    def test_bad_line_reports_number(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\t1\nbroken\nb\t2\n", encoding="utf-8")
        with pytest.raises(DictionaryFormatError) as err:
            load_dictionary(p)
        assert err.value.line == 2

    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        # "\r\n" and a lone "\r" each end one line, as the text reader counts them
        p = tmp_path / "d.tsv"
        p.write_bytes(b"a\t1\r\nb\t2\rc\t\xff\nd\t4\n")
        for on_bad_lines in ("error", "skip"):
            with pytest.raises(DictionaryFormatError) as err:
                load_dictionary(p, on_bad_lines=on_bad_lines)
            assert err.value.line == 3
            assert f"{p}: line 3: can't decode byte 0xff" in str(err.value)

    def test_a_defect_above_a_non_utf8_byte_is_reported(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_bytes(b"a\tb\nc\td\te\n\xff\tx\n")
        with pytest.raises(DictionaryFormatError, match="line 2: expected 2 columns") as err:
            load_dictionary(p)
        assert err.value.line == 2

    def test_skip_mode(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("a\t1\nbroken\nb\t2\nx\ty\tz\n", encoding="utf-8")
        loaded = load_dictionary(p, on_bad_lines="skip")
        assert loaded.pairs == (("a", "1"), ("b", "2"))

    def test_round_trip_exact(self, tmp_path):
        rng = random.Random(42)
        alphabet = "abçğıöşü宇宙ñé"
        pairs = []
        for i in range(500):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            t = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            pairs.append((f"{s}{i}", f"{t}{i}"))
        original = d(pairs)
        path = tmp_path / "d.tsv"
        save_dictionary(original, path)
        assert load_dictionary(path, "en", "tr").pairs == original.pairs

    def test_round_trip_multi_token_target(self, tmp_path):
        original = d([("a", "two words")])
        path = tmp_path / "d.tsv"
        save_dictionary(original, path)
        assert load_dictionary(path).pairs == (("a", "two words"),)


class TestContainer:
    def test_transpose_involution(self):
        full = d([("a", "1"), ("b", "2")])
        back = transpose(transpose(full))
        assert back.pairs == full.pairs
        assert (back.src_lang, back.tgt_lang) == ("en", "tr")
        assert transpose(full).pairs == (("1", "a"), ("2", "b"))

    def test_source_words_first_appearance_order(self):
        full = d([("b", "1"), ("a", "2"), ("b", "3"), ("c", "4")])
        assert full.source_words() == ["b", "a", "c"]

    @pytest.mark.parametrize("pairs", [
        [("a", "1"), ("b", "2")],
        [],
        [("a", "1"), ("b", "2", "3")],
        [("a", "1"), ("b",)],
        [("a", "1"), ()],
        [("a", "1"), 5],
        [None],
        [["a", "1"], ("b", "2")],
        ["ab", "cd"],
        [("a", "1"), "abc"],
        [("a", "1"), {"b": 0, "c": 0}],
        [("a", "1"), namedtuple("Pair", "s t")("b", "2")],
    ], ids=["tuples", "empty", "3-tuple", "1-tuple", "0-tuple", "int", "none", "list",
            "2-char-strings", "3-char-string", "dict", "namedtuple"])
    def test_pairs_become_what_unpacking_each_gives(self, pairs):
        try:
            expected = tuple((s, t) for s, t in pairs)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                DictionaryPairs("en", "tr", pairs)
            assert str(raised.value) == str(exc)
        else:
            built = DictionaryPairs("en", "tr", pairs)
            assert built.pairs == expected
            assert all(type(p) is tuple for p in built.pairs)
