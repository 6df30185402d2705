import os
import threading

import numpy as np
import pytest

from lexalign import (DataError, EmbeddingParseError, VocabEmbedding,
                      load_embeddings, normalize, save_embeddings)
from lexalign import embeddings

from conftest import make_embedding


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_basic(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 3\ncat 1.0 0.0 0.5\ndog 0.0 1.0 -0.5\n")
        emb = load_embeddings(p)
        assert emb.language == "en"
        assert emb.words == ("cat", "dog")
        assert emb.dim == 3
        np.testing.assert_allclose(emb.matrix, [[1, 0, 0.5], [0, 1, -0.5]])

    def test_vocabulary_is_not_checked_again(self, tmp_path, monkeypatch):
        # the reader checks each word and drops duplicates as it goes, so the
        # result skips the public constructor's vocabulary check
        calls = []
        post_init = VocabEmbedding.__post_init__
        monkeypatch.setattr(VocabEmbedding, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        p = write(tmp_path / "en.vec", "3 2\ncat 1 0\nCat 0 1\ncat 2 2\n")
        emb = load_embeddings(p, lowercase=True)
        assert calls == []
        assert emb.words == ("cat",) and emb.matrix.shape == (1, 2)

    def test_max_words_keeps_prefix(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 3\ncat 1 0 0\ndog 0 1 0\n")
        emb = load_embeddings(p, max_words=1)
        assert emb.words == ("cat",)

    def test_lowercase_first_wins(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 3\nCat 1 0 0\ncat 2 0 0\n")
        emb = load_embeddings(p, lowercase=True)
        assert emb.words == ("cat",)
        np.testing.assert_array_equal(emb.matrix, [[1, 0, 0]])

    def test_duplicates_without_lowercase_fold_too(self, tmp_path):
        p = write(tmp_path / "en.vec", "3 2\na 1 2\na 3 4\nb 5 6\n")
        emb = load_embeddings(p)
        assert emb.words == ("a", "b")
        np.testing.assert_array_equal(emb.matrix, [[1, 2], [5, 6]])

    def test_duplicates_do_not_consume_max_words(self, tmp_path):
        p = write(tmp_path / "en.vec", "3 1\na 1\na 2\nb 3\n")
        emb = load_embeddings(p, max_words=2)
        assert emb.words == ("a", "b")

    def test_language_override(self, tmp_path):
        p = write(tmp_path / "whatever.txt", "1 1\nx 1\n")
        assert load_embeddings(p, language="tr").language == "tr"

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na 1\n\nb 2\n")
        assert load_embeddings(p).words == ("a", "b")

    def test_header_errors(self, tmp_path):
        for text in ("nonsense\n", "2\n", "x y\n", "2 0\na 1\n"):
            p = write(tmp_path / "bad.vec", text)
            with pytest.raises(EmbeddingParseError) as err:
                load_embeddings(p)
            assert err.value.code == "header"
            assert err.value.line == 1

    def test_arity_error_carries_line(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 3\ncat 1 0 0\ndog 1 0\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert err.value.code == "arity"
        assert err.value.line == 3

    def test_value_error(self, tmp_path):
        p = write(tmp_path / "en.vec", "1 2\ncat 1.0 oops\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert err.value.code == "value"
        assert err.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "en.vec", "1 2\ncat 1.0 nan\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert err.value.code == "value"

    def test_truncated_file(self, tmp_path):
        p = write(tmp_path / "en.vec", "5 2\na 1 2\nb 3 4\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert err.value.code == "truncated"
        assert err.value.line == 4
        with pytest.raises(EmbeddingParseError):
            load_embeddings(p, max_words=3)
        # max_words explains the shortfall; folded duplicates count as rows read
        assert load_embeddings(p, max_words=2).words == ("a", "b")
        p = write(tmp_path / "en.vec", "3 1\nA 1\na 2\nb 3\n")
        assert load_embeddings(p, lowercase=True).words == ("a", "b")

    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        # past the text reader's first decoded block, and on the header line
        rows = "".join(f"w{i} 0.5\n" for i in range(2000)).encode()
        for data, line in ((b"2001 1\n" + rows + b"caf\xe9 1\n", 2002), (b"1 \xff1\n", 1)):
            p = tmp_path / "en.vec"
            p.write_bytes(data)
            with pytest.raises(EmbeddingParseError) as err:
                load_embeddings(p)
            assert (err.value.code, err.value.line) == ("encoding", line)
            assert f"{p}: line {line}: can't decode byte 0x" in str(err.value)

    @pytest.mark.parametrize("data, code, line", [
        (b"3 2\na 1 2\nb 1 2 3\n\xff 1 2\n", "arity", 3),
        (b"3 2\na 1 x\nb 1 2\n\xff 1 2\n", "value", 2),
        (b"1 2\na 1 2\nb 1 2\n\xff 1 2\n", "header", 3),
        # the decoder has handed out lines of the first reading already
        (b"2002 1\n" + "".join(f"w{i} 0.5\n" for i in range(2000)).encode()
         + b"x 1 2\ncaf\xe9 1\n", "arity", 2002),
    ], ids=["arity", "value", "header", "past-the-first-block"])
    def test_a_defect_above_a_non_utf8_byte_is_reported(self, tmp_path, data, code, line):
        p = tmp_path / "en.vec"
        p.write_bytes(data)
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert (err.value.code, err.value.line) == (code, line)

    def test_non_utf8_byte_in_a_pipe_names_the_file(self, tmp_path):
        # a pipe cannot be read again to find the line
        p = tmp_path / "en.vec"
        os.mkfifo(p)
        writer = threading.Thread(target=p.write_bytes, args=(b"1 1\n\xff 1\n",))
        writer.start()
        try:
            with pytest.raises(DataError) as err:
                load_embeddings(p)
        finally:
            writer.join()
        assert not isinstance(err.value, EmbeddingParseError)
        assert str(err.value).startswith(f"{p}: can't decode byte 0xff")

    def test_empty_vocabulary(self, tmp_path):
        p = write(tmp_path / "en.vec", "0 3\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert err.value.code == "empty"


class TestSave:
    def test_round_trip_small(self, tmp_path):
        emb = VocabEmbedding("en", ("cat", "dog"), np.array([[1.25, -0.5], [0.0, 2.0]]))
        path = tmp_path / "en.vec"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.words == emb.words
        np.testing.assert_array_equal(back.matrix, emb.matrix)

    def test_round_trip_tolerance(self, tmp_path):
        rng = np.random.default_rng(11)
        emb = make_embedding("en", 200, 50, rng)
        path = tmp_path / "en.vec"
        save_embeddings(emb, path)
        back = load_embeddings(path)
        assert back.words == emb.words
        assert np.abs(back.matrix - emb.matrix).max() <= 1e-6

    def test_empty_refused(self, tmp_path):
        emb = VocabEmbedding("en", (), np.zeros((0, 3)))
        with pytest.raises(DataError):
            save_embeddings(emb, tmp_path / "en.vec")


class TestConstructor:
    def test_row_count_mismatch(self):
        with pytest.raises(DataError):
            VocabEmbedding("en", ("a",), np.zeros((2, 2)))

    def test_whitespace_word_rejected(self):
        with pytest.raises(DataError):
            VocabEmbedding("en", ("a b",), np.zeros((1, 2)))

    def test_duplicate_words_rejected(self):
        with pytest.raises(DataError):
            VocabEmbedding("en", ("a", "a"), np.zeros((2, 2)))

    def test_vector_lookup(self):
        emb = VocabEmbedding("en", ("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(emb.vector("b"), [3, 4])
        assert "a" in emb and "z" not in emb
        with pytest.raises(DataError):
            emb.vector("z")


class TestNormalize:
    def test_unit_scales_345(self):
        emb = VocabEmbedding("en", ("w",), np.array([[3.0, 4.0]]))
        out = normalize(emb, ["unit"])
        np.testing.assert_allclose(out.matrix, [[0.6, 0.8]], atol=1e-12)

    def test_center_leaves_symmetric_pair(self):
        emb = VocabEmbedding("en", ("a", "b"), np.array([[1.0, -1.0], [-1.0, 1.0]]))
        out = normalize(emb, ["center"])
        np.testing.assert_allclose(out.matrix, emb.matrix, atol=1e-15)

    def test_full_recipe_hand_example(self):
        emb = VocabEmbedding("en", ("a", "b"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        out = normalize(emb, ["unit", "center", "unit"])
        r = np.sqrt(2.0) / 2.0
        np.testing.assert_allclose(out.matrix, [[r, -r], [-r, r]], atol=1e-12)
        assert out.norm_recipe == ("unit", "center", "unit")

    def test_properties_hold(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            emb = make_embedding("en", int(rng.integers(2, 40)),
                                 int(rng.integers(2, 12)), rng)
            unit = normalize(emb, ["unit"])
            np.testing.assert_allclose(np.linalg.norm(unit.matrix, axis=1), 1.0,
                                       atol=1e-6)
            centered = normalize(emb, ["center"])
            np.testing.assert_allclose(centered.matrix.mean(axis=0), 0.0, atol=1e-6)

    def test_unit_idempotent(self):
        rng = np.random.default_rng(4)
        emb = make_embedding("en", 30, 6, rng)
        once = normalize(emb, ["unit"])
        twice = normalize(once, ["unit"])
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-12)

    def test_input_not_mutated(self):
        emb = VocabEmbedding("en", ("w",), np.array([[3.0, 4.0]]))
        before = emb.matrix.copy()
        normalize(emb, ["unit", "center"])
        np.testing.assert_array_equal(emb.matrix, before)

    def test_zero_row_raises(self):
        emb = VocabEmbedding("en", ("a", "b"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DataError, match="'a'"):
            normalize(emb, ["unit"])

    def test_unknown_step(self):
        emb = VocabEmbedding("en", ("a",), np.ones((1, 2)))
        with pytest.raises(ValueError):
            normalize(emb, ["scale"])


class TestHeaderCount:
    def test_rows_past_the_header_count_rejected(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na 1\nb 2\nc 3\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert (err.value.code, err.value.line) == ("header", 4)

    def test_folded_rows_count_against_the_header(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na 1\nA 2\nb 3\nc 4\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p, lowercase=True)
        assert (err.value.code, err.value.line) == ("header", 4)

    def test_max_words_stops_before_the_excess(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na 1\nb 2\nc 3\n")
        assert load_embeddings(p, max_words=2).words == ("a", "b")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p, max_words=3)
        assert err.value.code == "header"

    def test_trailing_blank_lines_are_not_rows(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na 1\nb 2\n\n \n")
        assert load_embeddings(p).words == ("a", "b")


class TestChunkedParse:
    def test_float_only_tokens_fall_back_row_by_row(self, tmp_path):
        # np.loadtxt refuses these, float() takes them
        p = write(tmp_path / "en.vec", "2 2\na 1_0 2\nb ١ 3\n")
        np.testing.assert_array_equal(load_embeddings(p).matrix, [[10, 2], [1, 3]])

    def test_loadtxt_only_whitespace_rejected(self, tmp_path):
        # loadtxt strips \x1c around a field, numpy's float cast does not
        p = write(tmp_path / "en.vec", "2 2\na 1 2\nb 3\x1c 4\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert (err.value.code, err.value.line) == ("value", 3)

    def test_chunks_join_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "_READ_ROWS", 3)
        rng = np.random.default_rng(7)
        emb = make_embedding("en", 11, 4, rng)
        save_embeddings(emb, tmp_path / "en.vec")
        back = load_embeddings(tmp_path / "en.vec")
        assert back.words == emb.words
        np.testing.assert_allclose(back.matrix, emb.matrix, atol=1e-6)

    def test_earlier_non_finite_beats_later_excess_row(self, tmp_path):
        p = write(tmp_path / "en.vec", "2 1\na inf\nb 2\nc 3\n")
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert (err.value.code, err.value.line) == ("value", 2)

    def test_earlier_value_error_beats_later_bad_utf8(self, tmp_path):
        # the bad bytes lie past the text reader's first decoded block
        rows = [f"w{i} 0.5 0.25" for i in range(1000)]
        rows[1] = "w1 0.5 oops"
        data = ("1001 2\n" + "\n".join(rows) + "\n").encode() + b"\xff 1 2\n"
        p = tmp_path / "en.vec"
        p.write_bytes(data)
        with pytest.raises(EmbeddingParseError) as err:
            load_embeddings(p)
        assert (err.value.code, err.value.line) == ("value", 3)


class TestFormattedSave:
    def test_ties_round_half_to_even_like_percent_f(self, tmp_path):
        values = [2.0 ** -7, -2.0 ** -7, 0.5, 1.5, 2.5, -0.0, 1e-9, -1e-9, 0.0000005]
        emb = VocabEmbedding("en", ("a",), np.array([values]))
        for decimals in (0, 1, 6, 7):
            save_embeddings(emb, tmp_path / "en.vec", decimals=decimals)
            expected = "1 9\na " + " ".join(f"%.{decimals}f" % v for v in values) + "\n"
            assert (tmp_path / "en.vec").read_bytes() == expected.encode()

    def test_non_finite_and_huge_rows_use_python_format(self, tmp_path):
        matrix = np.array([[np.nan, 1.0], [-np.inf, 2.0], [1e300, -3.5], [0.25, 0.125]])
        emb = VocabEmbedding("en", ("a", "b", "c", "d"), matrix)
        save_embeddings(emb, tmp_path / "en.vec", decimals=2)
        expected = "4 2\n" + "".join(
            f"{w} {'%.2f' % x} {'%.2f' % y}\n" for w, (x, y) in zip(emb.words, matrix))
        assert (tmp_path / "en.vec").read_bytes() == expected.encode()

    def test_utf8_words(self, tmp_path):
        emb = VocabEmbedding("tr", ("çay", "ağaç"), np.array([[1.0], [-2.0]]))
        save_embeddings(emb, tmp_path / "tr.vec", decimals=1)
        assert (tmp_path / "tr.vec").read_text(encoding="utf-8") == "2 1\nçay 1.0\nağaç -2.0\n"
