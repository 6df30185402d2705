"""Property tests: the text embedding writer and reader against per-value
reference implementations (the straightforward loops they replace)."""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexalign import DataError, EmbeddingParseError, VocabEmbedding, embeddings, \
    load_embeddings, normalize, save_embeddings
from lexalign.embeddings import NORM_STEPS
from lexalign.pipeline import load_space

PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------- writer

def reference_bytes(emb, decimals):
    fmt = f"%.{decimals}f"
    lines = [f"{len(emb)} {emb.dim}"]
    lines += [w + " " + " ".join(fmt % v for v in row) for w, row in zip(emb.words, emb.matrix)]
    return ("\n".join(lines) + "\n").encode("utf-8")


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 1.0),
    # dyadic rationals: exact decimal ties at many precisions (2**-7 = 0.0078125)
    st.builds(lambda k, e: k * 2.0 ** e, st.integers(-2 ** 20, 2 ** 20), st.integers(-30, 5)),
    # the double nearest an intended decimal tie m.5 * 10**-d
    st.builds(lambda m, d: (m + 0.5) / 10 ** d, st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 15)),
    st.builds(lambda x, e: x * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-12, 16)),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e-320, 2.0 ** 52, 2.0 ** 53 + 2, 2.0 ** 52 - 0.5,
                     4.5e15, 1e22, 1.7976931348623157e308]),
)


@st.composite
def matrices(draw):
    dim = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    cells = draw(st.lists(values, min_size=rows * dim, max_size=rows * dim))
    return np.array(cells, dtype=np.float64).reshape(rows, dim)


@PROPERTY
@given(matrix=matrices(), decimals=st.integers(0, 20),
       block_values=st.sampled_from([1, 7, 1 << 14]))
def test_writer_bytes_equal_percent_f(tmp_path, monkeypatch, matrix, decimals, block_values):
    monkeypatch.setattr(embeddings, "_WRITE_VALUES", block_values)
    emb = VocabEmbedding("en", tuple(f"w{i}" for i in range(len(matrix))), matrix)
    path = tmp_path / "en.vec"
    save_embeddings(emb, path, decimals=decimals)
    assert path.read_bytes() == reference_bytes(emb, decimals)


# ---------------------------------------------------------------- reader

def reference_load(rows, dim, lowercase=False):
    """What the one-row-at-a-time reader returns for the body lines `rows`
    (lines 2, 3, ...): the matrix, or the (code, line) of the first defect.
    Every row's fields are counted; a row whose word folds into an earlier
    one is not parsed."""
    parsed = []
    seen = set()
    for line_no, line in enumerate(rows, start=2):
        parts = line.rstrip(" ").split(" ")
        if len(parts) != dim + 1 or parts[0].split() != [parts[0]]:
            return "arity", line_no
        word = parts[0].lower() if lowercase else parts[0]
        if word in seen:
            continue
        seen.add(word)
        try:
            vec = np.array(parts[1:], dtype=np.float64)
        except ValueError:
            return "value", line_no
        if not np.isfinite(vec).all():
            return "value", line_no
        parsed.append(vec)
    return np.array(parsed)


def decimal_text(sign, mantissa, point, exponent):
    point = min(point, len(mantissa))
    text = sign + mantissa[:point] + "." + mantissa[point:]
    return text if exponent is None else f"{text}e{exponent}"


good_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda x, k: "%.*g" % (k, x), st.floats(-1e6, 1e6), st.integers(1, 20)),
    st.builds(decimal_text, st.sampled_from(["", "-", "+"]),
              st.text("0123456789", min_size=1, max_size=30), st.integers(0, 30),
              st.none() | st.integers(-340, 250)),
    # float() takes these, np.loadtxt does not: the chunk is parsed row by row
    st.sampled_from(["1_0", "١٢", "+.5", "5.", "1E5", "-0", "\t1", "1\x0b", "1\xa0"]),
)
bad_tokens = st.sampled_from(["", "x", "1,5", "0x10", "1\x1c", "\x1f2", "nan", "inf", "-inf",
                              "1e999", "1e", "--1", "1\x00", "one", "1.2.3"])


@st.composite
def bodies(draw, min_rows=1):
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(min_rows, 12))
    rows = [" ".join([f"w{i}"] + draw(st.lists(good_tokens, min_size=dim, max_size=dim)))
            for i in range(n)]
    return dim, rows


def corrupt(draw, dim, row):
    parts = row.split(" ")
    kind = draw(st.sampled_from(["token", "extra", "missing", "word"]))
    if kind == "token":
        parts[draw(st.integers(1, dim))] = draw(bad_tokens)
    elif kind == "extra":
        parts.append(draw(good_tokens))
    elif kind == "missing":
        parts.pop()
    else:
        parts[0] = draw(st.sampled_from(["a\tb", "x y", "\x0c"]))
    return " ".join(parts)


def load_rows(path, dim, rows, lowercase=False):
    path.write_text(f"{len(rows)} {dim}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    try:
        return load_embeddings(path, lowercase=lowercase).matrix
    except EmbeddingParseError as exc:
        return exc.code, exc.line


@PROPERTY
@given(body=bodies(), read_rows=st.integers(1, 5))
def test_accepted_rows_are_bitwise_per_token_values(tmp_path, monkeypatch, body, read_rows):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    dim, rows = body
    got = load_rows(tmp_path / "en.vec", dim, rows)
    want = reference_load(rows, dim)
    assert isinstance(got, np.ndarray) and isinstance(want, np.ndarray)
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(data=st.data(), body=bodies(), read_rows=st.integers(1, 5))
def test_one_defect_reports_the_reference_error(tmp_path, monkeypatch, data, body, read_rows):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    dim, rows = body
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = corrupt(data.draw, dim, rows[i])
    want = reference_load(rows, dim)
    assert isinstance(want, tuple) and want[1] == i + 2
    assert load_rows(tmp_path / "en.vec", dim, rows) == want


@PROPERTY
@given(data=st.data(), body=bodies(min_rows=2), read_rows=st.integers(1, 5))
def test_two_defects_report_the_earlier_line(tmp_path, monkeypatch, data, body, read_rows):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    dim, rows = body
    first, second = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                              max_size=2, unique=True)))
    rows[first] = corrupt(data.draw, dim, rows[first])
    rows[second] = corrupt(data.draw, dim, rows[second])
    want = reference_load(rows, dim)
    assert want[1] == first + 2
    assert load_rows(tmp_path / "en.vec", dim, rows) == want


@PROPERTY
@given(data=st.data(), dim=st.integers(1, 4), read_rows=st.integers(1, 5),
       lowercase=st.booleans())
def test_a_defect_among_folded_rows_reports_the_reference_error(tmp_path, monkeypatch, data,
                                                                 dim, read_rows, lowercase):
    """A kept row's fields are counted when its chunk is parsed and a folded
    row's as it is read; either way the first bad line is the reference's."""
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    words = data.draw(st.lists(st.sampled_from(["a", "A", "b", "B", "c"]), min_size=2,
                               max_size=10))
    rows = [" ".join([word] + data.draw(st.lists(good_tokens, min_size=dim, max_size=dim)))
            for word in words]
    for i in data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=2,
                                unique=True)):
        rows[i] = corrupt(data.draw, dim, rows[i])
    want = reference_load(rows, dim, lowercase)
    got = load_rows(tmp_path / "en.vec", dim, rows, lowercase)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("read_rows", [1, 2, 1024])
@pytest.mark.parametrize("later", [b"c 5 6\n", b"\xff 5 6\n"], ids=["past-header", "encoding"])
def test_an_arity_defect_comes_before_a_later_defect_in_its_chunk(tmp_path, monkeypatch,
                                                                   read_rows, later):
    """A row past the header's count or a byte that is not UTF-8 below an
    arity defect, with both in one chunk of rows or not: the arity defect is
    reported, as the per-line count reported it."""
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    path = tmp_path / "en.vec"
    path.write_bytes(b"2 2\na 1 2\nb 3\n" + later)
    with pytest.raises(EmbeddingParseError) as err:
        load_embeddings(path)
    assert (err.value.code, err.value.line) == ("arity", 3)
    assert str(err.value) == f"{path}: line 3: expected 3 fields, found 2"


@pytest.mark.parametrize("lowercase", [False, True])
@pytest.mark.parametrize("read_rows", [1, 1024])
def test_a_folded_row_is_counted_as_it_is_read(tmp_path, monkeypatch, lowercase, read_rows):
    """A repeated word's row is never parsed, so its fields are counted when
    it is read: the defect is reported with the line, before a bad value on a
    later kept row."""
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    path = tmp_path / "en.vec"
    repeat = b"A" if lowercase else b"a"
    path.write_bytes(b"3 2\na 1 2\n" + repeat + b" 1 2 3\nb 1 x\n")
    with pytest.raises(EmbeddingParseError) as err:
        load_embeddings(path, lowercase=lowercase)
    assert str(err.value) == f"{path}: line 3: expected 3 fields, found 4"


@pytest.mark.parametrize("read_rows", [1, 2, 1024])
def test_defects_of_every_kind_in_one_file(tmp_path, monkeypatch, read_rows):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    rows = ["a 1 2", "b 3 4", "c 5 x", "d 7", "e\t 1 2", "f 1 2"]
    assert load_rows(tmp_path / "en.vec", 2, rows) == ("value", 4)
    rows[2] = "c 5 6"
    assert load_rows(tmp_path / "en.vec", 2, rows) == ("arity", 5)



def block_list_load(lines, max_words, lowercase):
    """The kept words and matrix as the reader assembled them before it
    parsed into one preallocated matrix: _parse_bodies per chunk of kept
    rows, then np.concatenate over the chunks."""
    words, bodies, line_nos = [], [], []
    for line_no, line in enumerate(lines, start=2):
        if max_words is not None and len(words) >= max_words:
            break
        line = line.rstrip(" ")
        if not line:
            continue
        word, _, body = line.partition(" ")
        word = word.lower() if lowercase else word
        if word not in words:
            words.append(word)
            bodies.append(body)
            line_nos.append(line_no)
    dim = bodies[0].count(" ") + 1
    step = embeddings._READ_ROWS
    return tuple(words), np.concatenate([
        embeddings._parse_bodies(bodies[i:i + step], line_nos[i:i + step], dim)
        for i in range(0, len(bodies), step)])


def write_vectors(path, lines, dim, newline_at_end, fifo):
    """Write a vector file with a header counting the non-blank lines; for
    fifo, make path a named pipe and return the thread that feeds it."""
    count = sum(1 for line in lines if line.strip(" "))
    text = f"{count} {dim}\n" + "\n".join(lines) + ("\n" if newline_at_end else "")
    if not fifo:
        path.write_text(text, encoding="utf-8")
        return None
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    return writer


@st.composite
def vocabularies(draw):
    """Rows over a few words that fold together under lowercase, some with
    trailing spaces, among blank lines."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "   "])))
            continue
        word = draw(st.sampled_from(["a", "A", "b", "B", "ab", "aB", "c"]))
        values = draw(st.lists(good_tokens, min_size=dim, max_size=dim))
        lines.append(" ".join([word] + values) + " " * draw(st.integers(0, 2)))
    if not any(line.strip() for line in lines):
        lines.append("z " + " ".join(["1"] * dim))
    return dim, lines


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@PROPERTY
@given(body=vocabularies(), lowercase=st.booleans(), max_words=st.none() | st.integers(1, 8),
       read_rows=st.integers(1, 5), newline_at_end=st.booleans(), fifo=st.booleans(),
       steps=st.lists(st.sampled_from(NORM_STEPS), max_size=3))
def test_preallocated_reader_equals_the_block_list_reader(
        tmp_path_factory, monkeypatch, body, lowercase, max_words, read_rows, newline_at_end,
        fifo, steps):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    dim, lines = body
    words, matrix = block_list_load(lines, max_words, lowercase)
    path = tmp_path_factory.mktemp("vectors") / "en.vec"

    def load(read):
        writer = write_vectors(path, lines, dim, newline_at_end, fifo)
        try:
            return read()
        finally:
            if writer is not None:
                writer.join()
                path.unlink()

    emb = load(lambda: load_embeddings(path, max_words, lowercase))
    assert emb.words == words
    assert emb.matrix.tobytes() == matrix.tobytes()
    assert emb.matrix.base is None and emb.matrix.flags.owndata
    try:
        expected = normalize(emb, steps)
    except DataError:
        with pytest.raises(DataError):
            load(lambda: load_space(path, "en", steps, max_words, lowercase))
        return
    space = load(lambda: load_space(path, "en", steps, max_words, lowercase))
    assert space.words == expected.words and space.norm_recipe == expected.norm_recipe
    assert space.matrix.tobytes() == expected.matrix.tobytes()


def test_reader_allocates_no_more_rows_than_the_file_can_hold(tmp_path, monkeypatch):
    path = tmp_path / "en.vec"
    path.write_text("1000000000000 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
    shapes = []
    empty = np.empty

    def recording_empty(shape, *args, **kwargs):
        shapes.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", recording_empty)
    with pytest.raises(EmbeddingParseError) as err:
        load_embeddings(path)
    assert (err.value.code, err.value.line) == ("truncated", 4)
    # 32 bytes, and a row of 3 values takes at least 8
    assert shapes[0] == (4, 3)


# ---------------------------------------------------------------- vocabulary

@PROPERTY
@given(words=st.lists(st.text(st.sampled_from("ab \t\n\x1c\x85\u3000\u200b"), max_size=3),
                      max_size=6, unique=True))
def test_vocabulary_check_matches_the_per_word_check(words):
    bad = [w for w in words if not (w and w.split() == [w])]
    if not bad:
        VocabEmbedding("en", words, np.zeros((len(words), 1)))
        return
    with pytest.raises(DataError, match="empty or contains whitespace") as err:
        VocabEmbedding("en", words, np.zeros((len(words), 1)))
    assert repr(bad[0]) in str(err.value)
