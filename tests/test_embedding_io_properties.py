"""Property tests: the text embedding writer and reader against per-value
reference implementations (the straightforward loops they replace)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexalign import EmbeddingParseError, VocabEmbedding, embeddings, load_embeddings, \
    save_embeddings

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

def reference_load(rows, dim):
    """What the one-row-at-a-time reader returns for the body lines `rows`
    (lines 2, 3, ...): the matrix, or the (code, line) of the first defect."""
    parsed = []
    for line_no, line in enumerate(rows, start=2):
        parts = line.rstrip(" ").split(" ")
        if len(parts) != dim + 1 or parts[0].split() != [parts[0]]:
            return "arity", line_no
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


def load_rows(path, dim, rows):
    path.write_text(f"{len(rows)} {dim}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    try:
        return load_embeddings(path).matrix
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


@pytest.mark.parametrize("read_rows", [1, 2, 1024])
def test_defects_of_every_kind_in_one_file(tmp_path, monkeypatch, read_rows):
    monkeypatch.setattr(embeddings, "_READ_ROWS", read_rows)
    rows = ["a 1 2", "b 3 4", "c 5 x", "d 7", "e\t 1 2", "f 1 2"]
    assert load_rows(tmp_path / "en.vec", 2, rows) == ("value", 4)
    rows[2] = "c 5 6"
    assert load_rows(tmp_path / "en.vec", 2, rows) == ("arity", 5)
