"""Property test: each reader of an input file, given a valid file with bytes
flipped, inserted or cut off, either loads it or raises a DataError whose
message starts with the file; a LocatedError's line lies within the file."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexalign import DataError, LocatedError, load_cache, load_dictionary, load_embeddings, \
    load_maps

# one valid file per reader; non-ASCII words give the flips multi-byte
# characters to break
VALID = {
    "tr.vec": ("3 2\nçay 0.5 -1\nğul 1e-3 2\nsu 3 4\n".encode(), load_embeddings),
    "tr-en.tsv": ("çay\ttea\nğul\trose\nsu water\n".encode(), load_dictionary),
    "tr.map": (b"orthogonal 2 2\n0 1\n1 0\n\nunconstrained 2 3\n1 2 3\n4 5 6\n", load_maps),
    "cache.tsv": ("çay\ttr\ten\ttea\ntea\ten\ttr\tçay\n".encode(), load_cache),
}


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "flip" and pos < len(data):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            data[pos:pos] = bytes([draw(st.integers(0, 255))])
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


def line_count(data: bytes) -> int:
    """The lines of data as the readers count them: text mode, where "\\r\\n"
    and a lone "\\r" each end one line."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    return len(text.readlines())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(VALID)), data=st.data())
def test_a_corrupted_file_loads_or_is_named_in_a_data_error(tmp_path, name, data):
    valid, reader = VALID[name]
    content = data.draw(corrupted(valid))
    path = tmp_path / name
    path.write_bytes(content)
    try:
        reader(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        if isinstance(exc, LocatedError):
            # one past the last line is where rows missing from a vector
            # file would start
            assert 1 <= exc.line <= line_count(content) + 1, (str(exc), content)
