"""errors.read_lines against the two-pass reader it replaced.

reference_read_lines is the reader as it was before it read each file once:
a strict pass that yields lines until the decoder meets a byte that is not
UTF-8, then a surrogateescape pass over the file again to find that byte's
line. On a regular file read_lines must yield the same lines and raise the
same error, with the same message and line. Through a named pipe, which the
reference could not read twice, read_lines must do exactly what it does on a
regular file holding the same bytes.
"""

import os
import re
import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from lexalign.errors import DataError, LocatedError, read_lines

_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def reference_read_lines(path, error=LocatedError):
    done = 0
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for done, line in enumerate(fh, start=1):
                yield done, line
            return
        except UnicodeDecodeError as exc:
            message = f"can't decode byte 0x{exc.object[exc.start]:02x} as UTF-8 ({exc.reason})"
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                if _ESCAPED_BYTE.search(line):
                    raise error(message, line=line_no, path=path) from None
                if line_no > done:
                    yield line_no, line
    raise DataError(f"{os.fspath(path)}: {message}") from None


# ASCII, line ends, multi-byte characters, and sequences that are not UTF-8:
# a bad start byte, a lone continuation byte, a cut-off character, an encoded
# surrogate, an overlong form and a cut-off four-byte character
PIECES = [b"a", b"b", b" ", b"1", b"\n", b"\r", b"\r\n", "ç".encode(), "ж".encode(),
          "中".encode(), "𝔸".encode(), b"\xff", b"\x80", b"\xe4\xb8", b"\xed\xa0\x80",
          b"\xc0\x80", b"\xf0\x90\x80"]


@st.composite
def contents(draw) -> bytes:
    """Bytes from PIECES, sometimes after enough good lines (over 8 KB) that
    a bad byte lies past the decoder's first block."""
    good = draw(st.sampled_from([0, 0, 1500, 2500]))
    prefix = b"".join(b"w%d 0.5\n" % i for i in range(good))
    return prefix + b"".join(draw(st.lists(st.sampled_from(PIECES), max_size=40)))


def outcome(reader, path):
    """The lines reader yields from path, and the error it ends with: its
    type, message and line, or None."""
    lines = []
    try:
        for item in reader(path):
            lines.append(item)
    except DataError as exc:
        return lines, (type(exc), str(exc), getattr(exc, "line", None))
    return lines, None


PROPERTY = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@PROPERTY
@given(data=contents())
def test_read_lines_matches_the_two_pass_reader(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    assert outcome(read_lines, path) == outcome(reference_read_lines, path)


def _feed(path, data):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:  # the reader stopped at an error and closed its end
        pass


@settings(PROPERTY, max_examples=100)
@given(data=contents())
def test_a_pipe_reads_as_a_regular_file(tmp_path, data):
    regular, pipe = tmp_path / "input.txt", tmp_path / "input.fifo"
    regular.write_bytes(data)
    os.mkfifo(pipe)
    writer = threading.Thread(target=_feed, args=(pipe, data))
    writer.start()
    try:
        lines, error = outcome(read_lines, pipe)
    finally:
        writer.join()
        os.unlink(pipe)
    expected_lines, expected_error = outcome(read_lines, regular)
    assert lines == expected_lines
    if expected_error is None:
        assert error is None
    else:
        kind, message, line = expected_error
        assert error == (kind, message.replace(str(regular), str(pipe), 1), line)
