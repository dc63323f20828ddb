"""The UTF-8 rule every text input is read by: titles.read_utf8 and its fault."""

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoaxlens import titles

_VALID = [b"a", b" ", "é".encode(), "€".encode(), "\U0001f600".encode()]
_LINE_ENDS = [b"\n", b"\r\n", b"\r"]
# A stray continuation byte, a sequence cut off, a byte that never starts one.
_INVALID = [b"\x80", b"\xe2\x82", b"\xff"]


def _read(data: bytes, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(data)
        return path, read(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_VALID + _LINE_ENDS)).map(b"".join))
@example(b"a\r\nb\rc\n\r\r\n")
def test_read_utf8_reads_as_read_text(data):
    """Line ends read as text mode reads them: \\r\\n and a lone \\r as \\n."""
    _, text = _read(data, titles.read_utf8)
    assert text == _read(data, lambda path: path.read_text(encoding="utf-8"))[1]


def _first_bad_line(data: bytes) -> int:
    for lineno, line in enumerate(data.split(b"\n"), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    raise AssertionError("every line decodes")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_VALID + _LINE_ENDS), max_size=12),
    st.sampled_from(_INVALID),
    # No continuation byte after the bad bytes, which could complete a cut-off sequence.
    st.lists(st.sampled_from(_VALID + _LINE_ENDS + [b"\xff"]), max_size=12),
)
@example([b"a\r", b"\r\n", b"\r"], b"\xe2\x82", [b"\n"])
def test_read_utf8_names_the_line_of_invalid_bytes(before, bad, after):
    """The fault names the first line, counted in \\n bytes alone, that does not decode."""
    data = b"".join(before) + bad + b"".join(after)

    def read(path):
        with pytest.raises(titles.MalformedRecord) as err:
            titles.read_utf8(path)
        return err.value

    path, fault = _read(data, read)
    lineno = _first_bad_line(data)
    assert fault.lineno == lineno
    assert str(fault).startswith(f"{path}:{lineno}: not valid UTF-8 (")


def test_malformed_record_survives_pickling():
    """A forked worker sends a fault back pickled; it keeps its message and line."""
    fault = titles.MalformedRecord(Path("out/cohorts.csv"), 7, "expected 3 fields")
    copy = pickle.loads(pickle.dumps(fault, pickle.HIGHEST_PROTOCOL))
    assert type(copy) is titles.MalformedRecord
    assert str(copy) == str(fault) == "out/cohorts.csv:7: expected 3 fields"
    assert copy.lineno == 7
