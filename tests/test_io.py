import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import CapacityError, Word, WordSet, enumerate_A


def test_text_round_trip():
    a5 = enumerate_A(5)
    buf = io.StringIO()
    a5.write_text(buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 8
    assert WordSet.read_text(io.StringIO(text)) == a5


def test_text_canonical_first_line():
    # ascending packed value, LSB-first: 11010 packs to 11, the minimum
    buf = io.StringIO()
    enumerate_A(5).write_text(buf)
    assert buf.getvalue().splitlines()[0] == "11010"


def test_binary_round_trip():
    for n in (1, 4, 6, 8):
        ws = enumerate_A(n)
        buf = io.BytesIO()
        ws.write_binary(buf)
        buf.seek(0)
        assert WordSet.read_binary(buf) == ws


def test_binary_header_layout():
    buf = io.BytesIO()
    enumerate_A(4).write_binary(buf)
    data = buf.getvalue()
    assert data[:4] == b"RFW1"
    assert data[4] == 1                    # format version
    assert data[5] == 3                    # word length f_4
    assert int.from_bytes(data[6:10], "little") == 3
    assert len(data) == 10 + 3 * 8


def test_binary_rejects_bad_magic():
    with pytest.raises(ValueError):
        WordSet.read_binary(io.BytesIO(b"XXXX" + bytes(6)))


def test_binary_rejects_truncation():
    buf = io.BytesIO()
    enumerate_A(5).write_binary(buf)
    data = buf.getvalue()[:-8]
    with pytest.raises(ValueError):
        WordSet.read_binary(io.BytesIO(data))


def _binary_file(length, words, extra=b""):
    header = struct.pack("<4sBBI", b"RFW1", 1, length, len(words))
    return io.BytesIO(header + struct.pack(f"<{len(words)}Q", *words) + extra)


def test_binary_rejects_a_count_past_the_end_of_a_file(tmp_path):
    # 2^32 - 1 words claimed, 3 bytes there: a buffered read of all 34 GB they
    # would take allocates its buffer first, so the file's size is checked first.
    path = tmp_path / "short.bin"
    path.write_bytes(struct.pack("<4sBBI", b"RFW1", 1, 5, 2**32 - 1) + bytes(3))
    with open(path, "rb") as fh, pytest.raises(ValueError, match="truncated word data"):
        WordSet.read_binary(fh)


class Unseekable(io.BytesIO):
    def seekable(self):
        return False


def test_binary_reads_an_unseekable_stream_for_its_words():
    data = _binary_file(3, [0, 5, 7]).getvalue()
    assert WordSet.read_binary(Unseekable(data)) == WordSet.from_packed(3, [0, 5, 7])
    with pytest.raises(ValueError, match="truncated word data"):
        WordSet.read_binary(Unseekable(data[:-1]))


def test_binary_accepts_valid_hand_built_file():
    ws = WordSet.read_binary(_binary_file(3, [0, 5, 7]))
    assert [str(w) for w in ws] == ["000", "101", "111"]


@pytest.mark.parametrize("data", [b"", b"RFW1", b"RFW1" + bytes(5)])
def test_binary_rejects_short_header(data):
    with pytest.raises(ValueError, match="truncated header"):
        WordSet.read_binary(io.BytesIO(data))


def test_binary_rejects_bits_above_length():
    with pytest.raises(ValueError, match="bits above"):
        WordSet.read_binary(_binary_file(3, [1, 8]))


def test_binary_rejects_trailing_bytes():
    with pytest.raises(ValueError, match="trailing"):
        WordSet.read_binary(_binary_file(3, [1, 2], extra=b"\x00"))


@pytest.mark.parametrize("words", [[2, 1], [1, 1]])
def test_binary_rejects_non_increasing_words(words):
    with pytest.raises(ValueError, match="strictly increasing"):
        WordSet.read_binary(_binary_file(3, words))


def test_binary_reports_high_bits_before_order():
    with pytest.raises(ValueError, match="bits above"):
        WordSet.read_binary(_binary_file(3, [8, 1]))


def test_binary_reads_an_empty_set():
    ws = WordSet.read_binary(_binary_file(5, []))
    assert ws == WordSet(5) and len(ws) == 0


def test_binary_read_is_read_only():
    for words in ([], [0, 5, 7]):
        assert not WordSet.read_binary(_binary_file(3, words)).packed.flags.writeable


def test_binary_write_is_header_then_little_endian_words():
    ws = enumerate_A(7)
    buf = io.BytesIO()
    ws.write_binary(buf)
    header = struct.pack("<4sBBI", b"RFW1", 1, ws.length, len(ws))
    assert buf.getvalue() == header + ws.packed.astype("<u8").tobytes()


def test_binary_rejects_overlong_words():
    with pytest.raises(ValueError):
        WordSet.read_binary(_binary_file(65, [1]))


@pytest.mark.parametrize("words", [[], [1]])
@pytest.mark.parametrize("length", [65, 255])
def test_binary_header_word_length_above_64_is_a_capacity_error(length, words):
    with pytest.raises(CapacityError, match=f"word length {length} outside"):
        WordSet.read_binary(_binary_file(length, words))


def test_exports_are_byte_identical_across_runs():
    first, second = io.BytesIO(), io.BytesIO()
    enumerate_A(7).write_binary(first)
    enumerate_A(7).write_binary(second)
    assert first.getvalue() == second.getvalue()


# sha256 of the exports of A_7 and A_8 as first released; any change to the
# canonical order or the file formats shows here.
PINNED_EXPORTS = {
    (7, "binary"): "e08763f53ddd50fdbd6602820e6375d2bdc17d2f2cf2306cd16bca5d3e9b726d",
    (7, "text"): "c3bc05d8d963f6b145bdce075ec0d4a75bc2771757e0b0872693bf2b51d7d2a1",
    (8, "binary"): "76d6b68a8538fed34bb89a574355bec35758162e76413bcfa16d4e59e5c8e976",
    (8, "text"): "d9d3f710bba86afcceddf1077ad27b55b7288c02f92991ff48c6a4173ca36907",
}


@pytest.mark.parametrize("n,fmt", sorted(PINNED_EXPORTS))
def test_exports_match_pinned_digests(n, fmt):
    if fmt == "binary":
        buf = io.BytesIO()
        enumerate_A(n).write_binary(buf)
        data = buf.getvalue()
    else:
        buf = io.StringIO()
        enumerate_A(n).write_text(buf)
        data = buf.getvalue().encode("ascii")
    assert hashlib.sha256(data).hexdigest() == PINNED_EXPORTS[n, fmt]


# --- vectorized text IO against the per-Word path it replaced -------------


def write_text_reference(ws):
    return "".join(w.render() + "\n" for w in ws)


def read_text_reference(fh, length=None):
    words = [Word.parse(line.strip()) for line in fh if line.strip()]
    if length is None:
        if not words:
            raise ValueError("cannot infer word length from an empty text file")
        length = words[0].length
    return WordSet(length, words)


def outcome(read, text, length):
    try:
        ws = read(io.StringIO(text), length)
    except ValueError as exc:  # CapacityError too
        return type(exc), str(exc)
    return ws.length, [int(x) for x in ws.packed]


@given(st.integers(0, 64).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=30))))
def test_write_text_matches_per_word_rendering(case):
    length, values = case
    ws = WordSet.from_packed(length, np.array(values, dtype=np.uint64))
    buf = io.StringIO()
    ws.write_text(buf)
    assert buf.getvalue() == write_text_reference(ws)


PAD = st.sampled_from(["", " ", "\t", "\r", " \x0b", "\u00a0"])
JUNK = st.text(st.sampled_from("01012 x?\u00e9\t\r"), max_size=70)


@st.composite
def text_files(draw):
    """Mostly well-formed files of one word length, with blank lines, padding,
    and now and then a line of another length, of junk or of > 64 symbols."""
    n = draw(st.integers(1, 66))
    word = st.text(st.sampled_from("01"), min_size=n, max_size=n)
    other = st.text(st.sampled_from("01"), min_size=1, max_size=70)
    odd = st.one_of(st.just(""), other, JUNK)
    core = st.integers(0, 9).flatmap(lambda roll: odd if roll == 0 else word)
    lines = draw(st.lists(st.tuples(PAD, core, PAD).map("".join), max_size=12))
    length = draw(st.one_of(st.none(), st.none(), st.just(min(n, 64)), st.integers(0, 64)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), length


@settings(max_examples=300)
@given(text_files())
def test_read_text_matches_per_word_parsing(case):
    text, length = case
    assert outcome(WordSet.read_text, text, length) == outcome(read_text_reference, text, length)


def test_read_text_rejects_impossible_length():
    for length in (-1, 65):
        with pytest.raises(CapacityError):
            WordSet.read_text(io.StringIO(""), length)


@pytest.mark.parametrize("text,error", [
    ("", ValueError), ("\n  \n", ValueError), ("01\n012\n", ValueError),
    ("0" * 65 + "\n", CapacityError), ("01\n0\u00e9\n", ValueError), ("01\n011\n", ValueError)])
def test_read_text_rejects(text, error):
    with pytest.raises(error):
        WordSet.read_text(io.StringIO(text))
    assert outcome(WordSet.read_text, text, None) == outcome(read_text_reference, text, None)
