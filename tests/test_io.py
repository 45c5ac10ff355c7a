import hashlib
import io
import struct

import pytest

from rfw import WordSet, enumerate_A


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


def test_binary_rejects_overlong_words():
    with pytest.raises(ValueError):
        WordSet.read_binary(_binary_file(65, [1]))


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
