"""Immutable, canonically ordered sets of equal-length packed words.

A WordSet holds its members as a sorted, deduplicated numpy uint64 array.
The canonical order is ascending packed value, which is total and
deterministic, so two runs produce byte-identical exports.  Bulk operations
(products, slices, unions) work directly on the packed arrays, and every
deduplication goes through `_distinct`, which takes one of two paths.  When
the words have at most `_TABLE_BITS` symbols and the input holds at least one
byte per value they could take, it marks them in a direct-address table that
reads off in ascending order; otherwise it sorts them with `_dedup`.  Neither
path hashes.
"""

from __future__ import annotations

import struct
from functools import cache
from typing import IO, Iterable, Iterator

import numpy as np

from .words import WORD_CAPACITY, CapacityError, Word, _check_length

# Widest words `_distinct` marks in a table: 2^24 one-byte flags, 16 MB.
_TABLE_BITS = 24

# Words (or `_suffix_counts` pairs) per block of windows marked in the table: 2^17, 1 MB.
_BLOCK = 1 << 17

# Most sorted runs in a chunk that `_distinct` sorts stable, merging the runs:
# on 5.8M words that beats quicksort 1.8x at two runs and loses from eight on.
_FEW_RUNS = 4

# Words rendered per block by `write_text`; a block unpacks to 64 bytes a word.
_TEXT_BLOCK = 1 << 16

_MAGIC = b"RFW1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBI")


def _dedup(owned: np.ndarray, kind: str = "quicksort") -> np.ndarray:
    """Sort `owned` in place, then keep each entry that differs from its left neighbour.

    The sort path of `_distinct`, its only caller.  It never hashes: numpy
    >= 2.3 gives `np.unique` a hash table that is 35-90x slower than sorting
    on packed words.  `kind="stable"` suits input made of a few sorted runs,
    which it merges in linear time.
    """
    owned.sort(kind=kind)
    keep = np.empty(len(owned), dtype=bool)
    keep[:1] = True
    np.not_equal(owned[1:], owned[:-1], out=keep[1:])
    out = owned if keep.all() else owned[keep]
    out.flags.writeable = False
    return out


def _distinct(chunks: Iterable[np.ndarray], width: int) -> np.ndarray:
    """Sorted distinct values of uint64 arrays whose entries are all below 2^width.

    The one deduplication kernel behind every WordSet; it owns the chunks
    and may sort them in place, but only reads those that already strictly
    increase, such as a set's members.  Once `width <= _TABLE_BITS` and the
    chunks hold at least 2^width bytes, each value is marked in a table of
    2^width flags, whose nonzero positions are the answer in ascending
    order.  With fewer bytes, clearing and scanning the table costs more
    than sorting them.  Otherwise each chunk is deduplicated by `_dedup`,
    unless it already strictly increases as a product's members do, and
    merged into the result so far by a stable sort of their concatenation.
    The count of steps where a chunk fails to rise picks its sort: at most
    `_FEW_RUNS` sorted runs, such as the products in one buffer that make
    A_n, are merged by a stable sort; others are quicksorted.  A merge of an
    r-word result and a c-word chunk holds both, their concatenation, the
    sort's scratch (the shorter run) and then the compacted copy, up to
    3(r + c) words: F_9's 44 windows peak near 0.9 GB for a 241 MB result.
    """
    chunks = iter(chunks)
    head, size = [], 0
    if width <= _TABLE_BITS:
        for chunk in chunks:
            head.append(chunk)
            size += chunk.nbytes
            if size >= 1 << width:
                break
    if size >= 1 << width:
        seen = np.zeros(1 << width, dtype=bool)
        for part in (head, chunks):
            for chunk in part:
                seen[chunk.view(np.int64)] = True  # values below 2^24 index as they are
                del chunk  # free it before the next chunk is built
            head.clear()
        out = np.flatnonzero(seen).view(np.uint64)
        out.flags.writeable = False
        return out
    out = np.empty(0, dtype=np.uint64)
    for part in (head, chunks):
        for chunk in part:
            falls = np.count_nonzero(chunk[1:] <= chunk[:-1])  # k rising runs fall k - 1 times
            if falls:
                chunk = _dedup(chunk, kind="stable" if falls < _FEW_RUNS else "quicksort")
            out = _dedup(np.concatenate([out, chunk]), kind="stable") if len(out) else chunk
            del chunk  # merged: free it before the next chunk is built
    out.flags.writeable = False
    return out


def _member(canonical: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Which uint64 `words` lie in `canonical`, a strictly increasing uint64 array.

    The one membership kernel: a binary search per word, clamped to the last
    entry.  Fast on sorted or short queries; on millions of unsorted ones a sort wins.
    """
    if len(canonical) == 0:
        return np.zeros(np.shape(words), dtype=bool)
    return canonical[np.minimum(np.searchsorted(canonical, words), len(canonical) - 1)] == words


def _suffix_counts(canonical: np.ndarray, length: int) -> np.ndarray:
    """Distinct length-j suffixes of `canonical`'s `length`-symbol words, j = 0..length.

    Sorted words sort by their last symbols, the high bits, so each pair of
    neighbours adds one suffix at every length past its highest differing bit,
    found by `frexp` of the xor's two 32-bit halves, each exact as a float.
    Pairs are read `_BLOCK` at a time; j = 0 counts 1 for a non-empty set, as `slices` does.
    """
    past = np.zeros(length + 1, dtype=np.int64)
    for lo in range(0, len(canonical) - 1, _BLOCK):
        block = canonical[lo:lo + _BLOCK + 1]
        diff = block[1:] ^ block[:-1]
        half = np.empty(len(diff))
        top, low = np.empty_like(diff, np.int32), np.empty_like(diff, np.int32)
        np.frexp(np.bitwise_and(diff, np.uint64(0xFFFFFFFF << 32), out=half, casting="unsafe"),
                 out=(half, top))
        np.frexp(np.bitwise_and(diff, np.uint64(0xFFFFFFFF), out=half, casting="unsafe"),
                 out=(half, low))
        np.maximum(top, low, out=top)  # bit lengths of the xors
        del diff, half, low  # bincount copies `top` to intp
        past += np.bincount(np.subtract(length + 1, top, out=top), minlength=length + 1)
    return np.cumsum(past) + min(len(canonical), 1)


def _check_fits(packed: np.ndarray, length: int) -> None:
    if length < WORD_CAPACITY and len(packed) and int(packed.max()) >> length:
        raise ValueError(f"a word has bits above its length {length}")


def slice_packed(packed: np.ndarray, a: int, b: int) -> np.ndarray:
    """Packed values of w[a,b] for every w; not deduplicated."""
    out = packed >> np.uint64(a - 1)
    out &= np.uint64((1 << (b - a + 1)) - 1)
    return out


def _windows(packed: np.ndarray, starts: range, width: int) -> Iterator[np.ndarray]:
    """w[a, a+width-1] for every start a and every packed word w, as chunks for `_distinct`.

    Where `_distinct` marks them in its table (by its own rule: width <=
    `_TABLE_BITS` and 2^width bytes in all), the words are read a block of
    `_BLOCK` at a time, every start before the next block, so a block is
    read from cache.  Otherwise each start gives one chunk of all the words,
    since every chunk the sort path takes costs it a merge.
    """
    table = width <= _TABLE_BITS and 8 * len(packed) * len(starts) >= 1 << width
    step = _BLOCK if table else max(len(packed), 1)
    for lo in range(0, len(packed), step):
        block = packed[lo:lo + step]
        for a in starts:
            yield slice_packed(block, a, a + width - 1)


@cache
def _rev16() -> np.ndarray:
    """The bit reversal of every 16-bit value: 128 KB, built by the first reversal."""
    rev8 = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint16)
    return np.bitwise_or.outer(rev8, rev8 << 8).ravel()  # index hi * 256 + lo


def reverse_packed(packed: np.ndarray, length: int) -> np.ndarray:
    """Reverse every word in a packed array; not deduplicated."""
    if length == 0:
        return packed.copy()
    as_u16 = np.ascontiguousarray(packed).view(np.uint16).reshape(-1, 4)
    # Indexing, not `np.take`: take would copy the uint16 indices to intp first.
    rev = _rev16()[as_u16[:, ::-1]].view(np.uint64).ravel()
    rev >>= np.uint64(WORD_CAPACITY - length)
    return rev


def _union_of_products(pairs: list[tuple["WordSet", "WordSet"]]) -> "WordSet":
    """The set of every uv with u from U and v from V, over the pairs (U, V).

    Each outer product is written into one buffer.  uv packs as u | v << len(u)
    with u < 2^len(u), so row v is already ascending and the rows follow v's
    order: each pair's block strictly increases, and one pair is canonical
    as it stands.  The pairs must give words of one length.
    """
    u, v = pairs[0]
    length = u.length + v.length
    if length > WORD_CAPACITY:
        raise CapacityError(f"product words of {u.length} + {v.length} symbols exceed capacity")
    out = np.empty(sum(len(u) * len(v) for u, v in pairs), dtype=np.uint64)
    start = 0
    for u, v in pairs:
        block = out[start:start + len(u) * len(v)].reshape(len(v), len(u))
        np.bitwise_or.outer(v._packed << np.uint64(u.length), u._packed, out=block)
        start += block.size
    if len(pairs) > 1:
        out = _distinct([out], length)
    return WordSet.from_packed(length, out, canonical=True)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Packed values of the rows of a 2-D array of 0s and 1s, one word a row.

    Column j holds the symbol at position j + 1; rows hold at most 64.
    """
    as_bytes = np.zeros((len(bits), 8), dtype=np.uint8)
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    as_bytes[:, :packed_bytes.shape[1]] = packed_bytes
    return as_bytes.view("<u8").ravel()


def render_packed(packed: np.ndarray, length: int) -> str:
    """The ASCII form of `length`-symbol packed words, one a line, each ending in a newline."""
    as_bytes = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    rows = np.full((len(bits), length + 1), ord("\n"), dtype=np.uint8)
    np.add(bits[:, :length], ord("0"), out=rows[:, :-1])
    return rows.tobytes().decode("ascii")


class WordSet:
    """Deduplicated collection of equal-length words in canonical order."""

    __slots__ = ("length", "_packed")

    def __init__(self, length: int, words: Iterable[Word] = ()) -> None:
        _check_length(length)
        packed = []
        for w in words:
            if w.length != length:
                raise ValueError(f"word of length {w.length} in set of length {length}")
            packed.append(w.bits)
        self.length = length
        self._packed = _distinct([np.array(packed, dtype=np.uint64)], length)

    @classmethod
    def from_packed(cls, length: int, packed: np.ndarray, *, canonical: bool = False) -> "WordSet":
        """A set of `length`-symbol words from their packed values.

        `canonical=True` trusts `packed` to be strictly increasing words that
        fit `length`; otherwise they are checked to fit, then deduplicated.
        """
        _check_length(length)
        self = cls.__new__(cls)
        self.length = length
        if canonical:
            arr = np.asarray(packed, dtype=np.uint64)
            arr.flags.writeable = False
            self._packed = arr
        else:
            arr = np.array(packed, dtype=np.uint64)
            _check_fits(arr, length)
            self._packed = _distinct([arr], length)
        return self

    @property
    def packed(self) -> np.ndarray:
        return self._packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Word]:
        for bits in self._packed:
            yield Word(int(bits), self.length)

    def __contains__(self, w: Word) -> bool:
        return w.length == self.length and bool(_member(self._packed, np.uint64(w.bits)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.length == other.length and np.array_equal(self._packed, other._packed)

    def __repr__(self) -> str:
        return f"WordSet(len={self.length}, size={len(self)})"

    def union(self, other: "WordSet") -> "WordSet":
        if self.length != other.length:
            raise ValueError("union of sets with different word lengths")
        return WordSet.from_packed(self.length, _distinct([self._packed, other._packed],
                                                          self.length), canonical=True)

    def intersection(self, other: "WordSet") -> "WordSet":
        if self.length != other.length:
            raise ValueError("intersection of sets with different word lengths")
        return WordSet.from_packed(self.length, self._packed[_member(other._packed, self._packed)],
                                   canonical=True)

    def issubset(self, other: "WordSet") -> bool:
        if self.length != other.length:
            return len(self) == 0
        return bool(_member(other._packed, self._packed).all())

    def product(self, other: "WordSet") -> "WordSet":
        """Set of all concatenations uv with u from self, v from other.

        Canonical without a sort (see `_union_of_products`); two canonical
        operands give no duplicates, since the split point is fixed.
        """
        return _union_of_products([(self, other)])

    def slices(self, a: int, b: int) -> "WordSet":
        """Distinct sub-words w[a,b] over all members."""
        if not (1 <= a <= b + 1 <= self.length + 1):
            raise IndexError(f"slice [{a}, {b}] outside word length {self.length}")
        if a == b + 1:
            # Convention: the empty slice of a nonempty set is {empty word}.
            n = min(len(self._packed), 1)
            return WordSet.from_packed(0, np.zeros(n, dtype=np.uint64), canonical=True)
        width = b - a + 1
        return WordSet.from_packed(width, _distinct(_windows(self._packed, range(a, a + 1), width),
                                                    width), canonical=True)

    def reverse(self) -> "WordSet":
        rev = reverse_packed(self._packed, self.length)
        return WordSet.from_packed(self.length, _distinct([rev], self.length), canonical=True)

    # --- serialization ------------------------------------------------

    def write_text(self, fh: IO[str]) -> None:
        """One ASCII word per line, canonical order, trailing newline."""
        for start in range(0, len(self._packed), _TEXT_BLOCK):
            fh.write(render_packed(self._packed[start:start + _TEXT_BLOCK], self.length))

    @classmethod
    def read_text(cls, fh: IO[str], length: int | None = None) -> "WordSet":
        """Read one word per line, ignoring blank lines and surrounding whitespace.

        Raises what `Word.parse` raises for the first line it rejects, and
        ValueError for a word whose length differs from `length` (by default
        the first word's).
        """
        lines = [text for line in fh if (text := line.strip())]
        if not lines:
            if length is None:
                raise ValueError("cannot infer word length from an empty text file")
            return cls(length)
        sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
        # Non-ASCII symbols become "?", one per character, so rows keep their sizes.
        data = np.frombuffer("".join(lines).encode("ascii", "replace"), dtype=np.uint8)
        bad_char = np.flatnonzero((data != ord("0")) & (data != ord("1")))
        bad_lines = np.concatenate([
            np.flatnonzero(sizes > WORD_CAPACITY),
            np.searchsorted(np.cumsum(sizes), bad_char[:1], side="right")])
        if len(bad_lines):
            Word.parse(lines[int(bad_lines.min())])  # raises that line's error
        if length is None:
            length = int(sizes[0])
        wrong = np.flatnonzero(sizes != length)
        if len(wrong):
            raise ValueError(f"word of length {sizes[wrong[0]]} in set of length {length}")
        bits = (data - np.uint8(ord("0"))).reshape(len(lines), length)
        return cls.from_packed(length, pack_rows(bits))

    def write_binary(self, fh: IO[bytes]) -> None:
        """Magic "RFW1", u8 version, u8 word length, u32 LE count, u64 LE words."""
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, self.length, len(self._packed)))
        fh.write(memoryview(self._packed.astype("<u8", copy=False)).cast("B"))

    @classmethod
    def read_binary(cls, fh: IO[bytes]) -> "WordSet":
        """Load a `write_binary` file, rejecting any that it could not have written."""
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated header: {len(header)} bytes")
        magic, version, length, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        data = fh.read(8 * count)
        if len(data) != 8 * count:
            raise ValueError("truncated word data")
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} words")
        packed = np.frombuffer(data, dtype="<u8").astype(np.uint64, copy=False)
        _check_fits(packed, length)
        if (packed[1:] <= packed[:-1]).any():
            raise ValueError("words are not in strictly increasing order")
        return cls.from_packed(length, packed, canonical=True)
