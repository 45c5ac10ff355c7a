"""Immutable, canonically ordered sets of equal-length packed words.

A WordSet holds its members as a sorted, deduplicated numpy uint64 array.
The canonical order is ascending packed value, which is total and
deterministic, so two runs produce byte-identical exports.  Bulk operations
(products, slices, unions) work directly on the packed arrays, and every
deduplication goes through the one sort-based kernel `_dedup`.
"""

from __future__ import annotations

import struct
from typing import IO, Iterable, Iterator

import numpy as np

from .words import WORD_CAPACITY, CapacityError, Word

# Bit-reversal table for one byte, used by the vectorized word reversal.
_REV8 = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)

_MAGIC = b"RFW1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBI")


def _dedup(owned: np.ndarray, kind: str = "quicksort") -> np.ndarray:
    """Sort `owned` in place, then keep each entry that differs from its left neighbour.

    The one deduplication kernel behind every WordSet.  It never hashes:
    numpy >= 2.3 gives `np.unique` a hash table that is 35-90x slower than
    sorting on packed words.  `kind="stable"` suits input made of a few
    sorted runs, which it merges in linear time.
    """
    owned.sort(kind=kind)
    keep = np.empty(len(owned), dtype=bool)
    keep[:1] = True
    np.not_equal(owned[1:], owned[:-1], out=keep[1:])
    out = owned[keep]
    out.flags.writeable = False
    return out


def slice_packed(packed: np.ndarray, a: int, b: int) -> np.ndarray:
    """Packed values of w[a,b] for every w; not deduplicated."""
    n = b - a + 1
    mask = np.uint64((1 << n) - 1)
    return (packed >> np.uint64(a - 1)) & mask


def reverse_packed(packed: np.ndarray, length: int) -> np.ndarray:
    """Reverse every word in a packed array; not deduplicated."""
    if length == 0:
        return packed.copy()
    as_bytes = np.ascontiguousarray(packed).view(np.uint8).reshape(-1, 8)
    rev = np.ascontiguousarray(_REV8[as_bytes][:, ::-1]).view(np.uint64).ravel()
    return rev >> np.uint64(WORD_CAPACITY - length)


class WordSet:
    """Deduplicated collection of equal-length words in canonical order."""

    __slots__ = ("length", "_packed")

    def __init__(self, length: int, words: Iterable[Word] = ()) -> None:
        packed = []
        for w in words:
            if w.length != length:
                raise ValueError(f"word of length {w.length} in set of length {length}")
            packed.append(w.bits)
        self.length = length
        self._packed = _dedup(np.array(packed, dtype=np.uint64))

    @classmethod
    def from_packed(cls, length: int, packed: np.ndarray, *, canonical: bool = False) -> "WordSet":
        if not 0 <= length <= WORD_CAPACITY:
            raise CapacityError(f"word length {length} outside [0, {WORD_CAPACITY}]")
        self = cls.__new__(cls)
        self.length = length
        if canonical:
            arr = np.asarray(packed, dtype=np.uint64)
            arr.flags.writeable = False
            self._packed = arr
        else:
            self._packed = _dedup(np.array(packed, dtype=np.uint64))
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
        if w.length != self.length:
            return False
        i = int(np.searchsorted(self._packed, np.uint64(w.bits)))
        return i < len(self._packed) and self._packed[i] == np.uint64(w.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordSet):
            return NotImplemented
        return self.length == other.length and np.array_equal(self._packed, other._packed)

    def __repr__(self) -> str:
        return f"WordSet(len={self.length}, size={len(self)})"

    def union(self, other: "WordSet") -> "WordSet":
        if self.length != other.length:
            raise ValueError("union of sets with different word lengths")
        merged = _dedup(np.concatenate([self._packed, other._packed]), kind="stable")
        return WordSet.from_packed(self.length, merged, canonical=True)

    def intersection(self, other: "WordSet") -> "WordSet":
        if self.length != other.length:
            raise ValueError("intersection of sets with different word lengths")
        return WordSet.from_packed(self.length,
                                   np.intersect1d(self._packed, other._packed,
                                                  assume_unique=True),
                                   canonical=True)

    def issubset(self, other: "WordSet") -> bool:
        if self.length != other.length:
            return len(self) == 0
        return bool(np.isin(self._packed, other._packed, assume_unique=True).all())

    def product(self, other: "WordSet") -> "WordSet":
        """Set of all concatenations uv with u from self, v from other.

        uv packs as u | v << len(u) with u < 2^len(u), so row v of the outer
        product is already ascending and the rows follow v's order: the
        result is canonical without a sort.  Two canonical operands give no
        duplicates, since the split point is fixed.
        """
        length = self.length + other.length
        if length > WORD_CAPACITY:
            raise CapacityError(
                f"product words of {self.length} + {other.length} symbols exceed capacity"
            )
        shifted = other._packed << np.uint64(self.length)
        return WordSet.from_packed(length, np.bitwise_or.outer(shifted, self._packed).ravel(),
                                   canonical=True)

    def slices(self, a: int, b: int) -> "WordSet":
        """Distinct sub-words w[a,b] over all members."""
        if not (1 <= a <= b + 1 <= self.length + 1):
            raise IndexError(f"slice [{a}, {b}] outside word length {self.length}")
        if a == b + 1:
            # Convention: the empty slice of a nonempty set is {empty word}.
            n = min(len(self._packed), 1)
            return WordSet.from_packed(0, np.zeros(n, dtype=np.uint64), canonical=True)
        return WordSet.from_packed(b - a + 1, slice_packed(self._packed, a, b))

    def reverse(self) -> "WordSet":
        return WordSet.from_packed(self.length, reverse_packed(self._packed, self.length))

    # --- serialization ------------------------------------------------

    def write_text(self, fh: IO[str]) -> None:
        """One ASCII word per line, canonical order, trailing newline."""
        for w in self:
            fh.write(w.render())
            fh.write("\n")

    @classmethod
    def read_text(cls, fh: IO[str], length: int | None = None) -> "WordSet":
        words = [Word.parse(line.strip()) for line in fh if line.strip()]
        if length is None:
            if not words:
                raise ValueError("cannot infer word length from an empty text file")
            length = words[0].length
        return cls(length, words)

    def write_binary(self, fh: IO[bytes]) -> None:
        """Magic "RFW1", u8 version, u8 word length, u32 LE count, u64 LE words."""
        fh.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, self.length, len(self._packed)))
        fh.write(self._packed.astype("<u8").tobytes())

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
        packed = np.frombuffer(data, dtype="<u8").astype(np.uint64)
        if length < WORD_CAPACITY and (packed >> np.uint64(length)).any():
            raise ValueError(f"a word has bits above its length {length}")
        if (packed[1:] <= packed[:-1]).any():
            raise ValueError("words are not in strictly increasing order")
        return cls.from_packed(length, packed, canonical=True)
