"""Immutable, canonically ordered sets of equal-length packed words.

A WordSet holds its members as a sorted, deduplicated numpy uint64 array,
in ascending packed value, a total and deterministic order, so two runs
produce byte-identical exports.  Bulk operations (products, slices, unions)
work directly on the packed arrays.  Sets are sorted: `_distinct`, a sort and
a neighbour compare, builds every set.  Windows are marked: `_table`, a
direct-address table that reads off in ascending order, takes F_n's windows
a table per aligned bucket (`_product_windows`), and the windows of words,
where they hold at least one byte per value they could take (`_window_set`).
Neither path hashes.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .words import WORD_CAPACITY, Word, _check_length

# Widest words `_table` marks: 2^24 one-byte flags, 16 MB.
_TABLE_BITS = 24

# Words (or `_suffix_counts` pairs) per block of windows marked in the table: 2^17, 1 MB.
_BLOCK = 1 << 17

# Most sorted runs in the words that `_distinct` sorts stable, merging the runs: on
# A_9's 3.3M words as built (two runs) that beats quicksort 4x, on its prefixes
# [1, 31] (four runs) 2.5x, and it loses on five random runs of A_9 (0.82x).
_FEW_RUNS = 4

# Words rendered per block by `write_text`; a block unpacks to 64 bytes a word.
_TEXT_BLOCK = 1 << 16

# Threads `_on_workers` runs on: one per usable core, at most two, as `_distinct` sorts halves.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

_MAGIC = b"RFW1"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sBBI")


def _on_workers(fn: Callable[[int, int], None], n: int) -> None:
    """fn(lo, hi) over range(n), cut into at most `_WORKERS` slices of at least `_BLOCK`.

    The first slice runs on the calling thread and each other on its own
    thread; numpy's kernels release the GIL, so slices run side by side.
    Every thread is joined before the first slice's exception is raised.
    """
    k = max(1, min(_WORKERS, n // _BLOCK))
    errors: list[BaseException | None] = [None] * k

    def run(i: int) -> None:
        try:
            fn(n * i // k, n * (i + 1) // k)
        except BaseException as exc:  # raised again on the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, k)]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _distinct(owned: np.ndarray) -> np.ndarray:
    """Sorted distinct values of `owned`, a uint64 array it may sort in place.

    The one deduplication kernel behind every WordSet: a sort, then each
    entry that differs from its left neighbour.  It never hashes: numpy
    >= 2.3 gives `np.unique` a hash table that is 35-90x slower than sorting
    on packed words.  At most `_FEW_RUNS` sorted runs, such as a union's two
    sets or the product and the new words that make A_n in one buffer, are
    merged in linear time by a stable sort; more are quicksorted, and on two
    workers from 2 `_BLOCK` words partitioned at the middle, each half then
    sorted on its own.
    """
    few = np.count_nonzero(owned[1:] <= owned[:-1]) < _FEW_RUNS  # k rising runs fall k - 1 times
    if not few and _WORKERS > 1 and len(owned) >= 2 * _BLOCK:
        owned.partition(len(owned) // 2)  # where `_on_workers` cuts its two slices
        _on_workers(lambda lo, hi: owned[lo:hi].sort(), len(owned))
    else:
        owned.sort(kind="stable" if few else "quicksort")
    keep = np.empty(len(owned), dtype=bool)
    keep[:1] = True
    np.not_equal(owned[1:], owned[:-1], out=keep[1:])
    out = owned if keep.all() else owned[keep]
    out.flags.writeable = False
    return out


def _table(width: int, n: int, arrays: Callable[[int, int], Iterable[np.ndarray]]) -> np.ndarray:
    """Sorted distinct values, all below 2^width, of the uint64 arrays that arrays(lo, hi) yields.

    The one direct-address table: `_on_workers` splits range(n), and each
    slice marks its arrays in the same 2^width one-byte flags, freeing each
    once marked; every store writes 1 and none reads, so the order of the
    marks cannot change the flags, whose nonzero positions are the answer.
    """
    seen = np.zeros(1 << width, dtype=bool)

    def mark(lo: int, hi: int) -> None:
        for array in arrays(lo, hi):
            seen[array.view(np.int64)] = True  # values below 2^24 index as they are
            del array  # marked: free it before the next is built

    _on_workers(mark, n)
    out = np.flatnonzero(seen).view(np.uint64)
    out.flags.writeable = False
    return out


def _product_windows(pieces: list[tuple[np.ndarray, np.ndarray, int]], width: int) -> np.ndarray:
    """Sorted distinct windows s | p << j over the pieces (s, p, j), all below 2^width.

    s and p are strictly increasing uint64 arrays, s < 2^j.  The windows are
    marked in aligned buckets of 2^g values, g = min(width, `_TABLE_BITS`),
    each its own `_table` on the calling thread, read off in order: bucket
    [lo, hi] takes the p in [lo >> j, hi >> j] and the s in [lo mod 2^j,
    hi mod 2^j], every s where j <= g and one p at most where j > g.  Keys are
    uint64, as a Python int key makes `searchsorted` convert the whole array.
    """
    g = min(width, _TABLE_BITS)

    def bucket(lo: int) -> Iterator[np.ndarray]:
        hi = lo + (1 << g) - 1
        for s, p, j in pieces:
            mask = (1 << j) - 1
            r0, r1 = np.searchsorted(p, np.array([lo >> j, (hi >> j) + 1], dtype=np.uint64))
            c0, c1 = np.searchsorted(s, np.array([lo & mask, (hi & mask) + 1], dtype=np.uint64))
            yield np.add.outer((p[r0:r1] << np.uint64(j)) - np.uint64(lo & ~mask),
                               s[c0:c1] - np.uint64(lo & mask)).ravel()

    return np.concatenate([_table(g, 1, lambda _lo, _hi: bucket(lo)) + np.uint64(lo)
                           for lo in range(0, 1 << width, 1 << g)])


def _member(canonical: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Which uint64 `words` lie in `canonical`, a strictly increasing uint64 array.

    The one membership kernel: a binary search per word, clamped to the last
    entry.  Searches in ascending order walk the array in order, so callers
    with many words ask in ascending order where they can.
    """
    if len(canonical) == 0:
        return np.zeros(np.shape(words), dtype=bool)
    return canonical[np.minimum(np.searchsorted(canonical, words), len(canonical) - 1)] == words


def _in_product(words: np.ndarray, u: "WordSet", v: "WordSet", gap: int = 0) -> np.ndarray:
    """Which packed `words` lie in u {0,1}^gap v: first |u| symbols in u and last |v| in v.

    Asked a `_BLOCK` of words at a time, so `_member`'s scratch stays that size.
    """
    inside = np.empty(len(words), dtype=bool)
    for lo in range(0, len(words), _BLOCK):
        block = words[lo:lo + _BLOCK]
        np.logical_and(_member(u._packed, slice_packed(block, 1, u.length)),
                       _member(v._packed, block >> np.uint64(u.length + gap)),
                       out=inside[lo:lo + _BLOCK])
    return inside


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


def _window_set(packed: np.ndarray, starts: range, width: int) -> np.ndarray:
    """Sorted distinct w[a, a+width-1] over every start a and every packed word w.

    The byte rule: windows of at most `_TABLE_BITS` symbols that hold at
    least one byte per value they could take go to `_table`, as clearing and
    scanning its 2^width flags costs more than sorting fewer bytes.  It
    splits the words and each worker cuts its own `_BLOCK`-word blocks, every
    start before the next block, so a block is read from cache.  Otherwise
    `_distinct` takes one start's windows at a time, and each is merged into
    those before it.
    """
    if width > _TABLE_BITS or 8 * len(packed) * len(starts) < 1 << width:
        out = np.empty(0, dtype=np.uint64)
        for a in starts:
            windows = _distinct(slice_packed(packed, a, a + width - 1))
            out = _distinct(np.concatenate([out, windows])) if len(out) else windows
        return out
    return _table(width, len(packed), lambda lo, hi: (
        slice_packed(packed[b:min(b + _BLOCK, hi)], a, a + width - 1)
        for b in range(lo, hi, _BLOCK) for a in starts))


def reverse_packed(packed: np.ndarray, length: int) -> np.ndarray:
    """Reverse every word in a packed array on the calling thread; not deduplicated.

    Swaps each word's bytes, then the bits, pairs and nibbles of each byte
    (Warren, Hacker's Delight, 7-1), a quarter `_BLOCK` at a time in one scratch array.
    """
    rev, step = packed.byteswap(), max(_BLOCK >> 2, 1)
    scratch = np.empty(step, dtype=np.uint64)
    for b in range(0, len(rev), step):
        block = rev[b:b + step]
        low = scratch[:len(block)]
        for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333),
                            (4, 0x0F0F0F0F0F0F0F0F)):
            np.right_shift(block, shift, out=low)  # x = (x >> s) & m | (x & m) << s
            low &= mask
            block &= mask
            block <<= shift
            block |= low
        block >>= np.uint64(WORD_CAPACITY - length)  # numpy shifts a uint64 by 64 to 0
    return rev


def _both_products(u: "WordSet", v: "WordSet") -> "WordSet":
    """u·v ∪ v·u, for |u| + |v| <= 64: u·v, then the words of v·u that it lacks.

    The longer half comes first, |u| >= |v|, and d = |u| - |v|.  By the
    definition of a product set, a word st of v·u (s from v, t from u) lies
    in u·v iff its first |u| symbols, s then t's first d, lie in u, and its
    last |v|, t's last |v|, lie in v.  Each test is one `_member` call on a
    small array: every distinct d-symbol head of u after every s, and every
    tail of u.  The new words are listed from one flag per word of v·u, not
    from its words: t is their high bits, so taking each t's new s in order
    after the last t's gives them strictly increasing.  They follow u·v,
    written as `product` writes it, in one buffer of two runs, which
    `_distinct` merges in place.
    """
    d = u.length - v.length
    heads = u._packed & np.uint64((1 << d) - 1)  # every t's first d symbols
    prefixes = _distinct(heads.copy())
    firsts = np.bitwise_or.outer(prefixes << np.uint64(v.length), v._packed).ravel()
    tail_in_v = _member(v._packed, u._packed >> np.uint64(d))
    # Row k holds the s that make a new word with a t of head k whose tail is in
    # v; the last row, every s, serves each t whose tail is not.
    new = np.ones((len(prefixes) + 1, len(v)), dtype=bool)
    new[:-1] = ~_member(u._packed, firsts).reshape(len(prefixes), len(v))
    rows = np.where(tail_in_v, np.searchsorted(prefixes, heads), len(prefixes))
    is_new = new[rows]  # is_new[t, s]: st is not in u·v
    per_t = np.count_nonzero(is_new, axis=1)
    size = len(u) * len(v)
    out = np.empty(size + per_t.sum(), dtype=np.uint64)
    np.bitwise_or.outer(v._packed << np.uint64(u.length), u._packed,
                        out=out[:size].reshape(len(v), len(u)))
    np.bitwise_or(np.repeat(u._packed << np.uint64(v.length), per_t),
                  np.broadcast_to(v._packed, is_new.shape)[is_new], out=out[size:])
    length = u.length + v.length
    return WordSet._of(length, _distinct(out))


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
        self._packed = _distinct(np.array(packed, dtype=np.uint64))

    @classmethod
    def from_packed(cls, length: int, packed: np.ndarray) -> "WordSet":
        """The set of `length`-symbol words with these packed values: checked, deduplicated."""
        _check_length(length)
        arr = np.array(packed, dtype=np.uint64)
        _check_fits(arr, length)
        return cls._of(length, _distinct(arr))

    @classmethod
    def _of(cls, length: int, canonical: np.ndarray) -> "WordSet":
        """The one unchecked way in, bar `length`: `canonical` holds a kernel's sorted words."""
        _check_length(length)
        self = cls.__new__(cls)
        self.length, self._packed = length, canonical
        canonical.flags.writeable = False
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
        both = np.concatenate([self._packed, other._packed])
        return WordSet._of(self.length, _distinct(both))

    def intersection(self, other: "WordSet") -> "WordSet":
        if self.length != other.length:
            raise ValueError("intersection of sets with different word lengths")
        return WordSet._of(self.length, self._packed[_member(other._packed, self._packed)])

    def issubset(self, other: "WordSet") -> bool:
        if self.length != other.length:
            return len(self) == 0
        return bool(_member(other._packed, self._packed).all())

    def product(self, other: "WordSet") -> "WordSet":
        """Set of all concatenations uv with u from self, v from other.

        One outer product, canonical without a sort: uv packs as u | v << len(u)
        with u < 2^len(u), so row v ascends and the rows follow v's order.  Two
        canonical operands give no duplicates, since the split point is fixed.
        """
        length = self.length + other.length
        _check_length(length)
        out = np.bitwise_or.outer(other._packed << np.uint64(self.length), self._packed)
        return WordSet._of(length, out.ravel())

    def slices(self, a: int, b: int) -> "WordSet":
        """Distinct sub-words w[a,b] over all members; w[a, a-1] is the empty word."""
        if not (1 <= a <= b + 1 <= self.length + 1):
            raise IndexError(f"slice [{a}, {b}] outside word length {self.length}")
        width = b - a + 1
        return WordSet._of(width, _window_set(self._packed, range(a, a + 1), width))

    def reverse(self) -> "WordSet":
        rev = reverse_packed(self._packed, self.length)
        return WordSet._of(self.length, _distinct(rev))

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
        """Load a `write_binary` file, rejecting any that it could not have written.

        A seekable `fh` is checked to hold the header's count of words before
        they are read; any other is read for them, and found short after.
        """
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated header: {len(header)} bytes")
        magic, version, length, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported format version {version}")
        if fh.seekable():  # a short file fails here, before `read` allocates 8 * count bytes
            here = fh.tell()
            if fh.seek(0, os.SEEK_END) - fh.seek(here) < 8 * count:  # the bytes left
                raise ValueError("truncated word data")
        data = fh.read(8 * count)
        if len(data) != 8 * count:
            raise ValueError("truncated word data")
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} words")
        packed = np.frombuffer(data, dtype="<u8").astype(np.uint64, copy=False)
        _check_fits(packed, length)
        if (packed[1:] <= packed[:-1]).any():
            raise ValueError("words are not in strictly increasing order")
        return cls._of(length, packed)
