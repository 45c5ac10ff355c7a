"""WordSet operations against a Python-set oracle, and guards on the set kernels.

Every packed-array fast path is checked against the slow path it replaced:
plain Python sets of ints, bit by bit.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import threading
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfw import Word, WordSet, cli, enumerate_A, factor_set, factors, wordset
from rfw.inflation import halves

SRC = Path(__file__).resolve().parents[1] / "src" / "rfw"


@st.composite
def packed_words(draw, length):
    """A packed uint64 array of words of `length` symbols, with forced
    duplicates and the edge values 0 and 2^length - 1 likely."""
    top = (1 << length) - 1
    value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    base = draw(st.lists(value, max_size=40))
    dups = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    order = draw(st.permutations(base + dups))
    return np.array(order, dtype=np.uint64)


@st.composite
def word_set(draw, length=None):
    if length is None:
        length = draw(st.integers(0, 64))
    arr = draw(packed_words(length))
    return WordSet.from_packed(length, arr), {int(x) for x in arr}


@st.composite
def two_sets(draw):
    length = draw(st.integers(0, 64))
    return draw(word_set(length)), draw(word_set(length))


def members(ws):
    """The packed members, checked to be strictly increasing uint64."""
    arr = ws.packed
    assert arr.dtype == np.uint64
    assert bool(np.all(arr[1:] > arr[:-1]))
    return [int(x) for x in arr]


def window(x, a, b):
    return x >> (a - 1) & ((1 << (b - a + 1)) - 1)


@given(word_set())
def test_from_packed(case):
    ws, oracle = case
    assert members(ws) == sorted(oracle)
    assert WordSet.from_packed(ws.length, ws.packed) == ws
    assert WordSet.from_packed(ws.length, np.concatenate([ws.packed[::-1], ws.packed])) == ws


def test_from_packed_takes_no_trust_keyword():
    # Every caller's packed values are checked: unsorted words make a sorted set.
    assert list(inspect.signature(WordSet.from_packed).parameters) == ["length", "packed"]
    with pytest.raises(TypeError):
        WordSet.from_packed(3, [5, 1], canonical=True)
    ws = WordSet.from_packed(3, [5, 1])
    assert Word(5, 3) in ws and Word(1, 3) in ws
    assert ws == WordSet(3, [Word(1, 3), Word(5, 3)])


@given(two_sets(), st.data())
def test_union_intersection_issubset(case, data):
    (s, a), (t, b) = case
    assert members(s.union(t)) == sorted(a | b)
    assert members(s.intersection(t)) == sorted(a & b)
    assert s.issubset(t) == (a <= b)
    assert s.issubset(s.union(t))
    # Unsorted, repeated queries, with each member's neighbours: below the
    # minimum, above the maximum and between members.
    top = (1 << s.length) - 1
    near = {0, top} | {x - 1 for x in a | b if x} | {x + 1 for x in a | b if x < top}
    words = np.concatenate([data.draw(packed_words(s.length)),
                            np.array(sorted(near), dtype=np.uint64)])
    # The kernel is also asked for 2^64 - 1 whatever the length.  As a set,
    # `near` holds values 1 apart, up to 2^64 - 1 at length 64.
    queries = np.append(words, np.uint64((1 << 64) - 1))
    assert all(Word(x, s.length) in s for x in a)
    dense = WordSet.from_packed(s.length, sorted(near))
    for ws, oracle in ((s, a), (t, b), (dense, near), (WordSet(s.length), set())):
        assert [Word(x, s.length) in ws for x in words.tolist()] == [
            x in oracle for x in words.tolist()]
        assert wordset._member(ws.packed, queries).tolist() == [
            x in oracle for x in queries.tolist()]


@given(st.integers(0, 64).flatmap(
    lambda la: st.tuples(word_set(la), st.integers(0, 64 - la).flatmap(word_set))))
def test_product(case):
    (s, a), (t, b) = case
    assert members(s.product(t)) == sorted(u | v << s.length for u in a for v in b)


@st.composite
def sets_sharing_pieces(draw):
    """(u, v), |u| + |v| <= 64, either one the longer, whose two products share words.

    With |u| >= |v| and d = |u| - |v|, a word st of v·u lies in u·v iff u holds
    s followed by t's first d symbols and v holds t's last |v|.  So u is drawn
    from words made of those pieces, a few heads shared by many, and free words.
    """
    long = draw(st.integers(0, 64))
    edge = min(long, 64 - long)  # |u| = |v| up to 32 symbols, |u| + |v| = 64 from 32 on
    short = draw(st.one_of(st.just(edge), st.integers(0, edge)))
    d = long - short

    def words(length, most):
        return draw(st.lists(st.integers(0, (1 << length) - 1), max_size=most))

    v, heads = words(short, 6), words(d, 3)
    pieces = ([h | t << d for h in heads for t in v + words(short, 2)]
              + [s | h << short for s in v + words(short, 2) for h in heads])
    u = words(long, 3) + (draw(st.lists(st.sampled_from(pieces), max_size=12)) if pieces else [])
    pair = (WordSet.from_packed(long, np.array(u, dtype=np.uint64)),
            WordSet.from_packed(short, np.array(v, dtype=np.uint64)))
    return pair[::-1] if draw(st.booleans()) else pair


def packed_set(length, values):
    return WordSet.from_packed(length, np.array(values, dtype=np.uint64))


@settings(max_examples=300, deadline=None)
@given(sets_sharing_pieces())
@example((packed_set(2, [1, 2]), packed_set(2, [1, 3])))  # |u| = |v|
@example((WordSet(5), packed_set(3, [5])))
@example((packed_set(4, [3, 12]), WordSet(0)))
@example((packed_set(5, [9]), packed_set(3, [1])))  # a single word each
@example((packed_set(40, [(1 << 40) - 1, 12345]), packed_set(24, [(1 << 24) - 1, 7])))
@example((packed_set(64, [(1 << 64) - 1, 3]), packed_set(0, [0])))
def test_both_products_match_the_union_of_two_products(pair):
    u, v = sorted(pair, key=lambda s: -s.length)  # the longer half first; the union is symmetric
    got = wordset._both_products(u, v)
    assert got == u.product(v).union(v.product(u))
    members(got)


def test_both_products_refuses_a_shorter_first_half():
    with pytest.raises(ValueError, match="negative shift"):
        wordset._both_products(enumerate_A(4), enumerate_A(5))


FREE_BLOCK = WordSet.from_packed(2, np.arange(4, dtype=np.uint64))  # {0,1}^2


@lru_cache(maxsize=None)
def built_product(n, order, gap):
    """halves(n)[order] (u, v) and the product u {0,1}^gap v, built by `product`."""
    u, v = halves(n)[order]
    return u, v, (u.product(FREE_BLOCK) if gap else u).product(v)


def with_every_gap(words, cut, gap):
    """Each word with every `gap`-symbol block put in after its first `cut` symbols."""
    low, high = words & np.uint64((1 << cut) - 1), words >> np.uint64(cut) << np.uint64(cut + gap)
    return np.concatenate([low | high | np.uint64(g << cut) for g in range(1 << gap)])


@pytest.mark.parametrize("gap", [0, 2])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("n", range(3, 9))
def test_in_product_matches_member_on_the_built_product_over_A(n, order, gap):
    u, v, product = built_product(n, order, gap)
    words = with_every_gap(enumerate_A(n).packed, u.length, gap)
    got = wordset._in_product(words, u, v, gap)
    assert np.array_equal(got, wordset._member(product.packed, words))
    assert 0 < np.count_nonzero(got) < len(words)  # A_n holds words of both kinds


@pytest.mark.parametrize("block", [7, 1000])
def test_in_product_asks_block_by_block(monkeypatch, block):
    # 40,320 words of A_8 with every 2-symbol gap: blocks of 7 end mid-array.
    u, v, product = built_product(8, 1, 2)
    words = with_every_gap(enumerate_A(8).packed, u.length, 2)
    monkeypatch.setattr(wordset, "_BLOCK", block)
    assert np.array_equal(wordset._in_product(words, u, v, 2),
                          wordset._member(product.packed, words))
    assert wordset._in_product(words[:0], u, v, 2).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 8), st.integers(0, 1), st.sampled_from([0, 2]), st.data())
def test_in_product_matches_member_on_the_built_product_over_drawn_words(n, order, gap, data):
    u, v, product = built_product(n, order, gap)
    top, size = (1 << product.length) - 1, len(product)
    drawn = st.one_of(st.integers(0, top), st.integers(0, size - 1).map(
        lambda i: int(product.packed[i])))
    words = np.array(data.draw(st.lists(drawn, max_size=40)), dtype=np.uint64)
    assert np.array_equal(wordset._in_product(words, u, v, gap),
                          wordset._member(product.packed, words))


@pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
def test_member_on_long_queries_matches_set_oracle(order):
    # One clamped search answers sorted, unsorted and repeated queries longer than `_BLOCK`.
    rng = np.random.default_rng(11)
    oracle = set(rng.integers(0, 1 << 20, 5000).tolist())
    canonical = np.array(sorted(oracle), dtype=np.uint64)
    drawn = np.concatenate([rng.integers(0, 1 << 20, wordset._BLOCK).astype(np.uint64),
                            rng.choice(canonical, wordset._BLOCK)])
    queries = {"sorted": np.sort(drawn), "unsorted": drawn,
               "repeated": np.tile(drawn[:1000], wordset._BLOCK // 1000 + 2)}[order]
    before = queries.copy()
    assert len(queries) > wordset._BLOCK
    assert wordset._member(canonical, queries).tolist() == [x in oracle for x in before.tolist()]
    assert np.array_equal(queries, before)


@given(word_set().flatmap(lambda c: st.tuples(
    st.just(c), st.integers(1, c[0].length + 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a - 1, c[0].length))))))
@example(((packed_set(64, [0, 1 << 63, (1 << 64) - 1]), {0, 1 << 63, (1 << 64) - 1}), (65, 64)))
@example(((packed_set(0, [0]), {0}), (1, 0)))  # {ε}
@example(((WordSet(5), set()), (3, 2)))
def test_slices(case):
    (ws, oracle), (a, b) = case
    got = ws.slices(a, b)
    assert got.length == b - a + 1
    if a == b + 1:
        assert members(got) == ([0] if oracle else [])
    else:
        assert members(got) == sorted({window(x, a, b) for x in oracle})


@given(word_set())
def test_reverse(case):
    ws, oracle = case
    n = ws.length
    expected = {int(format(x, f"0{n}b")[::-1], 2) if n else 0 for x in oracle}
    assert members(ws.reverse()) == sorted(expected)


@settings(max_examples=50)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(word_set(n), st.integers(1, n))))
def test_factor_set(case):
    (ws, oracle), ell = case
    expected = {window(x, k, k + ell - 1) for x in oracle for k in range(1, ws.length - ell + 2)}
    assert members(factor_set(ws, ell)) == sorted(expected)


@pytest.mark.parametrize("length,value", [(2, 7), (0, 1), (5, 1 << 5), (63, 1 << 63)])
def test_from_packed_rejects_bits_above_length(length, value):
    with pytest.raises(ValueError, match="bits above"):
        WordSet.from_packed(length, np.array([0, value], dtype=np.uint64))


def test_from_packed_accepts_full_width_words():
    top = np.array([(1 << 64) - 1, 0], dtype=np.uint64)
    assert members(WordSet.from_packed(64, top)) == [0, (1 << 64) - 1]


# --- _distinct sorts; the windows of words are marked in a table ---------


def table_calls(fn, *args):
    """fn(*args), and the width of every table `wordset._table` marked for it."""
    widths, table = [], wordset._table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordset, "_table", lambda width, *rest: widths.append(width) or
                   table(width, *rest))
        out = fn(*args)
    return out, widths


def with_path(fn, *args):
    """fn(*args), and "table" if that marked a direct-address table, else "sort"."""
    out, widths = table_calls(fn, *args)
    return out, "table" if widths else "sort"


def distinct(words):
    out = wordset._distinct(words)
    assert out.dtype == np.uint64 and not out.flags.writeable
    return [int(x) for x in out]


def expected_path(items, width):
    return "table" if width <= wordset._TABLE_BITS and 8 * items >= 1 << width else "sort"


def random_chunks(rng, width, items, parts, runs=0):
    """`items` values below 2^width with many duplicates and both edge values,
    split into `parts` chunks at random points; also the Python-set oracle.
    With `runs`, each chunk is that many strictly increasing runs, which
    repeat values across runs, as A_n's two products do."""
    top = (1 << width) - 1
    pool = np.concatenate([[0, top], rng.integers(0, top, max(items // 2, 1), endpoint=True,
                                                  dtype=np.uint64)]).astype(np.uint64)
    values = rng.choice(pool, items)
    cuts = np.sort(rng.integers(0, items, parts - 1, endpoint=True))
    chunks = [c.copy() for c in np.split(values, cuts)]
    if runs:
        chunks = [np.concatenate([sorted(set(r.tolist())) for r in np.array_split(c, runs)]
                                 ).astype(np.uint64) for c in chunks]
    return chunks, sorted(set(values.tolist()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(-3, 3), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.one_of(st.just(0), st.integers(1, 40)))
def test_distinct_matches_set_oracle(width, offset, parts, seed, runs):
    # Item counts run from a few to many per value while 2^width / 8 stays
    # small; above 2^17 values the counts are kept small.  With `runs`, the
    # words are parts x runs sorted runs, so the few-run ones are merged by a
    # stable sort and the rest quicksorted.
    items = max((1 << width) // 8 + offset, 0) if width <= 17 else 200 + offset
    chunks, oracle = random_chunks(np.random.default_rng(seed), width, items, parts, runs)
    assert distinct(np.concatenate(chunks)) == oracle  # runs drop the repeats within each run


@pytest.mark.parametrize("runs,kinds", [(1, ["stable"]), (2, ["stable"]), (4, ["stable"]),
                                        (5, ["quicksort"]), (40, ["quicksort"])])
def test_distinct_merges_a_few_runs_by_a_stable_sort(runs, kinds):
    chunks, oracle = random_chunks(np.random.default_rng(runs), 40, 400, 1, runs)
    sorts = []

    class Logged(np.ndarray):
        """An array whose `sort` logs the kind it is asked for."""

        def sort(self, axis=-1, kind=None, order=None):
            sorts.append(kind)
            super().sort(axis, kind, order)

    assert distinct(chunks[0].view(Logged)) == oracle
    assert sorts == kinds


@pytest.mark.parametrize("run", [
    wordset._distinct, lambda values: WordSet.from_packed(22, values).packed,
    lambda values: WordSet(22, (Word(x, 22) for x in values.tolist())).packed,
    lambda values: WordSet.from_packed(22, values[::2]).union(
        WordSet.from_packed(22, values[1::2])).packed,
    lambda values: WordSet.from_packed(22, wordset.reverse_packed(values, 22)).reverse().packed],
    ids=["distinct", "from_packed", "init", "union", "reverse"])
def test_sets_are_sorted_never_marked(run):
    # 2^19 distinct values below 2^22 hold one byte per value they could
    # take, so the byte rule would mark them as windows; as a set they sort.
    values = np.random.default_rng(22).choice(1 << 22, 1 << 19, replace=False).astype(np.uint64)
    oracle = sorted(values.tolist())
    out, widths = table_calls(run, values)
    assert widths == []
    assert out.dtype == np.uint64 and out.tolist() == oracle


@pytest.mark.parametrize("side", ["table", "few_bytes", "too_wide"])
def test_every_table_pass_marks_one_table_on_its_side_of_the_rule(monkeypatch, side):
    # Width 10: windows pay for a table from 2^10 bytes, 128 words, unless the
    # cap is below 10.  Sets are sorted on either side of the rule.
    if side == "too_wide":
        monkeypatch.setattr(wordset, "_TABLE_BITS", 9)
    n = 127 if side == "few_bytes" else 128
    rng = np.random.default_rng(n)

    def distinct_values(length, count):
        return rng.choice(1 << length, count, replace=False).astype(np.uint64)

    ten = distinct_values(10, n)
    sets = {"ten": WordSet.from_packed(10, ten), "odd": WordSet.from_packed(10, ten[1::2]),
            "even": WordSet.from_packed(10, ten[::2]),
            "slices": WordSet.from_packed(12, distinct_values(12, n)),
            "factor_set": WordSet.from_packed(12, distinct_values(12, (n + 1) // 3))}
    passes = {
        "distinct_array": lambda: wordset._distinct(ten.copy()),
        "factor_set": lambda: factor_set(sets["factor_set"], 10),  # 3 windows a word
        "slices": lambda: sets["slices"].slices(2, 11),
        "union": lambda: sets["even"].union(sets["odd"]),
        "reverse": lambda: sets["ten"].reverse(),
    }
    for name, run in passes.items():
        _, widths = table_calls(run)
        marks = side == "table" and name in {"factor_set", "slices"}
        assert widths == ([10] if marks else []), name


def test_distinct_empty_input():
    assert distinct(np.empty(0, dtype=np.uint64)) == []


@pytest.mark.parametrize("ell", [16, 24, 25, 33])
def test_factor_set_on_both_sides_of_the_table_cap(ell):
    # Just enough words for the table where ell allows one.
    length, offsets = 40, 40 - ell + 1
    count = (1 << ell) // 8 // offsets + 1 if ell <= 24 else 2000
    words = np.random.default_rng(ell).integers(0, 1 << length, count, dtype=np.uint64)
    ws = WordSet.from_packed(length, words)
    mask = (1 << ell) - 1
    oracle = {x >> k & mask for x in ws.packed.tolist() for k in range(offsets)}
    got, path = with_path(factor_set, ws, ell)
    assert path == expected_path(len(ws) * offsets, ell) == ("table" if ell <= 24 else "sort")
    assert members(got) == sorted(oracle)


@pytest.mark.parametrize("n,ell", [(8, 8), (8, 13), (8, 18), (9, 21)])
def test_table_windows_of_A_match_the_sort(n, ell):
    a = enumerate_A(n)
    windows = np.concatenate([wordset.slice_packed(a.packed, k, k + ell - 1)
                              for k in range(1, a.length - ell + 2)])
    assert expected_path(len(windows), ell) == "table"
    got, path = with_path(factor_set, a, ell)
    assert path == "table"
    assert np.array_equal(got.packed, wordset._distinct(windows))


@pytest.mark.parametrize("width,items,path", [(8, 10, "sort"), (8, 20, "table"),
                                              (16, 5000, "table"), (30, 500, "sort")])
def test_union_on_either_path_of_distinct(width, items, path):
    # `path` is the side of the byte rule the words fall on; a union sorts on either.
    rng = np.random.default_rng(width * items)
    a, b = (WordSet.from_packed(width, rng.integers(0, 1 << width, items, dtype=np.uint64))
            for _ in range(2))
    before = a.packed.copy(), b.packed.copy()
    got, widths = table_calls(a.union, b)
    assert path == expected_path(len(a) + len(b), width) and widths == []
    assert members(got) == sorted(set(before[0].tolist()) | set(before[1].tolist()))
    assert np.array_equal(a.packed, before[0]) and np.array_equal(b.packed, before[1])


# --- F_n's window pieces, marked in aligned table buckets -------------------


def u64(*values):
    return np.array(values, dtype=np.uint64)


@st.composite
def window_pieces(draw, width):
    """A piece (s, p, j) of windows s | p << j below 2^width: s and p strictly
    increasing, either possibly empty, their edge values likely."""
    j = draw(st.integers(0, width))

    def side(bits):
        top = (1 << bits) - 1
        value = st.one_of(st.just(0), st.just(top), st.integers(0, top))
        return u64(*sorted(draw(st.sets(value, max_size=6))))

    return side(j), side(width - j), j


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda w: st.tuples(st.just(w),
                                                     st.lists(window_pieces(w), max_size=4))),
       st.integers(0, 6))
@example((6, [(u64(0, 63), u64(0), 6), (u64(0), u64(0, 63), 0)]), 2)  # j > g; the empty slice
@example((6, [(u64(), u64(1), 3), (u64(5), u64(), 3)]), 6)  # an empty side, one bucket
def test_product_windows_match_a_set_oracle(case, table_bits):
    # A table cap of 0..6 bits puts pieces on both sides of g and leaves
    # buckets that hold no window of a piece, or of any.
    width, pieces = case
    oracle = {s | p << j for ss, ps, j in pieces for s in ss.tolist() for p in ps.tolist()}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordset, "_TABLE_BITS", table_bits)
        got, widths = table_calls(wordset._product_windows, pieces, width)
    g = min(width, table_bits)
    assert got.dtype == np.uint64 and got.tolist() == sorted(oracle)
    assert widths == [g] * (1 << (width - g))


# --- blocked windows and the reversal table, against the slow paths --------


def per_window(packed, starts, width):
    """The slow path: every window of every word, one sort, a neighbour compare."""
    every = np.sort(np.concatenate([np.empty(0, dtype=np.uint64)] + [
        wordset.slice_packed(packed, a, a + width - 1) for a in starts]))
    keep = np.ones(len(every), dtype=bool)
    keep[1:] = every[1:] != every[:-1]
    return every[keep].tolist()


class CutSpy:
    """Wraps `slice_packed`, recording the length of every array it cuts windows from."""

    def __init__(self, real):
        self.real, self.sizes = real, []

    def __call__(self, packed, a, b):
        self.sizes.append(len(packed))
        return self.real(packed, a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n),
                                                      st.integers(1, n))),
       st.integers(0, 300), st.sampled_from([6, wordset._TABLE_BITS]), st.integers(0, 2**32 - 1))
def test_blocked_windows_match_a_per_window_sort(shape, count, table_bits, seed):
    # Blocks of 7 words, so a set spans many; with a table cap of 6 too, widths
    # fall on both sides of the cap, and counts put the totals on both sides
    # of the byte rule.
    length, width, a = shape
    a = min(a, length - width + 1)
    words = np.random.default_rng(seed).integers(0, 1 << length, count, dtype=np.uint64)
    ws = WordSet.from_packed(length, words)
    offsets = range(1, length - width + 2)
    cases = [(factor_set, (ws, width), offsets), (ws.slices, (a, a + width - 1), range(a, a + 1))]
    oracles = [per_window(ws.packed, starts, width) for _, _, starts in cases]
    cut = wordset.slice_packed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordset, "_BLOCK", 7)
        mp.setattr(wordset, "_TABLE_BITS", table_bits)
        for (run, args, starts), oracle in zip(cases, oracles):
            spy = CutSpy(cut)
            mp.setattr(wordset, "slice_packed", spy)
            got, path = with_path(run, *args)
            assert members(got) == oracle
            assert path == expected_path(len(ws) * len(starts), width)
            assert sum(spy.sizes) == len(ws) * len(starts)
            if path == "table":
                assert max(spy.sizes, default=0) <= 7
            else:  # one whole-set cut per start, the empty set included
                assert spy.sizes == [len(ws)] * len(starts)


@pytest.mark.parametrize("length", range(65))
def test_reverse_packed_matches_string_reversal(length):
    top = (1 << length) - 1
    rng = np.random.default_rng(length)
    words = np.concatenate([np.array([0, top, top >> 1, top ^ 1 if length else 0],
                                     dtype=np.uint64),
                            rng.integers(0, 1 << length, 300, dtype=np.uint64)])
    expected = [int(format(x, f"0{length}b")[::-1], 2) if length else 0 for x in words.tolist()]
    assert wordset.reverse_packed(words, length).tolist() == expected


# --- two worker threads give what one gives ---------------------------------


def on_each_worker_count(run, block):
    """run() on one worker and then on two, blocks of `block` words; the outputs, checked equal."""
    outs = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wordset, "_WORKERS", workers)
            mp.setattr(wordset, "_BLOCK", block)
            outs.append(np.asarray(run()))
    assert outs[0].dtype == outs[1].dtype == np.uint64
    assert np.array_equal(outs[0], outs[1])
    return outs[1].tolist()


def reversed_by_string(words, length):
    return [int(format(x, f"0{length}b")[::-1], 2) for x in words.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n),
                                                      st.integers(1, n))),
       st.integers(0, 400), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_two_workers_give_what_one_gives(shape, count, block, seed):
    # Blocks of at most 8 words, so that two workers split nearly every pass:
    # the window marking and the sorts from 16 words.
    length, width, a = shape
    a = min(a, length - width + 1)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << length, count, dtype=np.uint64)
    ws = WordSet.from_packed(length, words)
    offsets = range(1, length - width + 2)
    assert on_each_worker_count(lambda: factor_set(ws, width).packed, block) == \
        per_window(ws.packed, offsets, width)
    assert on_each_worker_count(lambda: ws.slices(a, a + width - 1).packed, block) == \
        per_window(ws.packed, range(a, a + 1), width)
    assert on_each_worker_count(lambda: wordset.reverse_packed(words, length), block) == \
        reversed_by_string(words, length)
    assert on_each_worker_count(lambda: ws.reverse().packed, block) == \
        sorted(set(reversed_by_string(words, length)))
    # _distinct on few and many sorted runs, and on values that repeat.
    small = min(width, 20)
    items = max((1 << small) // 8 + count - 200, 0)
    chunks, oracle = random_chunks(rng, small, items, 1 + seed % 4, runs=seed % 3 * 20)
    assert on_each_worker_count(lambda: wordset._distinct(np.concatenate(chunks)),
                                block) == oracle
    repeats = rng.permutation(np.repeat(words, rng.integers(1, 4, count)))
    assert on_each_worker_count(lambda: wordset._distinct(repeats.copy()), block) == \
        sorted(set(words.tolist()))


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that gains an entry each time any thread starts."""
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    return starts


ws_40 = WordSet.from_packed(40, np.random.default_rng(40).integers(0, 1 << 40, 64,
                                                                  dtype=np.uint64))


@pytest.mark.parametrize("run", [
    lambda: factor_set(ws_40, 6), lambda: ws_40.slices(3, 8), lambda: factor_set(ws_40, 30),
    ws_40.reverse, lambda: wordset._distinct(ws_40.packed[::-1].copy())],
    ids=["factor_set_table", "slices_table", "factor_set_sort", "reverse", "dedup"])
def test_two_workers_reach_every_split_pass(monkeypatch, thread_starts, run):
    monkeypatch.setattr(wordset, "_WORKERS", 2)
    monkeypatch.setattr(wordset, "_BLOCK", 8)
    run()
    assert thread_starts


def test_reverse_packed_runs_on_the_calling_thread(monkeypatch, thread_starts):
    monkeypatch.setattr(wordset, "_WORKERS", 2)
    monkeypatch.setattr(wordset, "_BLOCK", 8)
    assert wordset.reverse_packed(ws_40.packed, 40).tolist() == \
        reversed_by_string(ws_40.packed, 40)
    assert thread_starts == []


@pytest.mark.parametrize("view", [lambda w: w[::3], lambda w: w[::-1], lambda w: w[:0]],
                         ids=["strided", "reversed", "empty"])
def test_reverse_packed_reads_any_view_as_its_copy(monkeypatch, view):
    monkeypatch.setattr(wordset, "_BLOCK", 8)  # blocks of 2 words, so views span several
    words = view(ws_40.packed)
    got = wordset.reverse_packed(words, 40)
    assert np.array_equal(got, wordset.reverse_packed(words.copy(), 40))
    assert got.tolist() == reversed_by_string(words, 40)


def test_many_workers_take_every_chunk_once():
    # More workers than cores and a short switch interval: a block of words
    # cut twice or skipped, or a window left unmarked, shows here.
    oracle = per_window(ws_40.packed, range(1, 32), 10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wordset, "_WORKERS", 8)
            mp.setattr(wordset, "_BLOCK", 1)
            windows = factor_set(ws_40, 10)
    finally:
        sys.setswitchinterval(interval)
    assert windows.packed.tolist() == oracle


@pytest.mark.parametrize("failing", [1, 0])
def test_a_failing_slice_reaches_the_caller_once_every_thread_is_joined(monkeypatch, failing):
    hooked, ran = [], []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(wordset, "_WORKERS", 2)

    def fn(lo, hi):
        if lo == failing * wordset._BLOCK:
            raise MemoryError(f"slice {failing + 1}")
        time.sleep(0.05)  # the other slice ends last
        ran.append((lo, hi))

    before = threading.active_count()
    with pytest.raises(MemoryError, match=f"slice {failing + 1}"):
        wordset._on_workers(fn, 2 * wordset._BLOCK)
    assert ran == [((1 - failing) * wordset._BLOCK, (2 - failing) * wordset._BLOCK)]
    assert threading.active_count() == before
    assert hooked == []


def test_a_failing_worker_ends_a_command_with_exit_2_and_one_line(monkeypatch, capsys):
    on_workers, splits = wordset._on_workers, []

    def second_slice_fails(fn, n):
        def sliced(lo, hi):
            if lo:
                splits.append(lo)
                raise MemoryError
            fn(lo, hi)
        on_workers(sliced, n)

    monkeypatch.setattr(wordset, "_on_workers", second_slice_fails)
    monkeypatch.setattr(wordset, "_WORKERS", 2)
    monkeypatch.setattr(wordset, "_BLOCK", 1)
    # A cold cache of F_n, so that `factors` cuts F_5's windows and meets the failure.
    monkeypatch.setattr(factors, "_factor_set_Fn_cached",
                        lru_cache(maxsize=None)(factors._factor_set_Fn_cached.__wrapped__))
    assert cli.main(["factors", "-n", "5"]) == 2
    assert splits
    assert capsys.readouterr() == ("", "factors: MemoryError\n")


@pytest.fixture(scope="module")
def cold_process():
    """A fresh interpreter's modules after `import rfw`, and its thread starts on small passes."""
    code = """if True:
        import json, sys, threading
        import rfw
        from rfw import wordset
        loaded = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
        wordset._WORKERS = 2
        starts, start = [], threading.Thread.start
        threading.Thread.start = lambda self: starts.append(1) or start(self)
        rfw.table_rows(7)
        rfw.enumerate_A(8)
        print(json.dumps({"loaded": loaded, "starts": len(starts)}))
    """
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_process_or_future_pools(cold_process):
    assert cold_process["loaded"] == []


def test_small_passes_start_no_thread(cold_process):
    # table_rows(7) and A_8 cut windows from, reverse and sort under 2 _BLOCK words.
    assert cold_process["starts"] == 0


# Words 2^e - 1 and 2^e with e >= 53: their xors round up as one float64, so
# their highest bits are exact only half by half.
wide_words = st.lists(st.one_of(st.integers(53, 64).map(lambda e: (1 << e) - 1),
                                st.integers(53, 63).map(lambda e: 1 << e),
                                st.integers(0, 2**64 - 1)), max_size=20)


@settings(max_examples=200, deadline=None)
@given(st.one_of(word_set().map(lambda case: case[0]),
                 wide_words.map(lambda xs: WordSet.from_packed(64, xs))),
       st.sampled_from([1, 2, 3, 7]))
@example(WordSet(5), 2)
@example(WordSet.from_packed(7, [0b1011001]), 1)
@example(WordSet.from_packed(64, [0, (1 << 54) - 1, 1 << 54]), 1)
def test_suffix_counts_match_per_length_slices(ws, block):
    # Blocks of a few pairs, so the pairs straddle every block boundary.
    n, reversed_words = ws.length, ws.reverse().packed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordset, "_BLOCK", block)
        suffixes = wordset._suffix_counts(ws.packed, n).tolist()
        prefixes = wordset._suffix_counts(reversed_words, n).tolist()
    assert suffixes == [len(ws.slices(n - j + 1, n)) for j in range(n + 1)]
    assert prefixes == [len(ws.slices(1, j)) for j in range(n + 1)]


# --- guards on the dedup and membership kernels ---------------------------

# numpy >= 2.3 deduplicates by hashing in these; on packed words that is
# 35-90x slower than the sort in WordSet's kernel.  `isin` and `in1d` (and
# so `intersect1d`) pick a value table, a Python loop or a sort by their own
# heuristics, whatever `assume_unique` says.  Membership, the verifiers'
# failure witnesses included, goes through `wordset._member`.
HASHING = {"unique", "union1d", "isin", "in1d", "intersect1d", "setxor1d"}


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def hashing_calls(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in HASHING:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_guard_sees_hashing_calls():
    source = ("np.unique(x)\nnp.union1d(a, b)\nnp.intersect1d(a, b)\n"
              "np.setxor1d(a, b, assume_unique=False)\n"
              "np.intersect1d(a, b, assume_unique=True)\n"
              "np.isin(a, b)\nnp.isin(a, b, assume_unique=True)\n"
              "np.in1d(a, b, assume_unique=True)\nisin(a, b)\n"
              "np.setxor1d(a, b, assume_unique=True)\n")
    assert hashing_calls(source) == [
        "line 1: unique", "line 2: union1d", "line 3: intersect1d", "line 4: setxor1d",
        "line 5: intersect1d", "line 6: isin", "line 7: isin", "line 8: in1d", "line 9: isin",
        "line 10: setxor1d"]


def test_library_never_dedups_by_hashing():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name} {hit}" for path in sources
             for hit in hashing_calls(path.read_text())]
    assert found == []


# `import numpy.random` alone adds about 5.5 MB to a process's peak memory,
# 20% of `rfw sample`'s; the sampler reads the stdlib Mersenne Twister instead.
def numpy_random_uses(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or (
                module == ["numpy"] and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in {"np", "numpy"})
        else:
            continue
        if hit:
            found.append(node.lineno)
    return found


def test_guard_sees_numpy_random():
    source = ("import numpy.random\nfrom numpy.random import default_rng\n"
              "from numpy import random\nx = np.random.default_rng(1)\n"
              "import numpy.random.mtrand\nimport random\nrandom.Random(1)\n"
              "self._rng.random()\nfrom numpy import packbits\n")
    assert sorted(numpy_random_uses(source)) == [1, 2, 3, 4, 5]


def test_library_never_uses_numpy_random():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in numpy_random_uses(path.read_text())]
    assert found == []


def calls_outside(source, names, owner=None):
    """Lines that call one of `names` outside the function named `owner`."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == owner
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node) in names
                  and id(node) not in inside)


# Sets are deduplicated one way: `_distinct` is the only code that sorts.
SORTS = {"sort", "argsort", "partition", "argpartition", "lexsort"}


def dedup_calls_outside_distinct(source):
    return calls_outside(source, SORTS, "_distinct")


def test_guard_sees_dedup_calls_outside_distinct():
    source = ("def _distinct(c):\n    c.partition(2)\n    run(lambda: c[1:].sort())\n"
              "    return c.sort(kind='stable')\n"
              "def union(a, b):\n    return np.sort(a + b)\n"
              "x = y.argsort()\nnp.lexsort(k)\nnp.argpartition(a, 1)\nsorted(a)\n"
              "def _dedup(c):\n    c.sort()\nc.partition(1)\n")
    assert dedup_calls_outside_distinct(source) == [6, 7, 8, 9, 12, 13]


def test_only_distinct_calls_the_sort():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in dedup_calls_outside_distinct(path.read_text())]
    assert found == []


# Work is split one way: `_on_workers` cuts a range of one word array into
# slices, each on its own thread, which share no lock and take no shared stream.
LOCKS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def thread_sites(source):
    return sorted(calls_outside(source, LOCKS) +
                  calls_outside(source, {"Thread", "Timer"}, "_on_workers"))


def test_guard_sees_locks_and_threads_outside_on_workers():
    source = ("def _on_workers(fn):\n    threading.Thread(target=fn)\n"
              "    threading.Lock()\n"
              "def _distinct(c):\n    lock = threading.Lock()\n"
              "    Thread(target=len)\nRLock()\nthreading.Condition()\n"
              "threading.Semaphore(2)\nthreading.Timer(1, len)\nthreading.Event()\n")
    assert thread_sites(source) == [3, 5, 6, 7, 8, 9, 10]


def test_only_on_workers_starts_threads_and_nothing_locks():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in thread_sites(path.read_text())]
    assert found == []


# A slice set built only to take its len() costs a dedup of the whole set;
# `wordset._suffix_counts` counts every prefix or suffix length of a set at once.
def counted_slice_sets(source):
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _called_name(node) == "len"
                  and len(node.args) == 1 and isinstance(node.args[0], ast.Call)
                  and _called_name(node.args[0]) == "slices")


def test_guard_sees_counted_slice_sets():
    source = ("len(a.slices(1, k))\nlen(a)\na.slices(1, 2)\n"
              "n = len(enumerate_A(9).slices(2, 3))\nlen(slices(a))\nlen([a.slices(1, 2)])\n")
    assert counted_slice_sets(source) == [1, 4, 5]


def test_library_never_counts_a_slice_set():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in counted_slice_sets(path.read_text())]
    assert found == []


# The paper's propositions have one home: `factors` defines `VerifyResult`,
# every `verify_*` check and `_verify_checks`, the plan that `rfw verify` runs.
def check_definitions(source):
    """(line, name) of each class, function or assigned name in `source` that
    is `VerifyResult`, `_verify_checks` or starts with `verify_`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        else:
            continue
        if name in {"VerifyResult", "_verify_checks"} or name.startswith("verify_"):
            found.add((node.lineno, name))
    return sorted(found)


def test_guard_sees_checks_defined_outside_their_home():
    source = ("class VerifyResult:\n    pass\n"
              "def verify_overlap(n):\n    return VerifyResult(True)\n"
              "verify_reversal = lambda n: None\n"
              "async def verify_later():\n    pass\n"
              "def _verify_checks(max_n):\n    yield verify_overlap\n"
              "def cmd_verify(args):\n    verify = verify_overlap(4)\n"
              "from .factors import verify_superset\n")
    assert check_definitions(source) == [(1, "VerifyResult"), (3, "verify_overlap"),
                                         (5, "verify_reversal"), (6, "verify_later"),
                                         (8, "_verify_checks")]


def test_only_factors_defines_the_checks_and_their_plan():
    found = {path.name: check_definitions(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [name for name, defs in found.items() if defs] == ["factors.py"]
    assert {name for _, name in found["factors.py"]} == {
        "VerifyResult", "_verify_checks", "verify_palindromic", "verify_prefix_stability",
        "verify_superset", "verify_factor_stability", "verify_overlap", "verify_slice_bound",
        "verify_Fn_bound"}
