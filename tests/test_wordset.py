"""WordSet operations against a Python-set oracle, and guards on the set kernels.

Every packed-array fast path is checked against the slow path it replaced:
plain Python sets of ints, bit by bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import Word, WordSet, enumerate_A, factor_set, wordset

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
    assert WordSet.from_packed(ws.length, ws.packed, canonical=True) == ws


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


@given(word_set().flatmap(lambda c: st.tuples(
    st.just(c), st.integers(1, c[0].length + 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a - 1, c[0].length))))))
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


# --- the table and sort paths of _distinct ------------------------------


class TableSpy:
    """Stands in for numpy inside `wordset`, counting the table read-outs."""

    def __init__(self):
        self.reads = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        self.reads += 1
        return np.flatnonzero(a)


def with_path(fn, *args):
    """fn(*args), and "table" if that read out a direct-address table, else "sort"."""
    spy = TableSpy()
    wordset.np = spy
    try:
        out = fn(*args)
    finally:
        wordset.np = np
    return out, "table" if spy.reads else "sort"


def distinct_with_path(chunks, width):
    out, path = with_path(wordset._distinct, chunks, width)
    assert out.dtype == np.uint64 and not out.flags.writeable
    return [int(x) for x in out], path


def expected_path(items, width):
    return "table" if width <= wordset._TABLE_BITS and 8 * items >= 1 << width else "sort"


def random_chunks(rng, width, items, parts):
    """`items` values below 2^width with many duplicates and both edge values,
    split into `parts` chunks at random points; also the Python-set oracle."""
    top = (1 << width) - 1
    pool = np.concatenate([[0, top], rng.integers(0, top, max(items // 2, 1), endpoint=True,
                                                  dtype=np.uint64)]).astype(np.uint64)
    values = rng.choice(pool, items)
    cuts = np.sort(rng.integers(0, items, parts - 1, endpoint=True))
    return [c.copy() for c in np.split(values, cuts)], sorted(set(values.tolist()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(-3, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_distinct_matches_set_oracle(width, offset, parts, seed):
    # Item counts straddle the table threshold 2^width / 8 while that stays
    # small; above 2^17 values the counts are kept small (sort path).
    items = max((1 << width) // 8 + offset, 0) if width <= 17 else 200 + offset
    chunks, oracle = random_chunks(np.random.default_rng(seed), width, items, parts)
    assert distinct_with_path(chunks, width) == (oracle, expected_path(items, width))


@pytest.mark.parametrize("items", [(1 << 19) - 1, 1 << 19])
def test_distinct_at_the_threshold_of_a_wide_table(items):
    chunks, oracle = random_chunks(np.random.default_rng(items), 22, items, 3)
    assert distinct_with_path(chunks, 22) == (oracle, expected_path(items, 22))


def test_distinct_empty_input():
    assert distinct_with_path([], 5) == ([], "sort")
    assert distinct_with_path([np.empty(0, dtype=np.uint64)], 40) == ([], "sort")


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
    windows = [wordset.slice_packed(a.packed, k, k + ell - 1)
               for k in range(1, a.length - ell + 2)]
    assert expected_path(sum(map(len, windows)), ell) == "table"
    by_sort = wordset._dedup(np.concatenate(windows))
    got, path = distinct_with_path(windows, ell)
    assert path == "table"
    assert np.array_equal(np.array(got, dtype=np.uint64), by_sort)


@pytest.mark.parametrize("width,items,path", [(8, 10, "sort"), (8, 20, "table"),
                                              (16, 5000, "table"), (30, 500, "sort")])
def test_union_on_either_path_of_distinct(width, items, path):
    rng = np.random.default_rng(width * items)
    a, b = (WordSet.from_packed(width, rng.integers(0, 1 << width, items, dtype=np.uint64))
            for _ in range(2))
    before = a.packed.copy(), b.packed.copy()
    got, took = with_path(a.union, b)
    assert took == path == expected_path(len(a) + len(b), width)
    assert members(got) == sorted(set(before[0].tolist()) | set(before[1].tolist()))
    assert np.array_equal(a.packed, before[0]) and np.array_equal(b.packed, before[1])


# --- guards on the dedup and membership kernels ---------------------------

# numpy >= 2.3 deduplicates by hashing in these; on packed words that is
# 35-90x slower than the sort in WordSet's kernel.  `isin` and `in1d` (and
# so `intersect1d`) pick a value table, a Python loop or a sort by their own
# heuristics, whatever `assume_unique` says; membership goes through
# `wordset._member`.  Only `setxor1d`, for failure witnesses, is left.
HASHING = {"unique", "union1d", "isin", "in1d", "intersect1d"}
HASHING_UNLESS_UNIQUE = {"setxor1d"}


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _assumes_unique(call):
    return any(kw.arg == "assume_unique" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True for kw in call.keywords)


def hashing_calls(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in HASHING or (name in HASHING_UNLESS_UNIQUE and not _assumes_unique(node)):
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
        "line 5: intersect1d", "line 6: isin", "line 7: isin", "line 8: in1d", "line 9: isin"]


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


def dedup_calls_outside_distinct(source):
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_distinct"
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node) == "_dedup"
                  and id(node) not in inside)


def test_guard_sees_dedup_calls_outside_distinct():
    source = ("def _distinct(c):\n    return _dedup(c)\n"
              "def union(a, b):\n    return _dedup(a + b)\n"
              "x = wordset._dedup(y)\n")
    assert dedup_calls_outside_distinct(source) == [4, 5]


def test_only_distinct_calls_the_sort():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in dedup_calls_outside_distinct(path.read_text())]
    assert found == []
