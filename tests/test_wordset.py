"""WordSet operations against a Python-set oracle, and a guard on the dedup kernel.

Every packed-array fast path is checked against the slow path it replaced:
plain Python sets of ints, bit by bit.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import WordSet, factor_set

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


@given(two_sets())
def test_union_intersection_issubset(case):
    (s, a), (t, b) = case
    assert members(s.union(t)) == sorted(a | b)
    assert members(s.intersection(t)) == sorted(a & b)
    assert s.issubset(t) == (a <= b)
    assert s.issubset(s.union(t))


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


# --- guard against hash-based dedup -------------------------------------

# numpy >= 2.3 deduplicates by hashing in these; on packed words that is
# 35-90x slower than the sort in WordSet's kernel.
HASHING = {"unique", "union1d"}
HASHING_UNLESS_UNIQUE = {"intersect1d", "setxor1d"}


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
              "np.intersect1d(a, b, assume_unique=True)\n")
    assert hashing_calls(source) == [
        "line 1: unique", "line 2: union1d", "line 3: intersect1d", "line 4: setxor1d"]


def test_library_never_dedups_by_hashing():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name} {hit}" for path in sources
             for hit in hashing_calls(path.read_text())]
    assert found == []
