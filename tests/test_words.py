import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfw import CapacityError, Word, fib
from rfw.words import fibs

words = st.text(alphabet="01", max_size=64).map(Word.parse)


def test_fib_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(9) == 34
    assert fib(10) == 55
    assert [fib(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]


def test_fib_holds_two_terms():
    assert all(fib(n) == fibs(n)[n] for n in range(301))
    tracemalloc.start()
    try:
        fib(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)


def test_slice_examples():
    w = Word.parse("01101")
    assert w.slice(1, 5) == w
    assert str(w.slice(2, 4)) == "110"
    assert w.slice(3, 2) == Word.parse("")


def test_slice_length_convention():
    w = Word.parse("0110100")
    for a in range(1, 8):
        for b in range(a - 1, 8):
            assert len(w.slice(a, b)) == b - a + 1


def test_slice_out_of_range():
    w = Word.parse("011")
    with pytest.raises(IndexError):
        w.slice(0, 2)
    with pytest.raises(IndexError):
        w.slice(2, 4)


def test_reverse_concat_examples():
    assert str(Word.parse("011").reverse()) == "110"
    assert str(Word.parse("10110").reverse()) == "01101"
    assert str(Word.parse("01") + Word.parse("1")) == "011"


def test_concat_capacity():
    long = Word.parse("1" * 40)
    with pytest.raises(CapacityError):
        long.concat(long)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("01x")
    with pytest.raises(CapacityError):
        Word.parse("0" * 65)


def test_bits_beyond_length_rejected():
    with pytest.raises(ValueError):
        Word(bits=4, length=2)


@given(words)
def test_parse_render_round_trip(w):
    assert Word.parse(w.render()) == w


@given(words)
def test_reverse_involution(w):
    assert w.reverse().reverse() == w


@given(words, words)
def test_reverse_of_concat(u, v):
    if len(u) + len(v) <= 64:
        assert (u + v).reverse() == v.reverse() + u.reverse()


@given(words, st.data())
def test_slice_splits_concatenate(w, data):
    if len(w) == 0:
        return
    a = data.draw(st.integers(1, len(w)))
    c = data.draw(st.integers(a, len(w)))
    b = data.draw(st.integers(a - 1, c))
    assert w.slice(a, b) + w.slice(b + 1, c) == w.slice(a, c)


def test_symbol_access():
    w = Word.parse("01101")
    assert [w.symbol(i) for i in range(1, 6)] == [0, 1, 1, 0, 1]
