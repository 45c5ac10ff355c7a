import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfw import CapacityError, PrngHandle, Word, WordSet, fib, inflate_step
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


# Slicing, reversal and concatenation are set operations (`WordSet.slices`,
# `reverse`, `product`); their laws on words are checked on one-word sets.
def one(w):
    return WordSet(len(w), [w])


def test_slice_out_of_range():
    w = one(Word.parse("011"))
    with pytest.raises(IndexError):
        w.slices(0, 2)
    with pytest.raises(IndexError):
        w.slices(2, 4)


def test_concat_capacity():
    long = one(Word.parse("1" * 40))
    with pytest.raises(CapacityError):
        long.product(long)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Word.parse("01x")
    with pytest.raises(CapacityError):
        Word.parse("0" * 65)


@pytest.mark.parametrize("build, length", [
    (lambda: one(Word.parse("1" * 40)).product(one(Word.parse("1" * 30))), 70),
    (lambda: inflate_step(Word(2**34 - 1, 34), 0.5, PrngHandle(0)), 68),
    (lambda: Word.parse("0" * 65), 65),
], ids=["product", "inflate_step", "parse"])
def test_every_64_symbol_bound_is_the_word_length_rule(build, length):
    with pytest.raises(CapacityError, match=rf"^word length {length} outside \[0, 64\]$"):
        build()


def test_bits_beyond_length_rejected():
    with pytest.raises(ValueError):
        Word(bits=4, length=2)


@given(words)
def test_parse_render_round_trip(w):
    assert Word.parse(w.render()) == w


@given(words)
def test_reverse_involution(w):
    assert one(w).reverse().reverse() == one(w)


@given(words, words)
def test_reverse_of_concat(u, v):
    if len(u) + len(v) <= 64:
        assert one(u).product(one(v)).reverse() == one(v).reverse().product(one(u).reverse())


@given(words, st.data())
def test_slice_splits_concatenate(w, data):
    if len(w) == 0:
        return
    a = data.draw(st.integers(1, len(w)))
    c = data.draw(st.integers(a, len(w)))
    b = data.draw(st.integers(a - 1, c))
    assert one(w).slices(a, b).product(one(w).slices(b + 1, c)) == one(w).slices(a, c)
