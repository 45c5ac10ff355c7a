import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfw import (CapacityError, PrngHandle, Word, enumerate_A, fib,
                 inflate_step, inflation, sample_chain, sample_packed)
from rfw.cli import _SAMPLE_BLOCK, main


def test_zero_inflates_to_one():
    w = inflate_step(Word.parse("0"), 0.5, PrngHandle(1))
    assert str(w) == "1"


def test_deterministic_branches():
    assert str(inflate_step(Word.parse("1"), 1.0, PrngHandle(1))) == "01"
    assert str(inflate_step(Word.parse("1"), 0.0, PrngHandle(1))) == "10"


def test_two_ones_enumerate_both_choices():
    seen = {str(inflate_step(Word.parse("11"), 0.5, PrngHandle(s)))
            for s in range(200)}
    assert seen == {"0101", "0110", "1001", "1010"}


def test_output_length_rule():
    rng = PrngHandle(3)
    w = Word.parse("0110101")
    out = inflate_step(w, 0.5, rng)
    ones = w.bits.bit_count()
    assert len(out) == (len(w) - ones) + 2 * ones


def test_chain_basics():
    rng = PrngHandle(0)
    assert str(sample_chain(1, 0.5, rng)) == "0"
    assert str(sample_chain(2, 0.5, rng)) == "1"
    assert str(sample_chain(3, 0.5, rng)) in {"01", "10"}


def test_deterministic_chain_at_p_one():
    # 0 -> 1 -> 01 -> 101 -> 01101
    rng = PrngHandle(0)
    expected = ["0", "1", "01", "101", "01101"]
    for n, want in enumerate(expected, start=1):
        assert str(sample_chain(n, 1.0, rng)) == want


def test_step_table_refuses_a_write():
    with pytest.raises(ValueError, match="read-only"):
        inflation._step8()[0] = 0


def test_chain_length_cap():
    with pytest.raises(CapacityError):
        sample_chain(11, 0.5, PrngHandle(0))


def test_same_seed_same_stream():
    a = [str(sample_chain(6, 0.3, PrngHandle(42))) for _ in range(5)]
    b = [str(sample_chain(6, 0.3, PrngHandle(42))) for _ in range(5)]
    assert a == b


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", range(1, 9))
def test_samples_are_members(n, p):
    members = enumerate_A(n)
    for seed in range(50):
        assert sample_chain(n, p, PrngHandle(seed)) in members


def test_coverage_of_A5():
    members = {str(w) for w in enumerate_A(5)}
    seen = {str(sample_chain(5, 0.5, PrngHandle(s))) for s in range(2000)}
    assert seen == members


def test_bad_probability_rejected():
    with pytest.raises(ValueError):
        inflate_step(Word.parse("1"), 1.5, PrngHandle(0))


# --- the block sampler against the per-symbol rule ------------------------


def chains_by_inflate_step(n, p, rng, count):
    """`count` chains drawn one after the other, one `inflate_step` per generation."""
    out = []
    for _ in range(count):
        w = Word.parse("0")
        for _ in range(n - 1):
            w = inflate_step(w, p, rng)
        out.append(w.bits)
    return out


PROBABILITY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
SEED = st.integers(0, (1 << 64) - 1)


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=12, deadline=None)
@given(p=PROBABILITY, seed=SEED,
       count=st.one_of(st.integers(0, 3), st.integers(0, 2 * _SAMPLE_BLOCK + 3)))
def test_sample_packed_matches_inflate_step(n, p, seed, count):
    batch, oracle = PrngHandle(seed), PrngHandle(seed)
    packed = sample_packed(n, p, batch, count)
    assert packed.dtype == np.uint64
    assert packed.tolist() == chains_by_inflate_step(n, p, oracle, count)
    # The batch read exactly the coins its chains stand for, so the stream goes on.
    assert [batch.coin(0.5) for _ in range(7)] == [oracle.coin(0.5) for _ in range(7)]


@settings(max_examples=200)
@given(PROBABILITY, SEED, st.integers(0, 300))
def test_coins_are_the_coin_stream(p, seed, k):
    batch, oracle = PrngHandle(seed), PrngHandle(seed)
    coins = batch.coins(p, k)
    assert coins.dtype == bool
    assert coins.tolist() == [oracle.coin(p) for _ in range(k)]
    assert batch.coin(p) == oracle.coin(p)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
def test_seeds_outside_64_bits_are_refused_not_aliased(seed):
    # Masked to 64 bits, -1 would be 2^64 - 1 and 2^64 would be 0.
    with pytest.raises(ValueError, match="outside"):
        PrngHandle(seed)
    assert PrngHandle((1 << 64) - 1).seed == (1 << 64) - 1


@pytest.mark.parametrize("seed", [1.5, 2.0, "2"])
def test_seeds_that_are_not_ints_are_refused(seed):
    with pytest.raises(TypeError):
        PrngHandle(seed)
    handle = PrngHandle(np.uint64(2))  # an integer type other than int is taken as its value
    assert type(handle.seed) is int
    assert handle.coins(0.5, 64).tolist() == PrngHandle(2).coins(0.5, 64).tolist()


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_no_coins_leave_the_stream_where_it_was(p):
    handle, fresh = PrngHandle(11), PrngHandle(11)
    coins = handle.coins(p, 0)
    assert coins.dtype == bool and coins.shape == (0,)
    assert handle.coin(p) == fresh.coin(p)
    assert [handle.coin(0.5) for _ in range(8)] == [fresh.coin(0.5) for _ in range(8)]


@given(SEED, st.integers(0, 20))
def test_a_draw_equal_to_p_is_tails(seed, k):
    # `coin` is `random() < p`, so the draw that equals p must come out False.
    probe, oracle = PrngHandle(seed), PrngHandle(seed)
    p = [probe._rng.random() for _ in range(k + 1)][k]
    coins = PrngHandle(seed).coins(p, k + 1)
    assert coins.tolist() == [oracle.coin(p) for _ in range(k + 1)]
    assert not coins[k]


@pytest.mark.parametrize("bad", [0, 31])  # 00000 and 11111: below and above all of A_5
@pytest.mark.parametrize("at", [0, 5, _SAMPLE_BLOCK + 3])
def test_check_prints_up_to_the_first_non_member(capsys, monkeypatch, at, bad):
    stream = np.resize(enumerate_A(5).packed, 2 * _SAMPLE_BLOCK)
    stream[at] = bad
    drawn = 0

    def stub(n, p, rng, count):
        nonlocal drawn
        drawn += count
        return stream[drawn - count:drawn]

    monkeypatch.setattr(inflation, "sample_packed", stub)
    code = main(["sample", "-n", "5", "--count", str(len(stream)), "--check"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "".join(f"{Word(int(x), 5)}\n" for x in stream[:at])
    assert err == f"sample: {Word(bad, 5)} not in A_5\n"


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=25, deadline=None)
@given(p=PROBABILITY, seed=SEED)
def test_sample_chain_is_one_chain_of_sample_packed(n, p, seed):
    single, batch = PrngHandle(seed), PrngHandle(seed)
    for _ in range(3):
        w = sample_chain(n, p, single)
        assert (w.bits, w.length) == (int(sample_packed(n, p, batch, 1)[0]), fib(n))
    assert single.coin(0.5) == batch.coin(0.5)


# --- the edges of the coin comparison ----------------------------------

EDGES = [math.nan, -0.0, 0.0, -1.0, 2.0, math.inf, -math.inf, 5e-324, 1 - 2**-53, 1.0]


@pytest.mark.parametrize("p", EDGES, ids=repr)
@settings(max_examples=20)
@given(seed=SEED, k=st.integers(0, 40))
def test_coins_are_the_coin_stream_at_the_edges(p, seed, k):
    # Values outside [0, 1] that `coin` still answers, both zeros, and the p
    # nearest 0 and 1 from inside.
    batch, oracle = PrngHandle(seed), PrngHandle(seed)
    assert batch.coins(p, k).tolist() == [oracle.coin(p) for _ in range(k)]
    assert batch.coin(0.5) == oracle.coin(0.5)


@settings(max_examples=100)
@given(SEED, st.integers(0, 20), st.sampled_from([-math.inf, math.inf]))
def test_a_draw_one_step_from_p_falls_on_its_side(seed, k, towards):
    probe, oracle = PrngHandle(seed), PrngHandle(seed)
    p = math.nextafter([probe._rng.random() for _ in range(k + 1)][k], towards)
    coins = PrngHandle(seed).coins(p, k + 1)
    assert coins.tolist() == [oracle.coin(p) for _ in range(k + 1)]
    assert coins[k] == (towards > 0)


# --- every coin sequence, by both samplers ------------------------------


class ScriptedCoins:
    """A coin source that hands out fixed coins, through `coin` or `coins`, whatever p."""

    def __init__(self, coins):
        self.script = list(coins)
        self.used = 0

    def coin(self, p):
        self.used += 1
        return self.script[self.used - 1]

    def coins(self, p, k):
        self.used += k
        return np.array(self.script[self.used - k:self.used], dtype=bool)


def bits(value, k):
    return [value >> j & 1 == 1 for j in range(k)]


def every_coin_sequence(k):
    """The 2^k sequences of k coins, one after the other."""
    return list(chain.from_iterable(bits(s, k) for s in range(1 << k)))


@pytest.mark.parametrize("n", range(1, 8))
def test_every_coin_sequence_gives_the_same_word_by_both_samplers(n):
    # All 2^(f_n - 1) coin sequences of a chain, 4096 at n = 7: their words
    # are A_n, and the block sampler and the per-symbol rule agree on each.
    k = fib(n) - 1
    script = every_coin_sequence(k)
    batch, single = ScriptedCoins(script), ScriptedCoins(script)
    packed = sample_packed(n, 0.5, batch, 1 << k)
    words = [sample_chain(n, 0.5, single).bits for _ in range(1 << k)]
    assert batch.used == single.used == len(script)
    assert packed.tolist() == words
    assert set(words) == set(enumerate_A(n).packed.tolist())


def test_step_table_is_inflate_step_on_every_byte_and_its_coins():
    table = inflation._step8()
    assert table.dtype == np.uint16 and table.shape == (1 << 16,)
    # The 3^8 entries whose coins past popcount(b) are 0, one per byte and coin sequence.
    got, want = [], []
    for b in range(256):
        ones = b.bit_count()
        for c in range(1 << ones):
            w = inflate_step(Word(b, 8), 0.5, ScriptedCoins(bits(c, ones)))
            got.append((int(table[b << 8 | c]), 8 + ones))
            want.append((w.bits, w.length))
    assert len(got) == 3**8 and got == want
    # The coins past popcount(b) are the next byte's: no entry reads them.
    b, c = np.divmod(np.arange(1 << 16), 256)
    read = (1 << np.bitwise_count(b).astype(np.int64)) - 1
    assert (table == table[b << 8 | c & read]).all()


# --- the sampler's law ----------------------------------------------------


@cache
def law(n, p):
    """P_n(w), the chance that a chain gives w, by the first coin's split.

    The first coin turns r_2 = 1 into 01 with chance p, into 10 with 1 - p;
    its 0 then grows into r_{n-2} and its 1 into r_{n-1}, on coins of their
    own.  So P_n is p P_{n-2} x P_{n-1} over w = xy plus (1 - p) P_{n-1} x
    P_{n-2} over w = yx.  At p = Fraction(1, 2), 2^(f_n - 1) P_n(w) is N_n(w),
    the number of coin sequences that give w.
    """
    if n <= 2:
        return {n - 1: 1}
    out = Counter()
    for x, px in law(n - 2, p).items():
        for y, py in law(n - 1, p).items():
            out[x | y << fib(n - 2)] += p * px * py
            out[y | x << fib(n - 1)] += (1 - p) * px * py
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_every_word_takes_as_many_coin_sequences_as_the_law_gives(n):
    k = fib(n) - 1
    words = Counter(sample_packed(n, 0.5, ScriptedCoins(every_coin_sequence(k)), 1 << k).tolist())
    assert words == {w: c * 2**k for w, c in law(n, Fraction(1, 2)).items()}
    assert set(words) == set(enumerate_A(n).packed.tolist())


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_samples_follow_the_law(seed, p):
    # Pearson's chi^2 over the 30 words of A_6, 29 degrees of freedom: 74 is
    # its 1e-5 tail by Wilson-Hilferty.  Seeds 1-3 read 19.7-33.7; a sampler
    # with p and 1 - p swapped reads about 39,000 at p = 0.3 (at p = 0.5 the
    # law is its own reversal, so a swap cannot show).
    count, expected = 100_000, law(6, p)
    seen = Counter(sample_packed(6, p, PrngHandle(seed), count).tolist())
    assert set(seen) <= set(expected)
    chi2 = sum((seen[w] - count * q) ** 2 / (count * q) for w, q in expected.items())
    assert len(expected) == 30 and chi2 < 74
