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
    ones = sum(w.symbol(i) for i in range(1, len(w) + 1))
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
