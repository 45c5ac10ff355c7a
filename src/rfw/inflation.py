"""Inflated random Fibonacci words: construction, sampling, counting, entropy.

The inflation rule maps 0 -> 1 and 1 -> 01 (probability p) or 10
(probability 1-p), the choice drawn independently at each 1.  The set A_n
of all generation-n inflated words satisfies

    A_n = A_{n-1} A_{n-2}  u  A_{n-2} A_{n-1},      n >= 3,

with A_0 = {}, A_1 = {0}, A_2 = {1}.  All members of A_n share the length
f_n (the n-th Fibonacci number), so everything fits a packed 64-bit word
through n = 10 (f_10 = 55).

Three independent routes to |A_n| are provided (a cubic recursion, a
rational recursion, and an explicit product), plus the log-growth sum
whose limit, the topological entropy of the chain, is summed from its series.
The paper's propositions about these sets are checked in `factors`.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_left
from collections.abc import Callable
from fractions import Fraction
from functools import cache, lru_cache, partial

import numpy as np

from .words import CapacityError, Word, _check_length, fibs
from .wordset import WordSet, _both_products, _in_product, _member

#: Largest generation whose words fit 64 symbols (f_10 = 55 <= 64 < 89 = f_11).
MAX_GENERATION = 10
#: Largest generation built as a set; A_10 (3.8e10 words) is reached through `halves`.
MAX_ENUMERATED = MAX_GENERATION - 1


class PrngHandle:
    """Deterministic random source for the inflation sampler.

    Wraps a Mersenne Twister (python stdlib ``random.Random``) seeded with a
    64-bit value, 0 <= seed < 2^64; identical seeds give identical sample
    streams on any platform.  One handle must not be shared between threads.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)  # TypeError for a float, whose stream no int seed gives
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        self.seed = seed
        self._rng = random.Random(seed)

    def coin(self, p: float) -> bool:
        """True with probability p."""
        return self._rng.random() < p

    def coins(self, p: float, k: int) -> np.ndarray:
        """The next k coins as a bool array: what k calls of `coin(p)` return.

        `random()` is x / 2^53 with x = (a >> 5) * 2^26 + (b >> 6) for the
        generator's next two 32-bit outputs a and b, and `getrandbits` fills
        its result with those outputs in turn from the least significant
        32-bit word up (CPython's Mersenne Twister; the tests compare this
        with `coin`).  So one call reads the stream k calls of `random()`
        would, and `random() < p` is x < t for t = `_threshold(p)`, compared
        in two 32-bit halves.
        """
        words = self._rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        a, b = np.frombuffer(words, dtype="<u4").reshape(k, 2).T
        t = _threshold(p)
        # x < t iff a >> 5 < t >> 26, or equal and b >> 6 < t mod 2^26, that is
        # iff a >> 5 < t >> 26 + [b >> 6 < t mod 2^26].
        return a >> 5 < np.add(b >> 6 < t & (1 << 26) - 1, t >> 26, dtype=np.uint32)


def _threshold(p: float) -> int:
    """ceil(p 2^53) within [0, 2^53]: a 53-bit x has x / 2^53 < p iff x is below it.

    p 2^53 is exact for every finite p < 1; NaN and p <= 0 admit no x,
    p >= 1 every x, as `random() < p` does.
    """
    if not p > 0.0:
        return 0
    return 1 << 53 if p >= 1.0 else math.ceil(math.ldexp(p, 53))


# --- sampler ----------------------------------------------------------


def inflate_step(w: Word, p: float, rng: PrngHandle) -> Word:
    """One application of the inflation rule to every symbol of w.

    p = 0 and p = 1 are admitted as the two deterministic degenerations
    (useful as oracles) although the random chain itself has 0 < p < 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    _check_length(w.length + w.bits.bit_count())
    bits = 0
    pos = 0
    for i in range(w.length):
        if w.bits >> i & 1:
            # 1 -> 01 keeps the 1 late; 1 -> 10 puts it first.
            bits |= (1 << pos + 1) if rng.coin(p) else (1 << pos)
            pos += 2
        else:
            bits |= 1 << pos
            pos += 1
    return Word(bits, pos)


def check_capacity(n: int) -> None:
    """Reject a generation beyond MAX_GENERATION, whose words exceed 64 symbols."""
    if n > MAX_GENERATION:
        raise CapacityError(f"generation {n} is beyond {MAX_GENERATION}: words over 64 symbols")


def check_chain(n: int, p: float = 0.0) -> None:
    """Reject a generation outside [1, MAX_GENERATION] or a probability outside [0, 1]."""
    if n < 1:
        raise ValueError(f"generation must be >= 1, got {n}")
    check_capacity(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")


#: Coins `sample_packed` draws at a time: 64 KB of generator output, the
#: coins of 148 chains at n = 10.
_COIN_BLOCK = 1 << 13


@cache
def _step8() -> np.ndarray:
    """One inflation step of every 8-symbol byte b under every 8 coins c: 128 KB.

    Entry b << 8 | c holds the 8 + popcount(b) output symbols of `inflate_step`'s
    rule, applied to all (b, c) at once: from its output start s, a 0 emits 1
    and the k-th 1 of b emits 01 if bit k of c is set, else 10.  Bits of c
    past popcount(b) are the next byte's coins, unread here.
    """
    b, c = np.arange(256, dtype=np.uint16)[:, None], np.arange(256, dtype=np.uint16)
    table = np.zeros((256, 256), dtype=np.uint16)
    s, k = np.zeros_like(b), np.zeros_like(b)
    for i in range(8):
        one = b >> i & 1
        table |= 1 << s + (one & c >> k)
        s += 1 + one
        k += one
    table.flags.writeable = False  # cached: one write would change every later sample
    return table.ravel()


def sample_packed(n: int, p: float, rng: PrngHandle, count: int) -> np.ndarray:
    """Packed words r_n of `count` chains, each n-1 inflation steps from 0.

    Equal to `count` chains of `inflate_step` drawn one after the other from
    the same handle.  r_m has f_{m-1} ones, so a chain uses f_n - 1 coins:
    chain k takes coins [k(f_n - 1), (k+1)(f_n - 1)) of the stream, packed
    into one word in stream order, and each step reads its next f_{m-1}.
    A step takes every chain through one `_step8` lookup per 8 symbols:
    byte j's output starts at 8j plus the 1s (coins) before it.  The zeros
    padding the last byte inflate to 1s past f_{m+1}, which the mask drops.
    """
    check_chain(n, p)
    f = fibs(n)
    # Coin j of a chain is bit j of its word; f_n - 1 <= 54 coins leave the top byte 0.
    coins = np.zeros(count, dtype="<u8")
    packed = coins.view(np.uint8).reshape(count, 8)[:, :(f[n] + 6) // 8]
    chains = _COIN_BLOCK // f[n]
    for lo in range(0, count, chains):
        hi = min(lo + chains, count)
        drawn = rng.coins(p, (hi - lo) * (f[n] - 1)).reshape(hi - lo, f[n] - 1)
        packed[lo:hi] = np.packbits(drawn, axis=1, bitorder="little")
    table, sym = _step8(), np.zeros(count, dtype="<u8")
    # Row k read as a little-endian uint16 is byte << 8 | coins of chain k.
    pair = np.empty((count, 2), dtype=np.uint8)
    for m in range(1, n):
        by_byte = sym.view(np.uint8).reshape(count, 8)
        sym = np.zeros(count, dtype="<u8")
        at = np.zeros(count, dtype=np.uint8)
        for j in range((f[m] + 7) // 8):
            pair[:, 0] = coins.view(np.uint8)[::8]
            pair[:, 1] = by_byte[:, j]
            sym |= table[pair.view("<u2")[:, 0]].astype(np.uint64) << at
            ones = np.bitwise_count(by_byte[:, j])
            coins >>= ones
            at += 8 + ones
        sym &= np.uint64((1 << f[m + 1]) - 1)
    return sym


def sample_chain(n: int, p: float, rng: PrngHandle) -> Word:
    """The generation-n word r_n reached by n-1 inflation steps from 0.

    The per-symbol rule: one chain of `sample_packed`, without its block set-up.
    """
    check_chain(n, p)
    w = Word(0, 1)
    for _ in range(n - 1):
        w = inflate_step(w, p, rng)
    return w


# --- enumeration ------------------------------------------------------


def enumerate_A(n: int) -> WordSet:
    """The full set A_n, canonically ordered, for n <= MAX_ENUMERATED.

    A_10 (~3.8e10 words) is refused with `CapacityError` before anything is
    built; the explicit product is read only to name its size.
    """
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    check_capacity(n)
    if n > MAX_ENUMERATED:
        raise CapacityError(f"|A_{n}| = {count_A_explicit(n)} words: "
                            f"sets are enumerated up to A_{MAX_ENUMERATED}")
    return _enumerate(n)


@lru_cache(maxsize=None)
def _enumerate(n: int) -> WordSet:
    """A_n, each generation built once: A_{n-1}A_{n-2} and the new words of A_{n-2}A_{n-1}."""
    if n == 0:
        return WordSet(0)
    if n == 1:
        return WordSet(1, [Word.parse("0")])
    if n == 2:
        return WordSet(1, [Word.parse("1")])
    return _both_products(_enumerate(n - 1), _enumerate(n - 2))


def halves(n: int) -> tuple[tuple[WordSet, WordSet], ...]:
    """((A_{n-1}, A_{n-2}), (A_{n-2}, A_{n-1})): A_n is the union of their products."""
    if n < 3:
        raise ValueError(f"A_n has two halves for n >= 3, got {n}")
    big, small = enumerate_A(n - 1), enumerate_A(n - 2)
    return (big, small), (small, big)


def membership(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A vectorized test of which packed f_n-symbol words lie in A_n.

    The sets it reads, A_9 at most, are built now.  From n = 3 each of the two
    `halves(n)` (u, v) splits a word into its first |u| symbols (its low
    bits), looked up in u, and the rest, looked up in v; A_1 and A_2 are looked up.
    """
    check_chain(n)
    if n < 3:
        return partial(_member, enumerate_A(n).packed)
    both = halves(n)
    return lambda words: np.logical_or.reduce([_in_product(words, u, v) for u, v in both])


# --- counting ---------------------------------------------------------


def count_A_long(n: int) -> int:
    """|A_n| by the cubic recursion 2|A_{n-1}||A_{n-2}| - |A_{n-2}|^2 |A_{n-3}|.

    Memoized for the life of the process, about 1.7 MB per sequence at n = 36.
    """
    odd, e = _grown(_long, n)
    return odd << e


def count_A_short(n: int) -> int:
    """|A_n| by the rational recursion (n-1)/(n-2) |A_{n-1}| |A_{n-2}|.

    The division is provably exact; a nonzero remainder would mean an
    implementation bug, so it raises rather than rounds.  Memoized for the
    life of the process, about 1.7 MB per sequence at n = 36.
    """
    odd, e = _grown(_short, n)
    return odd << e


def count_A_explicit(n: int) -> int:
    """|A_n| by the closed product (n-1) * prod_{i=2}^{n-1} (n-i)^f_{i-2}.

    With its bases grouped by odd part b, prod b^E_b is one chain of squarings
    over the bits of every E_b.  Memoized per n for the life of the process,
    about 3.3 MB for all n <= 36.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _explicit(n)


def _split(x: int) -> tuple[int, int]:
    """(odd, e) with x == odd << e and odd odd; (0, 0) for x == 0.

    The counting routes keep |A_n| in this form: about half the bits of |A_n|
    are trailing zeros, which a shift then handles in place of a multiplication.
    """
    if x == 0:
        return 0, 0
    e = (x & -x).bit_length() - 1
    return x >> e, e


#: Below this many bits in the smaller factor `_mul` leaves the product to
#: CPython, whose Karatsuba breaks even with the FFT at about 22-24k bits.
_MUL_MIN_BITS = 32_000
#: The longest transform `_mul` takes: 2^25 limbs, two 16 MB factors.
_MUL_MAX_LEN = 1 << 25


@lru_cache(maxsize=None)
def _smooth(top: int) -> list[int]:
    """Every 2^a 3^b 5^c <= top, ascending."""
    out = [1]
    for p in (2, 3, 5):
        out = [x * p**e for x in out for e in range(top.bit_length()) if x * p**e <= top]
    return sorted(out)


def _fft_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for 1 <= n <= 2 _MUL_MAX_LEN."""
    lens = _smooth(2 * _MUL_MAX_LEN)  # the lengths pocketfft does fast, built on first use
    return lens[bisect_left(lens, n)]


def _wide(n: int) -> bool:
    """Whether 12-bit limbs are exact at transform length n: Percival's bound below 1/8."""
    return n * 4095**2 * 16 * math.log2(n) * 2.0**-53 < 1 / 8


def _limbs(x: int, wide: bool) -> np.ndarray:
    """x's little-endian limbs: its bytes, or the two 12-bit halves of every 3 bytes."""
    size = -(-x.bit_length() // 24) * 3 if wide else (x.bit_length() + 7) // 8
    b = np.frombuffer(x.to_bytes(size, "little"), np.uint8)
    if wide:
        b = b.reshape(-1, 3).astype(np.uint16)
        b = np.stack([b[:, 0] | (b[:, 1] & 15) << 8, b[:, 1] >> 4 | b[:, 2] << 4], 1).ravel()
    return b


def _mul(a: int, b: int) -> int:
    """a * b for ints >= 0, by a float FFT over w-bit limbs when both are large.

    Limbs are coefficients of polynomials at 2^w.  The product's, each below
    N (2^w - 1)^2 for transform length N, are rounded from one irfft of the
    product of the two rffts.  Percival's bound (Math. Comp. 72, 2003) on the
    rounding error, N (2^w - 1)^2 (c log2 N) 2^-53 with c = 16 for pocketfft's
    radix 2/3/5 passes (about 12 for radix 2), sets w = 12 where the N of
    12-bit limbs keeps it below 1/8 (`_wide`, N <= 234,375), else w = 8 (0.097
    at N = _MUL_MAX_LEN).  Should a coefficient still land more than 1/4 from
    an integer, CPython does it.
    """
    la, lb = (a.bit_length() + 7) // 8, (b.bit_length() + 7) // 8
    if min(la, lb) < _MUL_MIN_BITS // 8 or la + lb - 1 > _MUL_MAX_LEN:
        return a * b
    n = _fft_len(2 * (-(-la // 3) + -(-lb // 3)) - 1)  # two 12-bit limbs per 3 bytes
    if not (wide := _wide(n)):
        n = _fft_len(la + lb - 1)
    # Each buffer goes once it is used: the buffers, not the ints, set the peak memory.
    spec = np.fft.rfft(_limbs(a, wide), n)
    spec *= spec if b is a else np.fft.rfft(_limbs(b, wide), n)
    c = np.fft.irfft(spec, n)
    del spec
    r = np.rint(c)
    c -= r
    if np.abs(c, out=c).max() > 0.25:
        return a * b
    del c
    # sum_k c_k 2^wk as 48 / w ints: the c_k with k = j mod 48 / w lie 48 bits
    # apart, each below 2^41, so the low 3 uint16 of its int64.  Linear passes.
    w = 12 if wide else 8
    coef = np.zeros(-(-n * w // 48) * 48 // w, np.int64)
    coef[:n] = r
    del r
    parts = coef.view(np.uint16).reshape(-1, 48 // w, 4)[:, :, :3].transpose(1, 0, 2).copy()
    del coef
    return sum(int.from_bytes(p.tobytes(), "little") << w * j for j, p in enumerate(parts))


def _grown(step, n: int) -> tuple[int, int]:
    """step(n) of a memoized recursion, filled in upward so no call recurses deeply."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for m in range(n):
        step(m)
    return step(n)


@lru_cache(maxsize=None)
def _long(m: int) -> tuple[int, int]:
    if m <= 2:
        return _split((0, 1, 1)[m])
    o1, e1 = _long(m - 1)
    o2, e2 = _long(m - 2)
    o3, e3 = _long(m - 3)
    # The cubic recursion factored, c_{m-2} (X - Y) with X = 2 c_{m-1} and
    # Y = c_{m-2} c_{m-3}: X - Y is taken at the smaller of their exponents.
    ex, ey = e1 + 1, e2 + e3
    g = min(ex, ey)
    od, ed = _split((o1 << ex - g) - (_mul(o2, o3) << ey - g))
    return _mul(o2, od), e2 + g + ed


@lru_cache(maxsize=None)
def _short(m: int) -> tuple[int, int]:
    if m <= 2:
        return _split((0, 1, 1)[m])
    o1, e1 = _short(m - 1)
    o2, e2 = _short(m - 2)
    a, ea = _split(m - 1)
    b, eb = _split(m - 2)
    num = a * _mul(o1, o2)
    q, r = divmod(num, b)
    e = e1 + e2 + ea - eb
    if r or e < 0:
        bits = num.bit_length() + e1 + e2 + ea
        raise ArithmeticError(
            f"inexact division at n = {m}: a {bits}-bit numerator over {m - 2}")
    return q, e


def _explicit_exponents(n: int) -> tuple[int, int, dict[int, int]]:
    """(odd, twos, {b: E_b}) with |A_n| = odd * prod b^E_b << twos, for n >= 3.

    A base n - i = b << e adds f_{i-2} to E_b (b > 1) and e f_{i-2} to twos.
    """
    odd, twos = _split(n - 1)
    f = fibs(n)
    exps: dict[int, int] = {}
    for i in range(2, n):
        b, e = _split(n - i)
        twos += e * f[i - 2]
        if b > 1:
            exps[b] = exps.get(b, 0) + f[i - 2]
    return odd, twos, exps


@lru_cache(maxsize=None)
def _explicit(n: int) -> int:
    if n <= 2:
        return (0, 1, 1)[n]
    odd, twos, exps = _explicit_exponents(n)
    out = 1
    for j in reversed(range(max(exps.values(), default=0).bit_length())):
        out = _mul(out, out) * math.prod(b for b, e in exps.items() if e >> j & 1)
    return odd * out << twos


def log_growth(n: int) -> float:
    """log|A_n| / f_n evaluated through the explicit-product sum.

    Fibonacci ratios are formed from exact integers and converted to float
    once, never propagated through a floating recurrence.  f_n itself is
    never made a float: from n = 1477 on it is beyond the float range.
    """
    if n < 3:
        raise ValueError(f"log_growth requires n >= 3, got {n}")
    f = fibs(n)
    total = float(Fraction(math.log(n - 1)) / f[n])
    for i in range(2, n):
        total += f[i - 2] / f[n] * math.log(n - i)
    return total


def entropy_limit(tol: float = 1e-8) -> float:
    """The entropy h = lim log|A_n| / f_n to within tol, for tol in [1e-12, 1e-2].

    As f_{n-m-2}/f_n -> phi^-(m+2), h = sum_{m>=2} t_m with t_m = log m / phi^(m+2).  For
    m >= 3, t_{m+1}/t_m <= (log 4/log 3)/phi < 0.78, so the terms after t_m add up to less
    than 3.6 t_m, at most tol/2 where the sum stops (m >= 3, as 3.6 t_2 > 0.36).  Rounding
    puts t_m off by under (m + 4) 2^-52 relative, 1e-15 in all: |entropy_limit(tol) - h| < tol.
    """
    if not 1e-12 <= tol <= 1e-2:
        raise ValueError(f"tolerance {tol} outside [1e-12, 1e-2]")
    phi = (1 + math.sqrt(5)) / 2
    m, terms = 2, [math.log(2) / phi**4]
    while 3.6 * terms[-1] > tol / 2:
        m += 1
        terms.append(math.log(m) / phi ** (m + 2))
    return math.fsum(terms)
