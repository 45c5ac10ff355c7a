"""Inflated random Fibonacci words: construction, counting, entropy.

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
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .words import CapacityError, Word, fibs
from .wordset import WordSet, _member, pack_rows, reverse_packed, slice_packed

DEFAULT_BUDGET = 10**8
DEFAULT_ITEM_CAP = 1 << 26

#: Largest generation whose words fit 64 symbols (f_10 = 55 <= 64 < 89 = f_11).
MAX_GENERATION = 10
#: Largest generation built as a set; A_10 (3.8e10 words) is reached through `halves`.
MAX_ENUMERATED = MAX_GENERATION - 1


class BudgetError(RuntimeError):
    """A requested enumeration would exceed the fixed element budget, DEFAULT_BUDGET."""


class ItemCapError(BudgetError):
    """A construction would materialize more candidates than the item cap."""


@dataclass
class VerifyResult:
    """Outcome of one brute-force property check, with a witness on failure."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class PrngHandle:
    """Deterministic random source for the inflation sampler.

    Wraps a Mersenne Twister (python stdlib ``random.Random``) seeded with a
    fixed 64-bit value; identical seeds give identical sample streams on any
    platform.  One handle must not be shared between threads.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int) -> None:
        self.seed = seed & (1 << 64) - 1
        self._rng = random.Random(self.seed)

    def coin(self, p: float) -> bool:
        """True with probability p."""
        return self._rng.random() < p

    def coins(self, p: float, k: int) -> np.ndarray:
        """The next k coins as a bool array: what k calls of `coin(p)` return.

        `random()` is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for the generator's
        next two 32-bit outputs a and b, and `getrandbits` fills its result
        with those outputs in turn from the least significant 32-bit word up
        (CPython's Mersenne Twister; the tests compare this with `coin`).  So
        one call reads the stream k calls of `random()` would, and the same
        float arithmetic gives the same comparisons.
        """
        if k == 0:
            return np.zeros(0, dtype=bool)
        words = self._rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        a, b = np.frombuffer(words, dtype="<u4").reshape(k, 2).T
        return ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0) < p


# --- sampler ----------------------------------------------------------


def inflate_step(w: Word, p: float, rng: PrngHandle) -> Word:
    """One application of the inflation rule to every symbol of w.

    p = 0 and p = 1 are admitted as the two deterministic degenerations
    (useful as oracles) although the random chain itself has 0 < p < 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    zeros = w.length - w.bits.bit_count()
    if zeros + 2 * (w.length - zeros) > 64:
        raise CapacityError(f"inflating a word with {w.length - zeros} ones exceeds capacity")
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


def sample_packed(n: int, p: float, rng: PrngHandle, count: int) -> np.ndarray:
    """Packed words r_n of `count` chains, each n-1 inflation steps from 0.

    Equal to `count` chains of `inflate_step` drawn one after the other from
    the same handle.  r_m has f_{m-1} ones, so a chain uses f_n - 1 coins:
    chain k takes coins [k(f_n - 1), (k+1)(f_n - 1)) of the stream, step by
    step, and within a step one per 1 in position order.  Every symbol emits
    exactly one 1, a 0 at its output start s and a 1 at s + coin, so a step
    over all chains is a cumulative sum of symbol widths and one scatter.
    """
    check_chain(n, p)
    f = fibs(n)
    coins = rng.coins(p, count * (f[n] - 1)).reshape(count, f[n] - 1).view(np.uint8)
    sym = np.zeros((count, 1), dtype=np.uint8)
    for m in range(1, n):
        # Step m reads coins [f_m - 1, f_{m+1} - 1) of each chain.
        late = np.zeros_like(sym)
        late[sym.view(bool)] = coins[:, f[m] - 1:f[m + 1] - 1].ravel()
        width = sym + 1
        start = np.cumsum(width, axis=1, dtype=np.intp) - width
        sym = np.zeros((count, f[m + 1]), dtype=np.uint8)
        np.put_along_axis(sym, start + late, 1, axis=1)
    return pack_rows(sym)


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
    """The full set A_n, canonically ordered.

    The predicted size (explicit product formula) is checked against
    DEFAULT_BUDGET before anything is built, so A_10 (~3.8e10 words) is refused.
    """
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    check_capacity(n)
    predicted = count_A_explicit(n)
    if predicted > DEFAULT_BUDGET:
        raise BudgetError(f"|A_{n}| = {predicted} exceeds budget {DEFAULT_BUDGET}")
    return _enumerate(n)


@lru_cache(maxsize=None)
def _enumerate(n: int) -> WordSet:
    if n == 0:
        return WordSet(0)
    if n == 1:
        return WordSet(1, [Word.parse("0")])
    if n == 2:
        return WordSet(1, [Word.parse("1")])
    big, small = _enumerate(n - 1), _enumerate(n - 2)
    return big.product(small).union(small.product(big))


def halves(n: int) -> tuple[tuple[WordSet, WordSet], ...]:
    """((A_{n-1}, A_{n-2}), (A_{n-2}, A_{n-1})): A_n is the union of their products."""
    if n < 3:
        raise ValueError(f"A_n has two halves for n >= 3, got {n}")
    big, small = enumerate_A(n - 1), enumerate_A(n - 2)
    return (big, small), (small, big)


def membership(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """A vectorized test of which packed f_n-symbol words lie in A_n.

    The sets it reads, A_9 at most, are built now.  Above MAX_ENUMERATED each
    of the two `halves(n)` (u, v) splits a word into its first |u| symbols
    (its low bits), looked up in u, and the rest, looked up in v.
    """
    check_chain(n)
    if n <= MAX_ENUMERATED:
        return partial(_member, enumerate_A(n).packed)
    orders = [(u.length, u.packed, v.packed) for u, v in halves(n)]
    return lambda words: np.logical_or.reduce(
        [_member(first, slice_packed(words, 1, cut)) & _member(second, words >> np.uint64(cut))
         for cut, first, second in orders])


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

    Memoized per n for the life of the process, about 3.3 MB for all n <= 36.
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
#: CPython, whose Karatsuba breaks even with the FFT at about 22k bits.
_MUL_MIN_BITS = 32_000
#: The longest transform `_mul` takes: 2^25 limbs, two 16 MB factors.
_MUL_MAX_LEN = 1 << 25


def _fft_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (n >= 1), a length pocketfft does fast."""
    odd = (3**i * 5**j for i in range(n.bit_length()) for j in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def _mul(a: int, b: int) -> int:
    """a * b for ints >= 0, by a float FFT over byte limbs when both are large.

    Bytes are coefficients of polynomials at 256.  The product's, each below
    N 255^2 for transform length N, are rounded from one irfft of the product
    of the two rffts.  Percival's bound (Math. Comp. 72, 2003) on the rounding
    error, N 255^2 (c log2 N) 2^-53 with c = 16 for pocketfft's radix 2/3/5
    passes (about 12 for radix 2), is 0.097 < 1/8 at N = _MUL_MAX_LEN.  Should
    a coefficient still land more than 1/4 from an integer, CPython does it.
    """
    la, lb = (a.bit_length() + 7) // 8, (b.bit_length() + 7) // 8
    if min(la, lb) < _MUL_MIN_BITS // 8 or la + lb - 1 > _MUL_MAX_LEN:
        return a * b
    n = _fft_len(la + lb - 1)
    # Each buffer goes once it is used: the buffers, not the ints, set the peak memory.
    spec = np.fft.rfft(np.frombuffer(a.to_bytes(la, "little"), np.uint8), n)
    spec *= spec if b is a else np.fft.rfft(np.frombuffer(b.to_bytes(lb, "little"), np.uint8), n)
    c = np.fft.irfft(spec, n)
    del spec
    r = np.rint(c)
    c -= r
    if np.abs(c, out=c).max() > 0.25:
        return a * b
    del c
    limbs = r.astype("<i8").view(np.uint8).reshape(n, 8)
    del r
    # sum_k c_k 256^k, read as byte j of every c_k shifted by 8j: linear passes.
    return sum(int.from_bytes(limbs[:, j].tobytes(), "little") << 8 * j
               for j in range(((min(la, lb) * 255**2).bit_length() + 7) // 8))


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


@lru_cache(maxsize=None)
def _explicit(n: int) -> int:
    if n <= 2:
        return (0, 1, 1)[n]
    odd, twos = _split(n - 1)
    f = fibs(n)
    for i in range(2, n):
        b, e = _split(n - i)
        odd = _mul(odd, b ** f[i - 2])
        twos += e * f[i - 2]
    return odd << twos


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


# --- brute-force property checks -------------------------------------


def verify_palindromic(n: int) -> VerifyResult:
    """A_n is closed under word reversal (n >= 1)."""
    a = enumerate_A(n)
    if a.reverse() == a:
        return VerifyResult(True)
    first = np.argmin(_member(a.packed, reverse_packed(a.packed, a.length)))
    return VerifyResult(False, f"reverse({Word(int(a.packed[first]), a.length)}) not in A_{n}")


def verify_overlap(n: int) -> VerifyResult:
    """(A_{n-1}A_{n-2}) inter (A_{n-2}A_{n-1}) = A_{n-2}A_{n-3}A_{n-2}.

    This is the index-shifted, length-consistent form of the overlap
    identity behind the cubic recursion for |A_n|.
    """
    if n < 4:
        raise ValueError(f"overlap identity needs n >= 4, got {n}")
    first, second = (u.product(v) for u, v in halves(n))
    lhs = first.intersection(second)
    (a2, a3), _ = halves(n - 1)
    rhs = a2.product(a3).product(a2)
    if lhs == rhs:
        return VerifyResult(True)
    diff = np.setxor1d(lhs.packed, rhs.packed, assume_unique=True)
    w = Word(int(diff[0]), lhs.length)
    return VerifyResult(False, f"overlap mismatch at n = {n}, e.g. {w}")
