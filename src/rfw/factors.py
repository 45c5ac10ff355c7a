"""Factor sets of the random Fibonacci chain, and the paper's propositions.

F_n is the set of length-f_n factors of the infinite inflation limit; for
n >= 4 it equals F(A_{n+1}, f_n) and can be built *without* materializing
A_{n+1}: A_{n+1} is the union of the products uv of its two halves, and
the window of uv at offset k is u[k, |u|] v[1, k-1+f_n-|u|], a suffix of u
followed by a prefix of v, for k = 1..f_{n-1}+1.  Because the products are
full Cartesian products the window set is exactly (suffix-slice set) x
(prefix-slice set), unioned over both halves and all offsets, and
`wordset._product_windows` marks those 2(f_{n-1}+1) pieces' windows in
aligned table buckets.  That is what lets the n = 9 row of the numerics
table be computed although |A_10| ~ 3.8e10.

Every brute-force check of a proposition about A_n and F_n lives here too:
the seven `verify_*` functions, their `VerifyResult`, and `_verify_checks`,
the plan of which check `rfw verify` runs at which generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .inflation import MAX_ENUMERATED, check_capacity, enumerate_A, halves
from .words import CapacityError, Word, fib
from .wordset import WordSet, _in_product, _member, _product_windows, _suffix_counts, _window_set

DEFAULT_ITEM_CAP = 1 << 26


class ItemCapError(CapacityError):
    """A construction would materialize more candidates than the item cap (`--item-cap`)."""


@dataclass
class FactorReport:
    """One row of the numerics table, blanks encoded as None."""

    n: int
    f_n: int
    a_count: int
    f_count: int | None
    fa_next_count: int | None
    c: Fraction | None


@dataclass
class VerifyResult:
    """Outcome of one brute-force property check, with a witness on failure."""

    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def format_c(c: Fraction) -> str:
    """Round-half-up to 5 decimals; exact integers print as e.g. "2.0"."""
    if c.denominator == 1:
        return f"{c.numerator}.0"
    d = Decimal(c.numerator) / Decimal(c.denominator)
    return str(d.quantize(Decimal("0.00001"), rounding=ROUND_HALF_UP))


def factor_set(s: WordSet, ell: int) -> WordSet:
    """All distinct length-ell factors of the members of s, by sliding window."""
    if not 1 <= ell <= s.length:
        raise IndexError(f"factor length {ell} outside [1, {s.length}]")
    windows = _window_set(s.packed, range(1, s.length - ell + 2), ell)
    return WordSet._of(ell, windows)


@lru_cache(maxsize=None)
def _next_factors(n: int) -> WordSet:
    """F(A_{n+1}, f_n) by direct scan: each A_m's windows are read once."""
    return factor_set(enumerate_A(n + 1), fib(n))


@lru_cache(maxsize=None)
def _factor_set_Fn_cached(n: int) -> WordSet:
    f = fib(n)
    if n <= 3:
        return factor_set(_factor_set_Fn_cached(4), f)
    pieces = [(u.slices(k, u.length).packed, v.slices(1, k - 1 + f - u.length).packed,
               u.length - k + 1) for k in range(1, fib(n - 1) + 2) for u, v in halves(n + 1)]
    return WordSet._of(f, _product_windows(pieces, f))


def factor_set_Fn(n: int, item_cap: int = DEFAULT_ITEM_CAP) -> WordSet:
    """The factor set F_n.

    For n >= 4 this is the union over both `halves(n + 1)` (u, v) and
    k = 1..f_{n-1}+1 of the windows u[k, |u|] v[1, k-1+f_n-|u|], as the
    module docstring describes (A_{n+1} is never materialized).  Their sizes,
    read off the cut counts of A_n and A_{n-1}, must project at most
    `item_cap` candidates before a window is cut.  For n <= 3 F_n is read off
    F_4, every shorter factor lying inside a 3-symbol one.  A generation
    beyond MAX_GENERATION is rejected before any of its windows is listed.
    """
    if n < 1:
        raise ValueError(f"F_n needs n >= 1, got {n}")
    check_capacity(n)
    if n >= 4:
        cuts = {}  # word length: |A_m[1, c]| and |A_m[c+1, f_m]| for c = 0..f_m
        for m in (n, n - 1):
            (heads, tails), whole = _cut_counts(m), len(enumerate_A(m))
            cuts[fib(m)] = (1, *heads, whole), (whole, *tails, 1)
        projected = sum(cuts[u.length][1][c] * cuts[v.length][0][c + fib(n) - u.length]
                        for c in range(fib(n - 1) + 1) for u, v in halves(n + 1))
        if projected > item_cap:
            raise ItemCapError(
                f"windowed F_{n} projects {projected} candidates, above item cap {item_cap}")
    return _factor_set_Fn_cached(n)


# --- cut statistics ---------------------------------------------------


@lru_cache(maxsize=None)
def _cut_counts(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """|A_n[1,k]| and |A_n[k+1,f_n]| for the cuts k = 1..f_n-1, each from one sorted array.

    Any set's length-k prefixes are, one to one, its reversed words' length-k suffixes reversed.
    """
    a = enumerate_A(n)
    heads = _suffix_counts(a.reverse().packed, a.length)[1:-1]
    return tuple(heads.tolist()), tuple(_suffix_counts(a.packed, a.length)[-2:0:-1].tolist())


def c_stat(n: int) -> Fraction:
    """max_k |A_n[1,k]| |A_n[k+1,f_n]| / |A_n| as a reduced exact rational."""
    if n < 3:
        raise ValueError(f"c_n needs n >= 3, got {n}")
    best = max(pre * suf for pre, suf in zip(*_cut_counts(n)))
    return Fraction(best, len(enumerate_A(n)))


# --- proposition verifiers -------------------------------------------


def _least_difference(a: WordSet, b: WordSet) -> Word:
    """The least word in exactly one of two unequal sets of one length."""
    x, y = a.packed, b.packed
    return Word(int(np.concatenate([x[~_member(y, x)], y[~_member(x, y)]]).min()), a.length)


def verify_palindromic(n: int) -> VerifyResult:
    """A_n is closed under word reversal (n >= 1)."""
    a = enumerate_A(n)
    rev = a.reverse()
    if rev == a:
        return VerifyResult(True)
    # Reversal is an involution: the words whose reverse is missing are nobody's reverse.
    missing = a.packed[~_member(rev.packed, a.packed)]
    return VerifyResult(False, f"reverse({Word(int(missing.min()), a.length)}) not in A_{n}")


def verify_overlap(n: int) -> VerifyResult:
    """(A_{n-1}A_{n-2}) inter (A_{n-2}A_{n-1}) = A_{n-2}A_{n-3}A_{n-2}.

    This is the index-shifted, length-consistent form of the overlap
    identity behind the cubic recursion for |A_n|.
    """
    if n < 4:
        raise ValueError(f"overlap identity needs n >= 4, got {n}")
    (u, v), second = halves(n)
    first = u.product(v)  # the intersection is its words that also split as the second pair
    lhs = WordSet._of(first.length, first.packed[_in_product(first.packed, *second)])
    (a2, a3), _ = halves(n - 1)
    rhs = a2.product(a3).product(a2)
    if lhs == rhs:
        return VerifyResult(True)
    return VerifyResult(False, f"overlap mismatch at n = {n}, e.g. {_least_difference(lhs, rhs)}")


@lru_cache(maxsize=None)
def _edges(m: int) -> tuple[WordSet, WordSet]:
    """(A_m[1, f_{m-1}-1], A_m[f_m-f_{m-1}+2, f_m]): each A_m's edges are read once."""
    a, f = enumerate_A(m), fib(m - 1)
    return a.slices(1, f - 1), a.slices(a.length - f + 2, a.length)


def verify_prefix_stability(n: int, k: int) -> VerifyResult:
    """Prefix and suffix slice sets of A_n persist into A_{n+k}.

    For k >= 1 those of A_{n+k}, f_n - 1 symbols long, are read off its
    `_edges`, f_{n+k-1} - 1 >= f_n - 1 symbols long: a slice of a slice set
    is a slice of the set.
    """
    if n < 3 or k < 0:
        raise ValueError(f"prefix stability needs n >= 3, k >= 0, got ({n}, {k})")
    a_n, f_n = enumerate_A(n), fib(n)
    head, tail = _edges(n + k) if k else (a_n, a_n)
    prefix_ok = a_n.slices(1, f_n - 1) == head.slices(1, f_n - 1)
    if not prefix_ok:
        return VerifyResult(False, f"prefix sets A_{n}[1,{f_n - 1}] != A_{n + k}[1,{f_n - 1}]")
    suffix_ok = a_n.slices(2, f_n) == tail.slices(tail.length - f_n + 2, tail.length)
    if not suffix_ok:
        return VerifyResult(False, f"suffix sets of A_{n} and A_{n + k} differ")
    return VerifyResult(True)


def verify_superset(n: int, *, reversed_form: bool = False) -> VerifyResult:
    """A_n lies in u[1, |u|-1] {0,1}^2 v[2, |v|] for (u, v) = halves(n)[reversed_form].

    The first pair gives A_n in A_{n-1}[1, f_{n-1}-1] {0,1}^2 A_{n-2}[2, f_{n-2}]; the
    reversed form, its mirror, reads the second: A_{n-2}[1, f_{n-2}-1] {0,1}^2 A_{n-1}[2, f_{n-1}].
    """
    if n < 4:
        raise ValueError(f"superset check needs n >= 4, got {n}")
    a_n = enumerate_A(n)
    u, v = halves(n)[reversed_form]
    inside = _in_product(a_n.packed, u.slices(1, u.length - 1), v.slices(2, v.length), gap=2)
    if inside.all():
        return VerifyResult(True)
    w = Word(int(a_n.packed[int(np.argmin(inside))]), a_n.length)
    return VerifyResult(False, f"{w} in A_{n} escapes the superset (reversed={reversed_form})")


def verify_factor_stability(n: int, k: int) -> VerifyResult:
    """F(A_{n+1}, f_n) = F(A_{n+k}, f_n), both by direct sliding windows.

    The right side is read off F(A_{n+k}, f_{n+k-1}): F(F(S, l'), l) = F(S, l).
    Holds for n >= 4, k >= 1; at n = 3 it genuinely fails (the factor 00
    only appears from generation 5 on), which callers may assert.
    """
    if n < 1 or k < 1:
        raise ValueError(f"factor stability needs n >= 1, k >= 1, got ({n}, {k})")
    first = _next_factors(n)
    f_n = fib(n)
    later = factor_set(_next_factors(n + k - 1), f_n)
    if first == later:
        return VerifyResult(True)
    w = _least_difference(first, later)
    return VerifyResult(False, f"F(A_{n + 1},f_{n}) != F(A_{n + k},f_{n}), e.g. {w}")


def verify_slice_bound(n: int) -> VerifyResult:
    """|A_n[1,k]| |A_n[k+1,f_n]| <= 4^{n-2} |A_n| at every cut point."""
    if n < 3:
        raise ValueError(f"slice bound needs n >= 3, got {n}")
    bound = 4 ** (n - 2) * len(enumerate_A(n))
    for k, (pre, suf) in enumerate(zip(*_cut_counts(n)), start=1):
        if pre * suf > bound:
            return VerifyResult(False, f"cut k = {k}: {pre} * {suf} > {bound}")
    return VerifyResult(True)


def verify_Fn_bound(n: int, item_cap: int = DEFAULT_ITEM_CAP) -> VerifyResult:
    """|F_n| <= 2 (4^{n-2} f_{n-1} + 1) |A_n|."""
    if n < 3:
        raise ValueError(f"factor-count bound needs n >= 3, got {n}")
    f_count = len(factor_set_Fn(n, item_cap))
    bound = 2 * (4 ** (n - 2) * fib(n - 1) + 1) * len(enumerate_A(n))
    if f_count <= bound:
        return VerifyResult(True)
    return VerifyResult(False, f"|F_{n}| = {f_count} > {bound}")


def _verify_checks(max_n: int, item_cap: int):
    """Yield (property, label, thunk) for every check in scope."""
    top = min(max_n + 1, MAX_ENUMERATED)  # largest generation enumerated by the suite
    for n in range(1, top + 1):
        yield "reversal", f"n={n}", lambda n=n: verify_palindromic(n)
    for n in range(3, top):
        for k in range(1, top - n + 1):
            yield "prefix-stability", f"n={n},k={k}", lambda n=n, k=k: verify_prefix_stability(n, k)
    for n in range(4, min(top, 8) + 1):
        yield "superset", f"n={n}", lambda n=n: verify_superset(n)
        yield "superset-reversed", f"n={n}", lambda n=n: verify_superset(n, reversed_form=True)
    for n in range(4, top - 1):
        for k in range(2, top - n + 1):
            yield "factor-stability", f"n={n},k={k}", lambda n=n, k=k: verify_factor_stability(n, k)
    yield "factor-instability-n3", "n=3,k=2 (expected failure)", lambda: VerifyResult(
        not verify_factor_stability(3, 2).ok,
        "F(A_4,f_3) = F(A_5,f_3) although the paper-documented 00 factor should break it")
    for n in range(4, min(top, 8) + 1):
        yield "overlap", f"n={n}", lambda n=n: verify_overlap(n)
    for n in range(3, top + 1):
        yield "cut-bound", f"n={n}", lambda n=n: verify_slice_bound(n)
    for n in range(3, max_n + 1):
        yield "factor-bound", f"n={n}", lambda n=n: verify_Fn_bound(n, item_cap)


# --- table assembly ---------------------------------------------------


def fa_next_count(n: int, item_cap: int = DEFAULT_ITEM_CAP) -> int:
    """|F(A_{n+1}, f_n)| by direct scan of A_{n+1} where enumerable.

    At n = 9 the direct scan would need A_10; by factor stability the value
    equals |F_9|, delivered by the windowed construction instead.
    """
    if n < 1:
        raise ValueError(f"F(A_{{n+1}}, f_n) needs n >= 1, got {n}")
    if n + 1 <= MAX_ENUMERATED:
        return len(_next_factors(n))
    return len(factor_set_Fn(n, item_cap))


def build_report(n: int, item_cap: int = DEFAULT_ITEM_CAP) -> FactorReport:
    """Compute one full table row; blank cells (per the table layout) are None."""
    a_count = len(enumerate_A(n))
    if n == 0:
        return FactorReport(0, 0, a_count, None, None, None)
    return FactorReport(n, fib(n), a_count, len(factor_set_Fn(n, item_cap)),
                        fa_next_count(n, item_cap), c_stat(n) if n >= 3 else None)


def table_rows(max_n: int, item_cap: int = DEFAULT_ITEM_CAP) -> list[FactorReport]:
    return [build_report(n, item_cap) for n in range(max_n + 1)]
