import functools
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfw import (count_A_explicit, count_A_long, count_A_short, enumerate_A,
                 fib, inflation)

TABLE_COUNTS = {0: 0, 1: 1, 2: 1, 3: 2, 4: 3, 5: 8, 6: 30, 7: 288,
                8: 10080, 9: 3317760}


def test_long_recursion_examples():
    assert count_A_long(2) == 1
    assert count_A_long(5) == 8
    assert count_A_long(9) == 3317760


def test_short_recursion_examples():
    assert count_A_short(3) == 2
    assert count_A_short(7) == 288
    # (9/8) * 3317760 * 10080 in exact integers
    assert count_A_short(10) == 37623398400


def test_explicit_product_examples():
    assert count_A_explicit(3) == 2      # 2 * 1^0
    assert count_A_explicit(4) == 3      # 3 * 2^0 * 1^1
    assert count_A_explicit(8) == 10080


@pytest.mark.parametrize("n", range(10))
def test_all_routes_agree_with_enumeration(n):
    expected = TABLE_COUNTS[n]
    assert count_A_long(n) == expected
    assert count_A_short(n) == expected
    assert count_A_explicit(n) == expected
    if n <= 9:
        assert len(enumerate_A(n)) == expected


def test_formulas_agree_in_arbitrary_precision():
    # |A_36| already has ~2.9e6 digits; larger n live in the acceptance suite
    for n in range(37):
        a, b, c = count_A_long(n), count_A_short(n), count_A_explicit(n)
        assert a == b == c, f"disagreement at n = {n}"


def test_ratio_law():
    # |A_n| (n-2) = |A_{n-1}| |A_{n-2}| (n-1), exactly
    for n in range(3, 10):
        assert (count_A_explicit(n) * (n - 2)
                == count_A_explicit(n - 1) * count_A_explicit(n - 2) * (n - 1))


def test_counts_outgrow_64_bits():
    assert count_A_explicit(15) > 2**64


def test_negative_n_rejected():
    for f in (count_A_long, count_A_short, count_A_explicit):
        with pytest.raises(ValueError):
            f(-1)


# --- the memoized formulas against the literal loops ----------------------


def long_loop(n):
    counts = [0, 1, 1]
    for m in range(3, n + 1):
        counts.append(2 * counts[m - 1] * counts[m - 2]
                      - counts[m - 2] ** 2 * counts[m - 3])
    return counts[n]


def short_loop(n):
    counts = [0, 1, 1]
    for m in range(3, n + 1):
        q, r = divmod((m - 1) * counts[m - 1] * counts[m - 2], m - 2)
        assert r == 0
        counts.append(q)
    return counts[n]


def explicit_loop(n):
    if n <= 2:
        return (0, 1, 1)[n]
    out = n - 1
    for i in range(2, n):
        out *= (n - i) ** fib(i - 2)
    return out


TOP = 30
ORACLES = {count_A_long: long_loop, count_A_short: short_loop,
           count_A_explicit: explicit_loop}


@functools.cache
def oracle(route, n):
    return ORACLES[route](n)


def clear_caches():
    for cached in (inflation._long, inflation._short, inflation._explicit):
        cached.cache_clear()


ORDERS = st.one_of(st.permutations(range(TOP + 1)),
                   st.lists(st.integers(0, TOP), min_size=1, max_size=40))


@settings(max_examples=15, deadline=None)
@given(ORDERS)
@example(list(range(TOP, -1, -1)))
@example([TOP, TOP, 3, TOP, 0, 0, TOP - 1])
def test_memoized_formulas_match_the_loops_in_any_call_order(order):
    clear_caches()
    for n in order:
        for route in ORACLES:
            assert route(n) == oracle(route, n), (route.__name__, n)


def test_negative_n_leaves_the_caches_usable():
    clear_caches()
    for route in ORACLES:
        with pytest.raises(ValueError):
            route(-1)
        assert route(12) == oracle(route, 12)
        with pytest.raises(ValueError):
            route(-1)
        assert route(20) == oracle(route, 20)
        assert route(12) == oracle(route, 12)


def test_threads_asking_for_different_n_get_the_loop_values():
    clear_caches()
    wanted = [TOP, TOP - 3, TOP - 1, TOP - 6]  # more threads than cores
    barrier = threading.Barrier(len(wanted))
    results = {}

    def worker(n):
        barrier.wait(timeout=30)
        results[n] = [route(n) for route in ORACLES]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in wanted]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for n in wanted:
        assert results[n] == [oracle(route, n) for route in ORACLES]


# --- the (odd, e) layout: value = odd << e ---------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 50_000).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)),
       st.integers(0, 50_000))
@example(0, 0)
@example(0, 77)
@example(1, 99_999)
@example((1 << 100_000) - 1, 0)
def test_split_is_the_odd_part_and_the_power_of_two(y, shift):
    x = y << shift
    odd, e = inflation._split(x)
    assert x == odd << e
    if x == 0:
        assert (odd, e) == (0, 0)
    else:
        assert odd & 1
        digits = bin(x)
        assert e == len(digits) - len(digits.rstrip("0"))


def test_cached_terms_are_odd_parts_with_nonnegative_exponents():
    clear_caches()
    count_A_long(TOP)
    count_A_short(TOP)
    for step in (inflation._long, inflation._short):
        assert step.cache_info().currsize == TOP + 1
        assert step(0) == (0, 0)
        for m in range(1, TOP + 1):
            odd, e = step(m)
            assert odd & 1 and e >= 0, (step.__name__, m)
            assert odd << e == oracle(count_A_long, m)


@pytest.mark.parametrize("n,tamper", [
    # The odd part of c_24 off by 2: 23 no longer divides the numerator at n = 25.
    (25, {24: lambda odd, e: (odd + 2, e)}),
    # c_24 and c_25 without their twos: n = 26 divides by 24 = 3 * 2^3.
    (26, {24: lambda odd, e: (odd, 0), 25: lambda odd, e: (odd, 0)}),
])
def test_inexact_short_division_raises_arithmetic_error_naming_n(monkeypatch, n, tamper):
    # The numerator has more than 4300 decimal digits from n = 23 on, too
    # many for Python's int-to-str limit, so the message must not print it.
    clear_caches()
    real = inflation._short

    def stub(m):
        odd, e = real(m)
        return tamper[m](odd, e) if m in tamper else (odd, e)

    monkeypatch.setattr(inflation, "_short", stub)
    try:
        with pytest.raises(ArithmeticError, match=f"inexact division at n = {n}: ") as exc:
            count_A_short(n)
    finally:
        real.cache_clear()  # its terms above the tampered ones are wrong
    assert len(str(exc.value)) < 100
