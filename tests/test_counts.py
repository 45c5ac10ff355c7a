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
