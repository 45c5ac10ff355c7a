import functools
import math
import sys
import threading

import numpy as np
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


# --- the FFT product kernel against plain `*` -----------------------------

BIG = inflation._MUL_MIN_BITS


def all_ones(nbytes):
    return (1 << 8 * nbytes) - 1


@pytest.fixture
def irfft_calls(monkeypatch):
    """Counts the transforms `_mul` runs: one irfft per product it takes."""
    calls = []
    real = np.fft.irfft

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    return calls


def sized(bits):
    return st.one_of(st.integers(0, (1 << bits) - 1), st.just(1 << bits - 1),
                     st.just((1 << bits) - 1))


# Sizes anywhere up to three times the crossover, and close around it.
OPERANDS = st.one_of(st.integers(1, 3 * BIG), st.integers(BIG - 64, BIG + 64)).flatmap(sized)


@settings(max_examples=60, deadline=None)
@given(OPERANDS, OPERANDS, st.booleans())
@example(0, 1 << 5 * BIG, False)
@example(1, (1 << 2 * BIG) - 1, False)
@example(1 << BIG, 1 << 3 * BIG, False)
@example((1 << BIG) - 1, 0, True)
@example((1 << BIG + 8) - 1, (1 << 2 * BIG) - 3, False)
def test_mul_is_the_plain_product(a, b, same):
    if same:
        b = a
    assert inflation._mul(a, b) == a * b


def test_mul_takes_the_fft_branch_above_the_crossover(irfft_calls):
    small, large = (1 << BIG - 9) + 1, (1 << BIG + 1) - 1
    assert inflation._mul(small, large) == small * large
    assert irfft_calls == []
    assert inflation._mul(large, large) == large * large
    assert len(irfft_calls) == 1


@pytest.mark.parametrize("la,lb", [
    (BIG // 8, BIG // 8), (BIG // 8, 3 << 14), (1 << 16, 1 << 16),
    (1 << 19, (1 << 19) + 1), (1 << 20, 1 << 17), (1 << 20, (1 << 20) - 1)])
def test_mul_of_all_ones_is_exact(irfft_calls, la, lb):
    # Every limb is 255, every coefficient as large as it can be: the
    # worst case for rounding.  (2^x - 1)(2^y - 1) has a closed form.
    a, b = all_ones(la), all_ones(lb)
    assert inflation._mul(a, b) == (1 << 8 * (la + lb)) - (1 << 8 * la) - (1 << 8 * lb) + 1
    assert inflation._mul(a, a) == (1 << 16 * la) - (1 << 8 * la + 1) + 1
    assert len(irfft_calls) == 2


def percival_bound(n):
    # The docstring of `_mul`: N 255^2 (c log2 N) 2^-53 with c = 16.
    return n * 255**2 * 16 * math.log2(n) * 2.0**-53


def test_largest_transform_is_inside_the_rounding_bound():
    assert inflation._MUL_MAX_LEN >= 1 << 24
    assert percival_bound(inflation._MUL_MAX_LEN) < 1 / 8


@pytest.mark.heavy
def test_mul_of_all_ones_at_the_largest_transform(irfft_calls):
    # About 7 s and 1.3 GB: 16 MB factors, a 2^25-point transform.
    la = (inflation._MUL_MAX_LEN + 1) // 2
    lb = inflation._MUL_MAX_LEN + 1 - la
    a, b = all_ones(la), all_ones(lb)
    assert inflation._mul(a, b) == (1 << 8 * (la + lb)) - (1 << 8 * la) - (1 << 8 * lb) + 1
    assert irfft_calls == [inflation._MUL_MAX_LEN]


def test_longer_products_are_left_to_cpython(monkeypatch, irfft_calls):
    monkeypatch.setattr(inflation, "_MUL_MAX_LEN", 1 << 13)
    a = all_ones(1 << 12)
    b = a + 2  # 2^12 + 1 limbs
    assert inflation._mul(a, b) == a * b  # a product of 2^13 limbs: admitted
    assert inflation._mul(a, b << 8) == a * (b << 8)  # 2^13 + 1: one too many
    assert irfft_calls == [1 << 13]


def test_a_coefficient_off_the_integers_falls_back_to_cpython(monkeypatch, irfft_calls):
    spied = np.fft.irfft

    def off(*args, **kwargs):
        c = spied(*args, **kwargs)
        c[len(c) // 2] += 0.6  # 0.4 from an integer, and rounding gives c_k + 1
        return c

    monkeypatch.setattr(np.fft, "irfft", off)
    a, b = (1 << 3 * BIG) - 12345, (1 << 2 * BIG) - 1
    assert inflation._mul(a, b) == a * b
    assert inflation._mul(a, a) == a * a
    assert len(irfft_calls) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 7, 97, 1000, 1 << 20, (1 << 20) + 1, 10**7])
def test_fft_len_is_the_least_2_3_5_smooth_length(n):
    m = inflation._fft_len(n)
    assert m >= n
    k = m
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    assert k == 1
    smooth = {2**i * 3**j * 5**k for i in range(26) for j in range(16) for k in range(11)}
    assert m == min(x for x in smooth if x >= n)


@pytest.mark.parametrize("route", ORACLES, ids=lambda r: r.__name__)
def test_the_loop_oracles_drive_the_fft_branch(irfft_calls, route):
    clear_caches()
    assert [route(n) for n in range(TOP + 1)] == [oracle(route, n) for n in range(TOP + 1)]
    assert irfft_calls, f"{route.__name__} never took the FFT branch up to n = {TOP}"


def min_scan_fft_len(n):
    """The least 2^a 3^b 5^c >= n by scanning every 3^i 5^j: the slow path of `_fft_len`."""
    odd = (3**i * 5**j for i in range(n.bit_length()) for j in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 5000), st.integers(1, 2 * inflation._MUL_MAX_LEN)))
@example(2 * inflation._MUL_MAX_LEN)
@example(inflation._MUL_MAX_LEN + 1)
def test_fft_len_bisect_matches_the_min_scan(n):
    assert inflation._fft_len(n) == min_scan_fft_len(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(0, 3 * BIG))
@example(3, 2 * BIG)
@example(39, 3 * BIG)
def test_pow_by_squaring_is_the_plain_power(b, e):
    assert inflation._pow(b, e) == b**e


def test_explicit_route_squares_through_mul(irfft_calls):
    # |A_30| needs 3^f_27 = 3^196418, about 311,000 bits: past the crossover.
    clear_caches()
    assert count_A_explicit(30) == explicit_loop(30)
    assert irfft_calls
