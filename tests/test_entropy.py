import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfw import count_A_explicit, entropy_limit, fib, log_growth

# h = sum_{m>=2} log m / phi^(m+2), summed in `decimal` over m < 600 at 60
# digits (80 digits over m < 800 agrees), to 40 digits.
H = Decimal("0.4443987251953388697292824552645108070578")


def test_log_growth_small_oracles():
    assert log_growth(3) == pytest.approx(math.log(2) / 2, abs=1e-12)
    assert log_growth(5) == pytest.approx(math.log(8) / 5, abs=1e-12)


def test_log_growth_matches_exact_counts():
    # Eq-by-sum vs log of the exact product, through n = 30
    for n in range(3, 31):
        direct = math.log(count_A_explicit(n)) / fib(n)
        assert abs(log_growth(n) - direct) < 1e-12


def test_limit_value():
    h = entropy_limit(1e-8)
    assert abs(h - 0.444399) < 1e-5
    assert abs(math.exp(h) - 1.559553) < 2e-5


@pytest.mark.parametrize("tol", [10.0**-k for k in range(2, 13)])
def test_limit_is_within_tol_of_h(tol):
    assert abs(Decimal(entropy_limit(tol)) - H) <= Decimal(tol)


@given(st.floats(-12, -2).map(lambda k: 10.0**k))
def test_limit_is_within_any_admitted_tol_of_h(tol):
    assert abs(Decimal(entropy_limit(tol)) - H) <= Decimal(tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.5, 0.0, 1e-13])
def test_tolerance_outside_the_range_is_a_value_error(tol):
    with pytest.raises(ValueError, match=r"outside \[1e-12, 1e-2\]"):
        entropy_limit(tol)


@pytest.mark.parametrize("n", [100, 1480, 3000])
def test_log_growth_past_the_float_range_of_f_n(n):
    # f_1477 is beyond the float range; log|A_n|/f_n still converges, to the
    # series h by a route that shares no code with entropy_limit.
    value = log_growth(n)
    assert math.isfinite(value)
    assert abs(Decimal(value) - H) < Decimal(1e-12)


def test_sequence_converges():
    values = [log_growth(n) for n in range(3, 201)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert min(diffs) < 1e-10
    # once tiny, differences stay tiny
    first_small = next(i for i, d in enumerate(diffs) if d < 1e-10)
    assert all(d < 1e-9 for d in diffs[first_small:])
