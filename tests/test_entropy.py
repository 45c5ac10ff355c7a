import math

import pytest

from rfw import count_A_explicit, entropy_limit, fib, log_growth


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


def test_refinement_consistency():
    assert abs(entropy_limit(1e-3) - entropy_limit(1e-8)) < 2e-3


def test_tolerance_floor():
    with pytest.raises(ValueError):
        entropy_limit(1e-13)


@pytest.mark.parametrize("n", [1480, 3000])
def test_log_growth_past_the_float_range_of_f_n(n):
    # f_1477 is beyond the float range; log|A_n|/f_n still converges.
    value = log_growth(n)
    assert math.isfinite(value)
    assert abs(value - entropy_limit(1e-12)) < 1e-9


def test_sequence_converges():
    values = [log_growth(n) for n in range(3, 201)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert min(diffs) < 1e-10
    # once tiny, differences stay tiny
    first_small = next(i for i, d in enumerate(diffs) if d < 1e-10)
    assert all(d < 1e-9 for d in diffs[first_small:])
