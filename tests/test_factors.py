from fractions import Fraction

import pytest

from rfw import (Word, WordSet, c_stat, enumerate_A, factor_set,
                 factor_set_Fn, fa_next_count, factors, fib, format_c,
                 verify_factor_stability, verify_Fn_bound,
                 verify_prefix_stability, verify_slice_bound, verify_superset)

F_A6_F5 = """00101 00110 00111 01001 01010 01011 01100 01101 01110 01111
10010 10011 10100 10101 10110 10111 11001 11010 11011 11100
11101 11110""".split()


def as_strings(ws):
    return sorted(str(w) for w in ws)


# --- slice sets -------------------------------------------------------

def test_slice_set_examples():
    assert as_strings(enumerate_A(3).slices(1, 1)) == ["0", "1"]
    assert as_strings(enumerate_A(4).slices(1, 2)) == ["01", "10", "11"]


def test_identity_slice_is_the_set():
    for n in range(1, 8):
        assert enumerate_A(n).slices(1, fib(n)) == enumerate_A(n)


def test_empty_slice_is_empty_word_singleton():
    s = enumerate_A(4).slices(2, 1)
    assert len(s) == 1
    assert list(s)[0] == Word.parse("")


# --- factor sets ------------------------------------------------------

def test_published_factor_sets():
    assert as_strings(factor_set(enumerate_A(4), 2)) == ["01", "10", "11"]
    assert as_strings(factor_set(enumerate_A(5), 3)) == [
        "001", "010", "011", "100", "101", "110", "111"]
    assert as_strings(factor_set(enumerate_A(6), 5)) == sorted(F_A6_F5)


def test_whole_word_factor():
    w = Word.parse("10110")
    singleton = WordSet(5, [w])
    assert factor_set(singleton, 5) == singleton


def test_factor_length_out_of_range():
    with pytest.raises(IndexError):
        factor_set(enumerate_A(4), 4)
    with pytest.raises(IndexError):
        factor_set(enumerate_A(4), 0)


def test_Fn_small_values():
    assert as_strings(factor_set_Fn(1)) == ["0", "1"]
    assert as_strings(factor_set_Fn(2)) == ["0", "1"]
    assert as_strings(factor_set_Fn(3)) == ["00", "01", "10", "11"]


def test_small_n_convention_is_stable():
    # the generation-7 definition of F_n for n <= 3 agrees with generation 8
    for n in (1, 2, 3):
        assert factor_set_Fn(n) == factor_set(enumerate_A(8), fib(n))


def test_Fn_table_sizes():
    sizes = {4: 7, 5: 22, 6: 108, 7: 1356, 8: 65800}
    for n, size in sizes.items():
        assert len(factor_set_Fn(n)) == size


@pytest.mark.parametrize("n", range(4, 8))
def test_windowed_matches_direct_scan(n):
    direct = factor_set(enumerate_A(n + 1), fib(n))
    assert factor_set_Fn(n) == direct


@pytest.mark.parametrize("n", range(3, 9))
def test_words_are_their_own_factors(n):
    assert enumerate_A(n).issubset(factor_set_Fn(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_factor_reversal_closure(n):
    f = factor_set_Fn(n)
    assert f.reverse() == f


def test_fa_next_examples():
    assert fa_next_count(3) == 3
    assert fa_next_count(7) == 1356


# --- c statistic ------------------------------------------------------

def test_c_values_match_table():
    expected = {3: "2.0", 4: "2.0", 5: "2.0", 6: "2.13333",
                7: "2.11111", 8: "2.17143"}
    for n, text in expected.items():
        assert format_c(c_stat(n)) == text


def test_c3_exact():
    assert c_stat(3) == Fraction(2)


def test_c_at_least_one():
    for n in range(3, 9):
        assert c_stat(n) >= 1


# --- proposition verifiers -------------------------------------------

def test_prefix_stability_examples():
    assert verify_prefix_stability(3, 1).ok
    assert verify_prefix_stability(5, 3).ok
    assert verify_prefix_stability(6, 0).ok   # k = 0 is the identity


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9)
                                 for k in range(1, 10 - n)])
def test_prefix_stability_full_range(n, k):
    assert verify_prefix_stability(n, k).ok


def test_superset_examples():
    assert verify_superset(4).ok
    assert verify_superset(7).ok
    assert verify_superset(7, reversed_form=True).ok


def test_factor_stability_examples():
    assert verify_factor_stability(4, 2).ok
    assert verify_factor_stability(5, 3).ok


def test_factor_stability_fails_below_four():
    res = verify_factor_stability(3, 2)
    assert not res.ok
    assert res.witness == "F(A_4,f_3) != F(A_5,f_3), e.g. 00"


@pytest.mark.parametrize("reversed_form", [False, True])
def test_superset_witness_is_the_first_escaping_word(monkeypatch, reversed_form):
    # 11010 (packed 11) comes before 01011 (packed 26) in canonical order,
    # though not in string order; A_5 is its own reverse.
    real = factors._superset_rhs(5)
    dropped = {Word.parse("01011").bits, Word.parse("11010").bits}
    kept = [x for x in real.packed.tolist() if x not in dropped]
    monkeypatch.setattr(factors, "_superset_rhs", lambda n: WordSet.from_packed(real.length, kept))
    res = verify_superset(5, reversed_form=reversed_form)
    assert not res.ok
    assert res.witness == f"11010 in A_5 escapes the superset (reversed={reversed_form})"


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("check", [fa_next_count, lambda n: verify_factor_stability(n, 2)],
                         ids=["fa_next_count", "verify_factor_stability"])
def test_generation_below_one_is_a_value_error(check, n):
    with pytest.raises(ValueError, match="needs n >= 1"):
        check(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_slice_bound(n):
    assert verify_slice_bound(n).ok


@pytest.mark.parametrize("n", range(3, 9))
def test_Fn_bound(n):
    assert verify_Fn_bound(n).ok


def test_Fn_bound_arithmetic_n7():
    assert 1356 <= 2 * (4**5 * 8 + 1) * 288
