from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rfw import cli, wordset
from rfw import (DEFAULT_ITEM_CAP, ItemCapError, Word, WordSet, c_stat, enumerate_A,
                 factor_set, factor_set_Fn, fa_next_count, factors, fib, format_c,
                 verify_factor_stability, verify_Fn_bound, verify_overlap,
                 verify_prefix_stability, verify_slice_bound, verify_superset)
from rfw.factors import VerifyResult
from rfw.inflation import halves

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
    # F_n for n <= 3, read off F_4, agrees with generation 8
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


def projected_by_slicing(n):
    """F_n's item-cap projection with every window piece built and counted."""
    f = fib(n)
    return sum(len(u.slices(k, u.length)) * len(v.slices(1, k - 1 + f - u.length))
               for k in range(1, fib(n - 1) + 2) for u, v in halves(n + 1))


@pytest.mark.parametrize("n", [*range(4, 9), pytest.param(9, marks=pytest.mark.heavy)])
def test_Fn_projects_the_sliced_window_count(n):
    # The cap admits exactly the projected count and refuses one less.
    projected = projected_by_slicing(n)
    with pytest.raises(ItemCapError, match=f"^windowed F_{n} projects {projected} candidates, "
                                           f"above item cap {projected - 1}$"):
        factor_set_Fn(n, projected - 1)
    if n < 9:
        assert factor_set_Fn(n, projected) == factor_set_Fn(n)


def test_Fn_checks_its_item_cap_before_cutting_a_window(monkeypatch):
    def cut(self, a, b):
        raise AssertionError(f"window [{a}, {b}] cut")

    monkeypatch.setattr(WordSet, "slices", cut)
    with pytest.raises(ItemCapError, match="^windowed F_9 projects 272490624 candidates, "
                                           f"above item cap {DEFAULT_ITEM_CAP}$"):
        factor_set_Fn(9)


def test_Fn_is_built_once_whatever_the_cap():
    factors._factor_set_Fn_cached.cache_clear()
    first = factor_set_Fn(8, 10**7)
    assert factor_set_Fn(8, 10**8) is first
    assert factors._factor_set_Fn_cached.cache_info().misses == 1


@pytest.mark.parametrize("n", range(4, 9))
def test_Fn_is_the_same_in_buckets_of_any_size(monkeypatch, n):
    # One bucket by default and at g = f_n, two at g = f_n - 1, and 2^(f_n - g)
    # at g = f_{n-1} - 1, where most pieces are wider than a bucket.
    f, tables, kernel, table = fib(n), [], factors._product_windows, wordset._table

    def spied(pieces, width):  # counts the tables the kernel marks, not the slices'
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wordset, "_table", lambda g, *rest: tables.append(g) or table(g, *rest))
            return kernel(pieces, width)

    monkeypatch.setattr(factors, "_product_windows", spied)
    for g in (wordset._TABLE_BITS, f, f - 1, fib(n - 1) - 1):
        monkeypatch.setattr(wordset, "_TABLE_BITS", g)
        tables.clear()
        assert factors._factor_set_Fn_cached.__wrapped__(n) == factors._next_factors(n)
        assert tables == [min(f, g)] * (1 << (f - min(f, g)))


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


def test_format_c_rounds_a_tie_up():
    # 24689 / 200000 = 0.123445 exactly, halfway between 0.12344 and 0.12345;
    # half-even would give 0.12344.
    assert format_c(Fraction(24689, 200000)) == "0.12345"


def test_c3_exact():
    assert c_stat(3) == Fraction(2)


def test_c_at_least_one():
    for n in range(3, 9):
        assert c_stat(n) >= 1


def per_cut_slice_sizes(n):
    """(|A_n[1,k]|, |A_n[k+1,f_n]|) for k = 1..f_n-1, each slice set built and counted."""
    a = enumerate_A(n)
    return (tuple(len(a.slices(1, k)) for k in range(1, a.length)),
            tuple(len(a.slices(k + 1, a.length)) for k in range(1, a.length)))


@pytest.mark.parametrize("n", range(3, 9))
def test_cut_counts_match_the_slice_sets(n):
    assert factors._cut_counts(n) == per_cut_slice_sizes(n)


@pytest.mark.heavy
def test_cut_counts_match_the_slice_sets_at_n9():
    assert factors._cut_counts(9) == per_cut_slice_sizes(9)


# --- proposition verifiers -------------------------------------------

def test_prefix_stability_examples():
    assert verify_prefix_stability(3, 1).ok
    assert verify_prefix_stability(5, 3).ok
    assert verify_prefix_stability(6, 0).ok   # k = 0 is the identity


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9)
                                 for k in range(1, 10 - n)])
def test_prefix_stability_full_range(n, k):
    assert verify_prefix_stability(n, k).ok


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 10) for k in range(0, 10 - n)])
def test_prefix_stability_through_the_edges_matches_the_direct_slices(n, k):
    a_n, a_nk, f_n, f_nk = enumerate_A(n), enumerate_A(n + k), fib(n), fib(n + k)
    direct = (a_n.slices(1, f_n - 1) == a_nk.slices(1, f_n - 1)
              and a_n.slices(2, f_n) == a_nk.slices(f_nk - f_n + 2, f_nk))
    assert verify_prefix_stability(n, k).ok == direct
    if k:
        f_prev = fib(n + k - 1)
        head, tail = factors._edges(n + k)
        assert head == a_nk.slices(1, f_prev - 1)
        assert tail == a_nk.slices(f_nk - f_prev + 2, f_nk)
        assert head.slices(1, f_n - 1) == a_nk.slices(1, f_n - 1)
        assert tail.slices(tail.length - f_n + 2, tail.length) == a_nk.slices(f_nk - f_n + 2, f_nk)


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("side", [0, 1])
def test_prefix_stability_sees_a_changed_edge(monkeypatch, n, side):
    # One of A_7's edge sets, less every word that shows the first word's
    # f_n - 1 symbols where the check reads them: A_n against A_7 fails.
    edges = list(factors._edges(7))
    edge, width = edges[side], fib(n) - 1
    read = (edge.packed & np.uint64((1 << width) - 1) if side == 0
            else edge.packed >> np.uint64(edge.length - width))
    edges[side] = WordSet.from_packed(edge.length, edge.packed[read != read[0]])
    monkeypatch.setattr(factors, "_edges", lambda m: tuple(edges) if m == 7 else None)
    res = verify_prefix_stability(n, 7 - n)
    assert not res.ok
    assert res.witness == (f"prefix sets A_{n}[1,{width}] != A_7[1,{width}]" if side == 0
                           else f"suffix sets of A_{n} and A_7 differ")


def test_verify_reads_each_generation_edges_once(monkeypatch, capsys):
    factors._edges.cache_clear()
    a9 = enumerate_A(9)
    calls = Counter()
    real = WordSet.slices

    def counting(self, a, b):
        calls[self is a9] += 1
        return real(self, a, b)

    monkeypatch.setattr(WordSet, "slices", counting)
    assert cli.main(["verify", "--max-n", "8", "--prop", "prefix-stability"]) == 0
    assert "21/21 checks passed" in capsys.readouterr().out
    assert calls[True] <= 2


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


@pytest.fixture
def F_A5_f4_without_100(monkeypatch):
    """F(A_5, f_4) scanned without its smallest word, 100 (packed 1)."""
    real = factors._next_factors
    short = WordSet.from_packed(fib(4), real(4).packed[1:])
    monkeypatch.setattr(factors, "_next_factors", lambda n: short if n == 4 else real(n))


def test_factor_stability_witness_is_the_dropped_word(F_A5_f4_without_100):
    assert verify_factor_stability(4, 2) == VerifyResult(
        False, "F(A_5,f_4) != F(A_6,f_4), e.g. 100")


def test_verify_prints_the_unstable_factor_and_exits_1(F_A5_f4_without_100, capsys):
    code = cli.main(["verify", "--max-n", "5", "--prop", "factor-stability"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  factor-stability       n=4,k=2  [F(A_5,f_4) != F(A_6,f_4), e.g. 100]",
        "0/1 checks passed"]


def test_verify_scans_each_generation_once(monkeypatch, capsys):
    # F(A_{n+k}, f_n) is read off F(A_{n+k}, f_{n+k-1}), so each A_m's windows
    # are scanned once per process, and the table's F(A_9, f_8) is one of them.
    factors._next_factors.cache_clear()
    generation = {id(enumerate_A(m)): m for m in range(1, 10)}
    scans = Counter()
    real = factors.factor_set

    def counting(s, ell):
        scans[generation.get(id(s))] += 1
        return real(s, ell)

    monkeypatch.setattr(factors, "factor_set", counting)
    assert cli.main(["verify", "--prop", "factor-stability,factor-instability-n3"]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out
    by_generation = {m: c for m, c in scans.items() if m is not None}
    assert set(by_generation) == set(range(4, 10))
    assert max(by_generation.values()) == 1
    before = scans.copy()
    assert fa_next_count(8) == len(factor_set_Fn(8))
    assert scans == before


@pytest.mark.parametrize("reversed_form", [False, True])
def test_superset_witness_is_the_first_escaping_word(monkeypatch, reversed_form):
    # Each form reads its own pair of halves(5), A_4 at index reversed_form in
    # both.  With 110 gone from that A_4, no word may start 11 (the first pair's
    # A_4[1, 2]) or end 10 (the second pair's A_4[2, 3]); either way 11010
    # (packed 11) escapes first in canonical order, though not in string order.
    pairs = [list(pair) for pair in halves(5)]
    a_4 = pairs[reversed_form][reversed_form]
    short = WordSet(3, [Word.parse("011"), Word.parse("101")])
    assert len(a_4) == 3 and short.issubset(a_4)
    pairs[reversed_form][reversed_form] = short
    monkeypatch.setattr(factors, "halves", lambda n: pairs)
    res = verify_superset(5, reversed_form=reversed_form)
    assert not res.ok
    assert res.witness == f"11010 in A_5 escapes the superset (reversed={reversed_form})"
    assert verify_superset(5, reversed_form=not reversed_form).ok


def test_superset_check_reverses_nothing(monkeypatch):
    # The mirrored form reads the second pair of halves(n), not A_n reversed:
    # `verify` checks reversal closure, so no other check may lean on it.
    def refuse(*args):
        raise AssertionError("verify_superset reversed a set")

    monkeypatch.setattr(WordSet, "reverse", refuse)
    monkeypatch.setattr(wordset, "reverse_packed", refuse)
    for n in range(4, 10):
        assert verify_superset(n, reversed_form=True).ok


@pytest.mark.parametrize("check", [lambda: verify_superset(9),
                                   lambda: verify_superset(9, reversed_form=True),
                                   lambda: verify_overlap(9)],
                         ids=["superset", "superset_reversed", "overlap"])
def test_product_set_checks_hold_at_9(check):
    assert check().ok


# The factor complexity p(l) = |F(F_8, l)| for l = 1..21, F_8's words being 21 symbols.
P_OF_L = [2, 4, 7, 13, 22, 39, 67, 108, 183, 305, 510, 851, 1356, 2238, 3652, 5988, 9796,
          15774, 25716, 41882, 65800]


def test_factor_complexity_to_21_three_ways():
    f8 = factor_set_Fn(8)
    assert f8.length == 21
    assert wordset._suffix_counts(f8.packed, 21)[1:].tolist() == P_OF_L
    assert [len(factor_set(f8, ell)) for ell in range(1, 22)] == P_OF_L
    a9 = enumerate_A(9)
    assert [len(factor_set(a9, ell)) for ell in (8, 13, 21)] == [P_OF_L[7], P_OF_L[12], P_OF_L[20]]
    assert all(len(factor_set_Fn(n)) == P_OF_L[fib(n) - 1] for n in range(1, 9))  # p(f_n) = |F_n|


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("check", [fa_next_count, lambda n: verify_factor_stability(n, 2)],
                         ids=["fa_next_count", "verify_factor_stability"])
def test_generation_below_one_is_a_value_error(check, n):
    with pytest.raises(ValueError, match="needs n >= 1"):
        check(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_slice_bound(n):
    assert verify_slice_bound(n).ok


@pytest.fixture
def doubled_words_as_A3(monkeypatch):
    """A_3 replaced by {uu : u in {0,1}^3}: at cut k = 3, 8 * 8 > 4^1 * 8."""
    doubled = WordSet.from_packed(6, [u | u << 3 for u in range(8)])
    real = factors.enumerate_A
    monkeypatch.setattr(factors, "enumerate_A", lambda n: doubled if n == 3 else real(n))
    factors._cut_counts.cache_clear()
    yield
    factors._cut_counts.cache_clear()


def test_slice_bound_names_the_first_broken_cut(doubled_words_as_A3):
    assert verify_slice_bound(3) == VerifyResult(False, "cut k = 3: 8 * 8 > 32")


def test_verify_prints_the_broken_cut_and_exits_1(doubled_words_as_A3, capsys):
    code = cli.main(["verify", "--max-n", "3", "--prop", "cut-bound"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  cut-bound              n=3  [cut k = 3: 8 * 8 > 32]",
        "PASS  cut-bound              n=4",
        "1/2 checks passed"]


@pytest.mark.parametrize("n", range(3, 9))
def test_Fn_bound(n):
    assert verify_Fn_bound(n).ok


def test_Fn_bound_arithmetic_n7():
    assert 1356 <= 2 * (4**5 * 8 + 1) * 288


def Fn_of_size(monkeypatch, size):
    monkeypatch.setattr(factors, "factor_set_Fn",
                        lambda n, item_cap: WordSet.from_packed(8, range(size)))


@pytest.mark.parametrize("n, bound", [(3, 20), (4, 198)])
def test_Fn_bound_admits_the_bound_and_names_one_word_more(monkeypatch, n, bound):
    # 2 (4^{n-2} f_{n-1} + 1) |A_n| is 2 * 5 * 2 at n = 3 and 2 * 33 * 3 at n = 4.
    Fn_of_size(monkeypatch, bound)
    assert verify_Fn_bound(n).ok
    Fn_of_size(monkeypatch, bound + 1)
    assert verify_Fn_bound(n) == VerifyResult(False, f"|F_{n}| = {bound + 1} > {bound}")


def test_verify_prints_the_broken_Fn_bound_and_exits_1(monkeypatch, capsys):
    Fn_of_size(monkeypatch, 21)
    code = cli.main(["verify", "--max-n", "3", "--prop", "factor-bound"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  factor-bound           n=3  [|F_3| = 21 > 20]",
        "0/1 checks passed"]
