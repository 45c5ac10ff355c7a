"""Acceptance suite: one test per criterion, one PASS line printed each.

Criteria touching F_9 (the ~3e8-candidate windowed construction) are marked
`heavy` and run only when RFW_HEAVY=1 is set (see `tests/conftest.py`);
everything else stays under a couple of minutes.  Run the whole heavy tier,
these criteria with the other files' heavy tests (the F9.bin golden row and
the n = 9 cut counts among them), with:

    RFW_HEAVY=1 pytest -m heavy -s
"""

import io
import math
import os

import pytest

import rfw

HEAVY_ITEM_CAP = 1 << 29

TABLE = {
    # n: (f_n, |A_n|, |F_n|, |F(A_{n+1},f_n)|, c_n)
    0: (0, 0, None, None, None),
    1: (1, 1, 2, 1, None),
    2: (1, 1, 2, 2, None),
    3: (2, 2, 4, 3, "2.0"),
    4: (3, 3, 7, 7, "2.0"),
    5: (5, 8, 22, 22, "2.0"),
    6: (8, 30, 108, 108, "2.13333"),
    7: (13, 288, 1356, 1356, "2.11111"),
    8: (21, 10080, 65800, 65800, "2.17143"),
    9: (34, 3317760, 30139200, 30139200, "2.16389"),
}


def announce(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_table_fast_tier():
    for n in range(9):
        f_n, a, f, fa, c = TABLE[n]
        row = rfw.build_report(n)
        assert (row.f_n, row.a_count, row.f_count, row.fa_next_count) == (f_n, a, f, fa)
        assert (None if row.c is None else rfw.format_c(row.c)) == c
    announce(1, "table rows 0..8 exact")


@pytest.mark.heavy
def test_criterion_2_table_heavy_tier():
    row = rfw.build_report(9, item_cap=HEAVY_ITEM_CAP)
    assert row.a_count == 3317760
    assert row.f_count == row.fa_next_count == 30139200
    assert rfw.format_c(row.c) == "2.16389"
    announce(2, "n = 9 row exact, A_10 never materialized")


def test_criterion_3_counting_agreement():
    for n in range(10):
        assert (rfw.count_A_long(n) == rfw.count_A_short(n)
                == rfw.count_A_explicit(n) == len(rfw.enumerate_A(n)))
    for n in range(37):
        assert rfw.count_A_long(n) == rfw.count_A_short(n) == rfw.count_A_explicit(n)
    announce(3, "three formulas + enumeration agree (n <= 36 here, n <= 44 heavy)")


@pytest.mark.heavy
def test_criterion_3_heavy_gmp_range():
    # GMP arithmetic stretches the agreement check to n = 44 (~1.4e8 digits)
    gmpy2 = pytest.importorskip("gmpy2")
    counts = [gmpy2.mpz(0), gmpy2.mpz(1), gmpy2.mpz(1)]
    for m in range(3, 45):
        counts.append(2 * counts[-1] * counts[-2] - counts[-2] ** 2 * counts[-3])
        counts.pop(0)
    f = [rfw.fib(i) for i in range(45)]
    explicit = gmpy2.mpz(44 - 1)
    for i in range(2, 44):
        explicit *= gmpy2.mpz(44 - i) ** f[i - 2]
    assert counts[-1] == explicit
    announce("3-heavy", "cubic recursion = explicit product at n = 44")


@pytest.mark.heavy
def test_criterion_3_heavy_plain_ints():
    # Without gmpy2: the three routes in plain ints, their large products
    # through the FFT kernel.  About 5-7 s and 240 MB; |A_40| has 6.6e7 bits.
    for n in range(41):
        assert rfw.count_A_long(n) == rfw.count_A_short(n) == rfw.count_A_explicit(n), n
    announce("3-heavy-int", "three formulas agree in plain ints for n <= 40")


@pytest.mark.xfail(
    run=False,
    reason="unattainable as stated: |A_60| is an integer of ~3e11 decimal "
           "digits (~300 GB); even n = 48 exceeds this machine's 5 GB. "
           "Agreement is verified to n = 36 (fast) and n = 44 (heavy).")
def test_criterion_3_literal_n60():
    for n in range(61):
        assert rfw.count_A_long(n) == rfw.count_A_short(n) == rfw.count_A_explicit(n)


def test_criterion_4_entropy():
    h = rfw.entropy_limit(1e-8)
    assert abs(h - 0.444399) < 1e-5
    assert abs(math.exp(h) - 1.559553) < 2e-5
    announce(4, f"limit = {h:.6f}")


def test_criterion_5_property_suite():
    for n in range(1, 10):
        assert rfw.verify_palindromic(n).ok
    for n in range(3, 9):
        for k in range(1, 10 - n):
            assert rfw.verify_prefix_stability(n, k).ok
    for n in range(4, 9):
        assert rfw.verify_superset(n).ok
        assert rfw.verify_superset(n, reversed_form=True).ok
    for n in range(4, 9):
        for k in range(1, 10 - n):
            assert rfw.verify_factor_stability(n, k).ok
    assert not rfw.verify_factor_stability(3, 2).ok  # documented expected failure
    for n in range(4, 9):
        assert rfw.verify_overlap(n).ok
    for n in range(3, 10):
        assert rfw.verify_slice_bound(n).ok
    for n in range(3, 9):
        assert rfw.verify_Fn_bound(n).ok
    announce(5, "props 2, 5, 6, 7, 9, 10 + overlap (n = 9 factor bound in heavy tier)")


@pytest.mark.heavy
def test_criterion_5_heavy_factor_bound():
    assert rfw.verify_Fn_bound(9, item_cap=HEAVY_ITEM_CAP).ok
    announce("5-heavy", "factor-count bound holds at n = 9")


def test_criterion_6_oracle_equivalence():
    for n in range(4, 8):
        direct = rfw.factor_set(rfw.enumerate_A(n + 1), rfw.fib(n))
        assert rfw.factor_set_Fn(n) == direct
    announce(6, "windowed construction = direct scan for n = 4..7")


def test_criterion_7_sampler():
    members = {str(w) for w in rfw.enumerate_A(5)}
    seen = set()
    for seed in range(100_000):
        w = str(rfw.sample_chain(5, 0.5, rfw.PrngHandle(seed)))
        assert w in members
        seen.add(w)
    assert seen == members
    chain = [str(rfw.sample_chain(n, 1.0, rfw.PrngHandle(0))) for n in range(1, 6)]
    assert chain == ["0", "1", "01", "101", "01101"]
    announce(7, "1e5 samples all members, all 8 covered, p = 1 chain exact")


def test_criterion_8_conjecture_numerics():
    values = {n: rfw.c_stat(n) for n in range(3, 10)}
    for n, c in values.items():
        assert rfw.format_c(c) == TABLE[n][4]
        assert c < 3
    announce(8, f"max c_n = {rfw.format_c(max(values.values()))} < 3")


def gap(n, f_count):
    return (math.log(f_count) - math.log(len(rfw.enumerate_A(n)))) / rfw.fib(n)


def test_criterion_9_entropy_gap_decreasing():
    # fast tier: F_6..F_8 computed here; |F_9| is the published table value,
    # recomputed from scratch by the heavy-tier twin below
    gaps = [gap(n, len(rfw.factor_set_Fn(n))) for n in range(6, 9)]
    gaps.append(gap(9, 30139200))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    announce(9, f"gap strictly decreasing: {[round(g, 3) for g in gaps]}")


@pytest.mark.heavy
def test_criterion_9_heavy_recomputed():
    gaps = [gap(n, len(rfw.factor_set_Fn(n, item_cap=HEAVY_ITEM_CAP)))
            for n in range(6, 10)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    announce("9-heavy", "gap decreasing with |F_9| recomputed")


def test_criterion_10_determinism():
    from rfw.cli import main
    outputs = []
    for path in ("/tmp/rfw_det_a.csv", "/tmp/rfw_det_b.csv"):
        assert main(["table", "--max-n", "8", "--format", "csv", "-o", path]) == 0
        with open(path, "rb") as fh:
            outputs.append(fh.read())
        os.unlink(path)
    assert outputs[0] == outputs[1]
    exports = []
    for _ in range(2):
        buf = io.BytesIO()
        rfw.factor_set_Fn(6).write_binary(buf)
        exports.append(buf.getvalue())
    assert exports[0] == exports[1]
    announce(10, "table CSV and factor exports byte-identical")
