import ast
from pathlib import Path

import pytest

from rfw import (BudgetError, CapacityError, Word, WordSet, count_A_explicit,
                 enumerate_A, inflation, verify_overlap, verify_palindromic)

SRC = Path(__file__).resolve().parents[1] / "src" / "rfw"

A5_WORDS = ["01011", "01101", "01110", "10011",
            "10101", "10110", "11001", "11010"]


def as_strings(ws):
    return sorted(str(w) for w in ws)


def test_small_generations_match_published_lists():
    assert as_strings(enumerate_A(1)) == ["0"]
    assert as_strings(enumerate_A(2)) == ["1"]
    assert as_strings(enumerate_A(3)) == ["01", "10"]
    assert as_strings(enumerate_A(4)) == ["011", "101", "110"]
    assert as_strings(enumerate_A(5)) == A5_WORDS


def test_generation_zero_is_empty():
    assert len(enumerate_A(0)) == 0


def test_lengths_are_fibonacci():
    for n in range(1, 9):
        ws = enumerate_A(n)
        lengths = {len(w) for w in ws}
        assert len(lengths) == 1


def test_canonical_order_is_ascending_packed_value():
    packed = enumerate_A(7).packed
    assert (packed[1:] > packed[:-1]).all()


def test_membership():
    a5 = enumerate_A(5)
    assert Word.parse("01011") in a5
    assert Word.parse("00000") not in a5
    assert Word.parse("0101") not in a5   # wrong length


def test_budget_guard():
    # n = 10 exceeds the default 1e8 budget by two orders of magnitude
    with pytest.raises(BudgetError):
        enumerate_A(10)
    assert count_A_explicit(10) == 37623398400


def test_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_A(11)


def budget_knobs(source, owner=False):
    """Lines of `source` that take a `budget` parameter or read DEFAULT_BUDGET;
    with `owner`, reads inside `enumerate_A` are allowed."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if owner and isinstance(fn, ast.FunctionDef) and fn.name == "enumerate_A"
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if any(p is not None and p.arg == "budget" for p in params):
                found.append(node.lineno)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if (name == "DEFAULT_BUDGET" and isinstance(node.ctx, ast.Load)
                and id(node) not in inside):
            found.append(node.lineno)
    return sorted(found)


def test_guard_sees_budget_knobs():
    source = ("DEFAULT_BUDGET = 10**8\n"
              "def enumerate_A(n):\n    return n > DEFAULT_BUDGET\n"
              "def halves(n, budget=DEFAULT_BUDGET):\n    pass\n"
              "f = lambda *, budget: 0\n"
              "x = inflation.DEFAULT_BUDGET\n"
              "def g(n, **budget):\n    pass\n")
    assert budget_knobs(source, owner=True) == [4, 4, 6, 7, 8]
    assert budget_knobs(source) == [3, 4, 4, 6, 7, 8]


def test_only_enumerate_A_reads_the_budget():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in budget_knobs(path.read_text(), owner=path.name == "inflation.py")]
    assert found == []


@pytest.mark.parametrize("n", range(1, 10))
def test_palindromic_closure(n):
    assert verify_palindromic(n).ok


def test_palindromic_witness_is_the_first_word_whose_reverse_is_missing(monkeypatch):
    # Without 01011 and 10110, both 11010 (packed 11) and 01101 (packed 22)
    # lose their reverse; the canonical order puts 11010 first.
    kept = [w for w in enumerate_A(5) if str(w) not in {"01011", "10110"}]
    monkeypatch.setattr(inflation, "enumerate_A", lambda n: WordSet(5, kept))
    res = verify_palindromic(5)
    assert not res.ok
    assert res.witness == "reverse(11010) not in A_5"


@pytest.mark.parametrize("n", range(4, 9))
def test_overlap_identity(n):
    assert verify_overlap(n).ok


def test_recursion_identity_directly():
    # A_n = A_{n-1}A_{n-2} u A_{n-2}A_{n-1} as literal word sets
    for n in range(3, 8):
        big, small = enumerate_A(n - 1), enumerate_A(n - 2)
        rebuilt = big.product(small).union(small.product(big))
        assert rebuilt == enumerate_A(n)


def test_repeated_enumeration_identical():
    first = enumerate_A(8).packed.tobytes()
    second = enumerate_A(8).packed.tobytes()
    assert first == second
