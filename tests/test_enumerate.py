import ast
import importlib
import inspect
import pkgutil
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfw
from rfw import (DEFAULT_ITEM_CAP, WORD_CAPACITY, CapacityError, ItemCapError, Word, WordSet,
                 cli, count_A_explicit, enumerate_A, factor_set_Fn, factors, fib, inflation,
                 verify_overlap, verify_palindromic)
from rfw.inflation import MAX_ENUMERATED, MAX_GENERATION
from rfw.wordset import _member

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


@pytest.mark.parametrize("n", range(3, 10))
def test_one_buffer_matches_the_union_of_two_products(n):
    big, small = enumerate_A(n - 1), enumerate_A(n - 2)
    assert enumerate_A(n) == big.product(small).union(small.product(big))


def test_membership():
    a5 = enumerate_A(5)
    assert Word.parse("01011") in a5
    assert Word.parse("00000") not in a5
    assert Word.parse("0101") not in a5   # wrong length


@lru_cache(maxsize=None)
def membership_without(n):
    """`membership(n)` built with `enumerate_A(n)` patched to raise: it must not read A_n."""
    real = inflation.enumerate_A

    def refusing(m):
        if m == n:
            raise AssertionError(f"membership({n}) built A_{n}")
        return real(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inflation, "enumerate_A", refusing)
        return inflation.membership(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_membership_splits_every_generation_by_its_halves(n):
    a_n = enumerate_A(n)
    member = membership_without(n)
    assert member(a_n.packed).all()
    if a_n.length <= 21:  # every f_n-symbol word, 2^21 of them at n = 8
        words = np.arange(1 << a_n.length, dtype=np.uint64)
        assert np.array_equal(member(words), _member(a_n.packed, words))
    assert "MAX_ENUMERATED" not in inspect.getsource(inflation.membership)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << fib(n)) - 1), max_size=20),
    st.lists(st.tuples(st.integers(0, len(enumerate_A(n)) - 1),
                       st.sets(st.integers(0, fib(n) - 1), max_size=3)), max_size=40))))
def test_membership_by_halves_agrees_with_a_lookup(case):
    # Free words, and members of A_n with up to three symbols flipped.
    n, free, near = case
    a_n = enumerate_A(n)
    words = np.array(free + [int(a_n.packed[i]) ^ sum(1 << j for j in flips) for i, flips in near],
                     dtype=np.uint64)
    assert np.array_equal(membership_without(n)(words), _member(a_n.packed, words))


def test_the_last_generation_fits_the_word_capacity():
    assert fib(MAX_GENERATION) <= WORD_CAPACITY < fib(MAX_GENERATION + 1)


@pytest.mark.parametrize("n", range(MAX_ENUMERATED + 1))
def test_enumeration_below_the_ceiling_reads_no_count(n, monkeypatch):
    want = count_A_explicit(n)

    def no_count(m):
        raise AssertionError(f"count_A_explicit({m}) read below the ceiling")

    monkeypatch.setattr(inflation, "count_A_explicit", no_count)
    a_n = enumerate_A(n)
    assert len(a_n) == want and a_n.length == fib(n)


# Every fixed limit, the item cap included, raises the one type.
FIXED_LIMITS = {
    "ceiling": (lambda: enumerate_A(10),
                r"^\|A_10\| = 37623398400 words: sets are enumerated up to A_9$"),
    "generation": (lambda: enumerate_A(11),
                   r"^generation 11 is beyond 10: words over 64 symbols$"),
    "word-length": (lambda: Word.parse("0" * 65), r"^word length 65 outside \[0, 64\]$"),
    "item-cap": (lambda: factor_set_Fn(9), "^windowed F_9 projects 272490624 candidates, "
                                           f"above item cap {DEFAULT_ITEM_CAP}$"),
}


@pytest.mark.parametrize("limit", FIXED_LIMITS)
def test_every_fixed_limit_is_a_capacity_error(limit):
    request, message = FIXED_LIMITS[limit]
    with pytest.raises(CapacityError, match=message) as exc:
        request()
    assert isinstance(exc.value, ItemCapError) == (limit == "item-cap")


def test_no_budget_error_is_left():
    assert not hasattr(rfw, "BudgetError") and not hasattr(inflation, "BudgetError")
    assert "BudgetError" not in rfw.__all__


def exception_classes():
    """(module, name) of each exception class that a module of `src/rfw` defines."""
    modules = [importlib.import_module(f"rfw.{info.name}")
               for info in pkgutil.iter_modules(rfw.__path__)]
    return {(module.__name__, name) for module in [rfw, *modules]
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__}


def test_src_defines_exactly_the_two_limit_errors():
    assert exception_classes() == {("rfw.words", "CapacityError"),
                                   ("rfw.factors", "ItemCapError")}
    assert issubclass(ItemCapError, CapacityError) and issubclass(CapacityError, ValueError)


def budget_knobs(source):
    """Lines of `source` that name an identifier containing "budget" in any
    case: a variable, attribute, function, class, parameter or import."""
    fields = ("id", "attr", "name", "arg", "asname", "module")
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if any("budget" in (getattr(node, field, None) or "").lower()
                          for field in fields)})


def test_guard_sees_every_budget_name():
    source = ("DEFAULT_BUDGET = 10**8\n"
              "def enumerate_A(n):\n    return n > DEFAULT_BUDGET\n"
              "def halves(n, budget=DEFAULT_BUDGET):\n    pass\n"
              "f = lambda *, budget: 0\n"
              "x = inflation.DEFAULT_BUDGET\n"
              "def g(n, **budget):\n    pass\n"
              "class BudgetError(RuntimeError):\n    pass\n"
              "from .inflation import BudgetError as Limit\n"
              "h(spent=x.overBudget)\n")
    assert budget_knobs(source) == [1, 3, 4, 6, 7, 8, 10, 12, 13]


def test_library_names_no_budget():
    found = [f"{path.name} line {line}" for path in sorted(SRC.glob("*.py"))
             for line in budget_knobs(path.read_text())]
    assert found == []


ITEM_CAP_NAMES = {"DEFAULT_ITEM_CAP", "ItemCapError"}


def item_cap_names(source):
    """(line, name, bound) for each place `source` names DEFAULT_ITEM_CAP or
    ItemCapError; `bound` is True where it defines one (an assignment, class
    or def) or imports one from any module but `factors`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            hits = [(node.name, True)]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            hits = [(name, not isinstance(node.ctx, ast.Load))]
        elif isinstance(node, ast.ImportFrom):
            owner = (node.module or "").rsplit(".", 1)[-1] == "factors"
            hits = [(alias.name, not owner) for alias in node.names]
        else:
            continue
        found += [(node.lineno, name, bound) for name, bound in hits if name in ITEM_CAP_NAMES]
    return sorted(found)


def test_guard_sees_item_cap_bindings():
    source = ("from .factors import DEFAULT_ITEM_CAP\n"
              "from .inflation import ItemCapError\n"
              "DEFAULT_ITEM_CAP = 1 << 26\n"
              "class ItemCapError(BudgetError):\n    pass\n"
              "x = factors.DEFAULT_ITEM_CAP\n"
              "inflation.ItemCapError = None\n"
              "def f(cap=DEFAULT_ITEM_CAP):\n    raise ItemCapError\n")
    assert item_cap_names(source) == [
        (1, "DEFAULT_ITEM_CAP", False), (2, "ItemCapError", True),
        (3, "DEFAULT_ITEM_CAP", True), (4, "ItemCapError", True),
        (6, "DEFAULT_ITEM_CAP", False), (7, "ItemCapError", True),
        (8, "DEFAULT_ITEM_CAP", False), (9, "ItemCapError", False)]


def test_only_factors_binds_the_item_cap():
    names = {path.name: item_cap_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bound = {(file, name) for file, found in names.items() for _, name, b in found if b}
    assert bound == {("factors.py", "DEFAULT_ITEM_CAP"), ("factors.py", "ItemCapError")}
    assert names["inflation.py"] == []


@pytest.mark.parametrize("n", range(1, 10))
def test_palindromic_closure(n):
    assert verify_palindromic(n).ok


def test_palindromic_witness_is_the_first_word_whose_reverse_is_missing(monkeypatch):
    # Without 01011 and 10110, both 11010 (packed 11) and 01101 (packed 22)
    # lose their reverse; the canonical order puts 11010 first.
    kept = [w for w in enumerate_A(5) if str(w) not in {"01011", "10110"}]
    monkeypatch.setattr(factors, "enumerate_A", lambda n: WordSet(5, kept))
    res = verify_palindromic(5)
    assert not res.ok
    assert res.witness == "reverse(11010) not in A_5"


@pytest.mark.parametrize("n", range(4, 9))
def test_overlap_identity(n):
    assert verify_overlap(n).ok


@pytest.fixture
def A5_first_product_without_01(monkeypatch):
    """halves(5) with 01 dropped from the A_3 of A_4A_3: that product loses two words."""
    real = inflation.halves
    short = WordSet(2, [Word.parse("10")])

    def halves(n):
        (big, small), second = real(n)
        return (big, short if n == 5 else small), second
    monkeypatch.setattr(factors, "halves", halves)


def test_overlap_witness_is_the_first_word_lost_from_the_intersection(A5_first_product_without_01):
    # A_4A_3 loses 101.01 and 011.01, both in A_3A_4 and in A_3A_2A_3; the
    # canonical order puts 10101 (packed 21) before 01101 (packed 22).
    res = verify_overlap(5)
    assert not res.ok
    assert res.witness == "overlap mismatch at n = 5, e.g. 10101"


def test_verify_prints_the_overlap_mismatch_and_exits_1(A5_first_product_without_01, capsys):
    code = cli.main(["verify", "--max-n", "4", "--prop", "overlap"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS  overlap                n=4",
        "FAIL  overlap                n=5  [overlap mismatch at n = 5, e.g. 10101]",
        "1/2 checks passed"]


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
