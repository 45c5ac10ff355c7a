"""Peak memory of each pass over A_9, in units of A_9's own packed array.

Each pass holds A_9 (built before the measurement) plus at most one word
array of scratch, the cut counts behind c_9 included (A_9 reversed), and so
does F_9's refusal at the default item cap, which reads them;
building A_9 holds its two products in one buffer.
numpy reports its buffers to tracemalloc, so the traced peak counts them.
"""

import os
import tracemalloc
from io import BytesIO

import pytest

from rfw import WordSet, enumerate_A, factor_set, factors, inflation


def traced_peak(fn):
    """(fn(), the peak of traced bytes above those held when fn was called)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def a9():
    return enumerate_A(9)


def test_building_A9_holds_its_products_in_one_buffer(a9):
    # A_8 and A_7 stay cached; only A_9's own build is traced.
    built, peak = traced_peak(lambda: inflation._enumerate.__wrapped__(9))
    assert built == a9
    assert peak <= 3.1 * a9.packed.nbytes


def refuse_F9(a9):
    """F_9 at the default item cap, its cut counts recomputed: refused before a window is cut."""
    factors._cut_counts.cache_clear()
    with pytest.raises(factors.ItemCapError):
        factors.factor_set_Fn(9)


@pytest.mark.parametrize("run", [lambda ws: factor_set(ws, 21), WordSet.reverse,
                                 lambda ws: ws.slices(1, 33),
                                 lambda ws: factors._cut_counts.__wrapped__(9), refuse_F9],
                         ids=["factor_set_21", "reverse", "slices_1_33", "cut_counts",
                              "refused_F9"])
def test_a_pass_over_A9_holds_one_word_array(a9, run):
    _, peak = traced_peak(lambda: run(a9))
    assert peak <= 1.15 * a9.packed.nbytes


def test_write_binary_copies_nothing(a9):
    with open(os.devnull, "wb") as fh:
        _, peak = traced_peak(lambda: a9.write_binary(fh))
    assert peak <= 0.05 * a9.packed.nbytes


def test_read_binary_holds_one_word_array(a9):
    buf = BytesIO()
    a9.write_binary(buf)
    fh = BytesIO(buf.getvalue())
    del buf
    got, peak = traced_peak(lambda: WordSet.read_binary(fh))
    assert got == a9
    assert peak <= 1.15 * a9.packed.nbytes


@pytest.mark.parametrize("run", [lambda ws: factor_set(ws, 21), lambda ws: ws.slices(1, 20)],
                         ids=["factor_set_21", "slices_1_20"])
def test_a_table_pass_over_A9_reads_it_in_blocks(a9, run):
    # Windows marked in a table are read a block at a time, never as a word array.
    _, peak = traced_peak(lambda: run(a9))
    assert peak <= 0.25 * a9.packed.nbytes
