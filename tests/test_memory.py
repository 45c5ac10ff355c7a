"""Peak memory of each pass over A_9, in units of A_9's own packed array.

Each pass holds A_9 (built before the measurement) plus at most one word
array of scratch, the cut counts behind c_9 included (A_9 reversed), and so
does F_9's refusal at the default item cap, which reads them.  Building A_9
holds one buffer of its words, A_8·A_7 and then the new words of A_7·A_8,
plus the scratch that lists those, and sorts no more than that buffer.
numpy reports its buffers to tracemalloc, so the traced peak counts them.
The sampler holds a few words a chain, whatever the number of chains.
"""

import os
import tracemalloc
from io import BytesIO

import pytest

from rfw import PrngHandle, WordSet, enumerate_A, factor_set, factors, inflation, wordset


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


def test_building_A9_holds_one_buffer_and_the_new_words(a9):
    # A_8 and A_7 stay cached; only A_9's own build is traced.  Measured 1.37.
    built, peak = traced_peak(lambda: inflation._enumerate.__wrapped__(9))
    assert built == a9
    assert peak <= 1.4 * a9.packed.nbytes


def test_building_A9_sorts_no_chunk_longer_than_A9(a9, monkeypatch):
    sorted_sizes, distinct = [], wordset._distinct
    monkeypatch.setattr(wordset, "_distinct", lambda owned:
                        sorted_sizes.append(len(owned)) or distinct(owned))
    assert inflation._enumerate.__wrapped__(9) == a9
    assert sorted_sizes and max(sorted_sizes) <= len(a9)


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


@pytest.mark.parametrize("run", [lambda ws: factor_set(ws, 21), lambda ws: ws.slices(1, 20),
                                 lambda ws: ws.slices(14, 34)],
                         ids=["factor_set_21", "slices_1_20", "slices_14_34"])
def test_a_table_pass_over_A9_reads_it_in_blocks(a9, run):
    # Windows marked in a table are read a block at a time, never as a word array.
    _, peak = traced_peak(lambda: run(a9))
    assert peak <= 0.25 * a9.packed.nbytes


def test_windows_past_the_table_merge_one_start_at_a_time(a9):
    # 25-symbol windows take the sort path: each start's windows are
    # deduplicated and merged into those of the starts before.  Measured 1.34.
    _, peak = traced_peak(lambda: factor_set(a9, 25))
    assert peak <= 1.4 * a9.packed.nbytes


@pytest.mark.parametrize("reversed_form", [False, True])
def test_superset_check_asks_its_product_a_block_at_a_time(a9, reversed_form):
    # One bool a word of A_9 plus a block's search scratch; asking every word
    # at once held three word-sized arrays (3.13), and the mirrored form once
    # reversed A_9 as well (1.25).  Measured 0.25 in both forms.
    result, peak = traced_peak(lambda: factors.verify_superset(9, reversed_form=reversed_form))
    assert result.ok
    assert peak <= 0.5 * a9.packed.nbytes


def test_sampling_holds_a_few_words_a_chain():
    # Coins are drawn a block at a time and packed one word a chain; drawing
    # them all at once held about 1,080 bytes a chain.  Measured 38.
    count = 200_000
    words, peak = traced_peak(lambda: inflation.sample_packed(10, 0.5, PrngHandle(5), count))
    assert len(words) == count
    assert peak <= 128 * count


@pytest.mark.heavy
def test_F9_holds_its_pieces_and_its_buckets(a9):
    # F_9's 44 window pieces (188 MiB), its 1024 buckets' words and their
    # concatenation (230 MiB each).  Measured 25.6.
    _, peak = traced_peak(lambda: factors._factor_set_Fn_cached.__wrapped__(9))
    assert peak <= 27 * a9.packed.nbytes
