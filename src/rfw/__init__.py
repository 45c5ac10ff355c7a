"""Random Fibonacci words: inflation sets, factor sets, and their entropy."""

from .factors import (DEFAULT_ITEM_CAP, FactorReport, ItemCapError, VerifyResult,
                      build_report, c_stat, factor_set, factor_set_Fn, fa_next_count,
                      format_c, table_rows, verify_factor_stability, verify_Fn_bound,
                      verify_overlap, verify_palindromic, verify_prefix_stability,
                      verify_slice_bound, verify_superset)
from .inflation import (PrngHandle, count_A_explicit, count_A_long, count_A_short,
                        entropy_limit, enumerate_A, inflate_step, log_growth, sample_chain,
                        sample_packed)
from .words import EMPTY, WORD_CAPACITY, CapacityError, Word, fib
from .wordset import WordSet

__all__ = [
    "CapacityError", "DEFAULT_ITEM_CAP", "EMPTY", "FactorReport",
    "ItemCapError", "PrngHandle", "VerifyResult",
    "WORD_CAPACITY", "Word", "WordSet", "build_report", "c_stat",
    "count_A_explicit", "count_A_long", "count_A_short", "entropy_limit",
    "enumerate_A", "fa_next_count", "factor_set", "factor_set_Fn", "fib",
    "format_c", "inflate_step", "log_growth", "sample_chain", "sample_packed",
    "table_rows",
    "verify_Fn_bound", "verify_factor_stability", "verify_overlap",
    "verify_palindromic", "verify_prefix_stability", "verify_slice_bound",
    "verify_superset",
]

__version__ = "0.1.0"
