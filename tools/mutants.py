"""Hand-made mutants of rfw, each of which Tier-1 must catch.

    python tools/mutants.py            # every mutant, about 5-10 min on two cores
    python tools/mutants.py NAME ...   # only the named ones

Each mutant replaces one exact text in one file.  The runner first checks
that every old text occurs exactly once in its file, so drift in the code
shows before anything runs.  Then it copies the tree to a temporary
directory, runs Tier-1 there unmutated (which must pass), and for each
mutant copies the tree again, applies it and runs Tier-1 with `-x`:
caught if pytest fails, survived if it passes.  It prints one line a mutant
with the first failing test, then the total time, and exits 1 if an old
text does not match or a mutant survives (2 if the unmutated tree fails).
`tests/test_mutants.py`, which checks the old texts in Tier-1, is left out
of the mutated runs, since it fails on every mutant by design.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    # Every `verify` property answering PASS whatever the sets hold.
    Mutant("verify_palindromic_vacuous", "src/rfw/factors.py",
           "    if rev == a:\n", "    if True:\n"),
    Mutant("palindromic_witness_reads_the_reverses", "src/rfw/factors.py",
           "missing = a.packed[~_member(rev.packed, a.packed)]",
           "missing = rev.packed[~_member(a.packed, rev.packed)]"),
    Mutant("verify_overlap_vacuous", "src/rfw/factors.py",
           "    if lhs == rhs:\n", "    if True:\n"),
    Mutant("verify_prefix_stability_vacuous", "src/rfw/factors.py",
           "    a_n, f_n = enumerate_A(n), fib(n)\n    head, tail",
           "    return VerifyResult(True)\n    a_n, f_n = enumerate_A(n), fib(n)\n    head, tail"),
    Mutant("verify_superset_vacuous", "src/rfw/factors.py",
           "    if inside.all():\n", "    if True:\n"),
    Mutant("superset_mirror_reads_the_first_pair", "src/rfw/factors.py",
           "u, v = halves(n)[reversed_form]", "u, v = halves(n)[0]"),
    Mutant("verify_factor_stability_pass_above_3", "src/rfw/factors.py",
           "    if first == later:\n", "    if first == later or n > 3:\n"),
    Mutant("verify_slice_bound_never_over", "src/rfw/factors.py",
           "        if pre * suf > bound:\n", "        if False:\n"),
    Mutant("verify_slice_bound_no_cuts", "src/rfw/factors.py",
           "enumerate(zip(*_cut_counts(n)), start=1)",
           "enumerate(zip(*_cut_counts(n)[:0]), start=1)"),
    Mutant("verify_Fn_bound_1e30", "src/rfw/factors.py",
           "    bound = 2 * (4 ** (n - 2) * fib(n - 1) + 1) * len(enumerate_A(n))\n",
           "    bound = 10**30\n"),
    Mutant("format_c_half_even", "src/rfw/factors.py",
           "rounding=ROUND_HALF_UP)", 'rounding="ROUND_HALF_EVEN")'),
    # The one ceiling on enumeration, and the one type for every fixed limit.
    Mutant("enumerate_A_refuses_its_ceiling", "src/rfw/inflation.py",
           "    if n > MAX_ENUMERATED:\n", "    if n >= MAX_ENUMERATED:\n"),
    Mutant("item_cap_outside_the_limits", "src/rfw/factors.py",
           "class ItemCapError(CapacityError):", "class ItemCapError(RuntimeError):"),
    Mutant("verify_lets_a_limit_escape", "src/rfw/cli.py",
           "except (CapacityError, MemoryError) as exc:", "except MemoryError as exc:"),
    # The set kernels.
    Mutant("member_unclamped", "src/rfw/wordset.py",
           "canonical[np.minimum(np.searchsorted(canonical, words), len(canonical) - 1)]",
           "canonical[np.searchsorted(canonical, words)]"),
    Mutant("product_windows_row_end", "src/rfw/wordset.py",
           "[lo >> j, (hi >> j) + 1]", "[lo >> j, hi >> j]"),
    Mutant("reverse_nibble_mask", "src/rfw/wordset.py",
           "(4, 0x0F0F0F0F0F0F0F0F)", "(4, 0x0F0F0F0F0F0F0F07)"),
    Mutant("check_fits_off_by_one", "src/rfw/wordset.py",
           "int(packed.max()) >> length:", "int(packed.max()) >> length + 1:"),
    Mutant("suffix_counts_empty_set", "src/rfw/wordset.py",
           "np.cumsum(past) + min(len(canonical), 1)", "np.cumsum(past) + 1"),
    Mutant("distinct_drops_the_first", "src/rfw/wordset.py",
           "    keep[:1] = True\n", "    keep[:1] = False\n"),
    Mutant("distinct_run_count", "src/rfw/wordset.py",
           "owned[:-1]) < _FEW_RUNS", "owned[:-1]) <= _FEW_RUNS"),
    Mutant("in_product_drops_its_gap", "src/rfw/wordset.py",
           "block >> np.uint64(u.length + gap))", "block >> np.uint64(u.length))"),
    Mutant("unchecked_constructor_skips_the_length", "src/rfw/wordset.py",
           "        _check_length(length)\n        self = cls.__new__(cls)\n",
           "        self = cls.__new__(cls)\n"),
    Mutant("overlap_splits_on_the_first_pair", "src/rfw/factors.py",
           "_in_product(first.packed, *second)", "_in_product(first.packed, u, v)"),
    Mutant("membership_reads_one_half", "src/rfw/inflation.py",
           "for u, v in both]", "for u, v in both[:1]]"),
    # The sampler.
    Mutant("threshold_floor", "src/rfw/inflation.py",
           "math.ceil(math.ldexp(p, 53))", "math.floor(math.ldexp(p, 53))"),
    Mutant("sampler_p_swapped", "src/rfw/inflation.py",
           "drawn = rng.coins(p, ", "drawn = rng.coins(1 - p, "),
    Mutant("sampler_reuses_a_coin", "src/rfw/inflation.py",
           '        packed[lo:hi] = np.packbits(drawn, axis=1, bitorder="little")\n',
           "        drawn[:, -1] = drawn[:, 0]\n"
           '        packed[lo:hi] = np.packbits(drawn, axis=1, bitorder="little")\n'),
    # The three counting routes.
    Mutant("count_long_exponent", "src/rfw/inflation.py",
           "    ex, ey = e1 + 1, e2 + e3\n", "    ex, ey = e1, e2 + e3\n"),
    Mutant("count_short_factor", "src/rfw/inflation.py",
           "    a, ea = _split(m - 1)\n", "    a, ea = _split(m)\n"),
    Mutant("count_explicit_twos", "src/rfw/inflation.py",
           "        twos += e * f[i - 2]\n", "        twos += e * f[i - 1]\n"),
    # The FFT product kernel.
    Mutant("mul_nibble_mask", "src/rfw/inflation.py",
           "(b[:, 1] & 15) << 8", "(b[:, 1] & 7) << 8"),
    Mutant("mul_wide_bound_a_half", "src/rfw/inflation.py",
           "2.0**-53 < 1 / 8", "2.0**-53 < 1 / 2"),
    Mutant("mul_drops_the_24_bit_shift", "src/rfw/inflation.py",
           "<< w * j for j", "<< w * j % 24 for j"),
    # Both file formats and the CLI's exit codes.
    Mutant("binary_count_in_header", "src/rfw/wordset.py",
           "self.length, len(self._packed)))", "self.length, len(self._packed) + 1))"),
    Mutant("binary_admits_repeats", "src/rfw/wordset.py",
           "if (packed[1:] <= packed[:-1]).any():", "if (packed[1:] < packed[:-1]).any():"),
    Mutant("text_admits_other_symbols", "src/rfw/wordset.py",
           'bad_char = np.flatnonzero((data != ord("0")) & (data != ord("1")))',
           'bad_char = np.flatnonzero((data != ord("0")) & (data != ord("1")) & (data != 50))'),
    Mutant("cli_errors_exit_1", "src/rfw/cli.py",
           "        return _EXIT_RESOURCE\n\n\nif __name__",
           "        return 1\n\n\nif __name__"),
]

DRIFT_TEST = "tests/test_mutants.py"
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_work", "*.egg-info")


def unmatched(root: Path = ROOT) -> list[str]:
    """Names of the mutants whose old text does not occur exactly once in its file."""
    return [m.name for m in MUTANTS if (root / m.file).read_text().count(m.old) != 1]


def tier1(tree: Path, *extra: str) -> tuple[bool, str]:
    """Run Tier-1 in `tree`: whether it passed, and the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", *extra],
                         cwd=tree, env=env, capture_output=True, text=True)
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, re.MULTILINE)
    return run.returncode == 0, first.group(1) if first else ""


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    missing = unmatched()
    for name in missing:
        print(f"{name}: old text does not occur exactly once")
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}")
    if missing or unknown:
        return 1
    start, survived = time.monotonic(), []
    with tempfile.TemporaryDirectory(prefix="rfw-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        shutil.copytree(ROOT, clean, ignore=IGNORED)
        passed, first = tier1(clean)
        if not passed:
            print(f"the unmutated tree fails Tier-1 at {first}")
            return 2
        for m in chosen:
            tree = Path(scratch) / m.name
            shutil.copytree(clean, tree, ignore=IGNORED)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            t0 = time.monotonic()
            passed, first = tier1(tree, "-x", f"--ignore={DRIFT_TEST}")
            print(f"{m.name}: {'SURVIVED' if passed else 'caught by ' + first}"
                  f" ({time.monotonic() - t0:.1f} s)", flush=True)
            if passed:
                survived.append(m.name)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} caught in "
          f"{time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
