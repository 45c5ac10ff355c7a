"""Command-line front end.

Subcommands: table, entropy, verify, sample, factors, export; the one global
flag is --item-cap, and enumeration has a fixed budget (see DEFAULT_BUDGET)
that refuses A_10 only.  Exit codes: 0 all good, 1 a verified property
failed, 2 resource or configuration errors (budget, item cap, capacity,
memory, bad flags or values such as an unknown verify property or a
negative --max-n, files that cannot be written).
`main` turns each of these errors into exit code 2 and a one-line message;
a reader that closes stdout early ends the command quietly with exit code 0.
`verify` instead reports a check that hits a limit as a RESOURCE line and
goes on; it exits 1 if any check failed, else 2 if any hit a limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import factors, inflation
from .inflation import MAX_ENUMERATED, BudgetError, PrngHandle
from .words import CapacityError, Word, fib
from .wordset import render_packed

_EXIT_FAIL = 1
_EXIT_RESOURCE = 2

# Chains `sample` draws, checks and prints at a time.  Blocks of 4096 would
# add about 5 MB to the command's peak memory.
_SAMPLE_BLOCK = 256


def _blank(x) -> str:
    return "" if x is None else str(x)


def _row_cells(r: factors.FactorReport) -> list[str]:
    return [str(r.n), str(r.f_n), str(r.a_count), _blank(r.f_count),
            _blank(r.fa_next_count), "" if r.c is None else factors.format_c(r.c)]


@contextmanager
def _output(path, mode: str = "w"):
    """stdout when `path` is None, else the file `path` opened in `mode`."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, mode) as fh:
            yield fh


def cmd_table(args) -> int:
    if args.max_n > MAX_ENUMERATED:
        raise ValueError(f"max-n {args.max_n} not computable (|A_11| needs 89-symbol words)")
    rows = factors.table_rows(args.max_n, args.item_cap)
    with _output(args.output) as out:
        if args.format == "csv":
            out.write("n,f_n,A_n,F_n,F_A_next,c_n\n")
            for r in rows:
                out.write(",".join(_row_cells(r)) + "\n")
        elif args.format == "json":
            json.dump([r.to_json_dict() for r in rows], out, indent=2)
            out.write("\n")
        else:
            header = ["n", "f_n", "|A_n|", "|F_n|", "|F(A_n+1,f_n)|", "c_n"]
            widths = [max(len(h), *(len(_row_cells(r)[i]) for r in rows))
                      for i, h in enumerate(header)]
            out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n")
            for r in rows:
                out.write("  ".join(c.rjust(w) for c, w in zip(_row_cells(r), widths)) + "\n")
    return 0


def cmd_entropy(args) -> int:
    if not 1e-12 <= args.tol <= 1e-2:
        raise ValueError(f"tolerance {args.tol} outside [1e-12, 1e-2]")
    limit = inflation.entropy_limit(args.tol)
    print(f"entropy limit      : {limit:.6f}")
    print(f"growth rate exp(h) : {math.exp(limit):.6f}")
    print("log-growth sequence:")
    for n in range(3, max(args.max_n, 3) + 1):
        print(f"  n = {n:2d}  log|A_n|/f_n = {inflation.log_growth(n):.6f}")
    print("factor-vs-word gap :")
    for n in range(3, min(args.max_n, MAX_ENUMERATED) + 1):
        a = len(inflation.enumerate_A(n))
        f = len(factors.factor_set_Fn(n, args.item_cap))
        gap = (math.log(f) - math.log(a)) / fib(n)
        print(f"  n = {n:2d}  gap = {gap:.6f}")
    return 0


def _verify_checks(max_n: int, item_cap: int):
    """Yield (property, label, thunk) for every check in scope."""
    top = min(max_n + 1, MAX_ENUMERATED)  # largest generation enumerated by the suite
    for n in range(1, top + 1):
        yield "reversal", f"n={n}", lambda n=n: inflation.verify_palindromic(n)
    for n in range(3, top):
        for k in range(1, top - n + 1):
            yield "prefix-stability", f"n={n},k={k}", \
                lambda n=n, k=k: factors.verify_prefix_stability(n, k)
    for n in range(4, min(top, 8) + 1):
        yield "superset", f"n={n}", lambda n=n: factors.verify_superset(n)
        yield "superset-reversed", f"n={n}", \
            lambda n=n: factors.verify_superset(n, reversed_form=True)
    for n in range(4, top - 1):
        for k in range(2, top - n + 1):
            yield "factor-stability", f"n={n},k={k}", \
                lambda n=n, k=k: factors.verify_factor_stability(n, k)
    yield "factor-instability-n3", "n=3,k=2 (expected failure)", \
        lambda: inflation.VerifyResult(
            not factors.verify_factor_stability(3, 2).ok,
            "F(A_4,f_3) = F(A_5,f_3) although the paper-documented 00 factor should break it")
    for n in range(4, min(top, 8) + 1):
        yield "overlap", f"n={n}", lambda n=n: inflation.verify_overlap(n)
    for n in range(3, top + 1):
        yield "cut-bound", f"n={n}", lambda n=n: factors.verify_slice_bound(n)
    for n in range(3, max_n + 1):
        yield "factor-bound", f"n={n}", lambda n=n: factors.verify_Fn_bound(n, item_cap)


def cmd_verify(args) -> int:
    wanted = None if args.prop == "all" else set(args.prop.split(","))
    if wanted is not None:
        # At max_n = MAX_ENUMERATED every property has at least one check.
        unknown = wanted - {prop for prop, _, _ in _verify_checks(MAX_ENUMERATED, args.item_cap)}
        if unknown:
            raise ValueError(f"unknown property {', '.join(sorted(unknown))}")
    failures = limited = ran = 0
    for prop, label, thunk in _verify_checks(args.max_n, args.item_cap):
        if wanted is not None and prop not in wanted:
            continue
        ran += 1
        try:
            res = thunk()
        except (BudgetError, CapacityError, MemoryError) as exc:
            limited += 1
            print(f"RESOURCE  {prop:22s} {label}  [{str(exc) or type(exc).__name__}]")
            continue
        if res.ok:
            print(f"PASS  {prop:22s} {label}")
        else:
            failures += 1
            print(f"FAIL  {prop:22s} {label}  [{res.witness}]")
    summary = f"{ran - failures - limited}/{ran} checks passed"
    print(f"{summary}, {limited} hit a limit" if limited else summary)
    if failures:
        return _EXIT_FAIL
    return _EXIT_RESOURCE if limited else 0


def cmd_sample(args) -> int:
    inflation.check_chain(args.n, args.p)
    rng = PrngHandle(args.seed)
    member = inflation.membership(args.n) if args.check else None
    for start in range(0, args.count, _SAMPLE_BLOCK):
        packed = inflation.sample_packed(args.n, args.p, rng,
                                         min(_SAMPLE_BLOCK, args.count - start))
        stop = len(packed)
        if member is not None:
            missing = np.flatnonzero(~member(packed))
            if len(missing):
                stop = missing[0]
        sys.stdout.write(render_packed(packed[:stop], fib(args.n)))
        if stop < len(packed):
            print(f"sample: {Word(int(packed[stop]), fib(args.n))} not in A_{args.n}",
                  file=sys.stderr)
            return _EXIT_FAIL
    return 0


def _write_set(build, args) -> int:
    """Write the set `build()` returns, once the output flags are known to be usable."""
    if args.binary and args.output is None:
        raise ValueError("a binary export needs -o FILE")
    ws = build()
    with _output(args.output, "wb" if args.binary else "w") as fh:
        (ws.write_binary if args.binary else ws.write_text)(fh)
    return 0


def cmd_factors(args) -> int:
    return _write_set(lambda: factors.factor_set_Fn(args.n, args.item_cap), args)


def cmd_export(args) -> int:
    return _write_set(lambda: inflation.enumerate_A(args.n), args)


def _at_least(low: int):
    """argparse type: an int no smaller than `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfw",
        description="Inflated random Fibonacci words: enumeration, factor sets, "
                    "entropy, and brute-force verification.")
    parser.add_argument("--item-cap", type=_at_least(1), default=inflation.DEFAULT_ITEM_CAP,
                        help="max candidate items a factor construction may project "
                             "(default 2^26; raise for n = 9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="reproduce the numerics table")
    p.add_argument("--max-n", type=_at_least(0), default=8)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("entropy", help="entropy limit and gap sequences")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-n", type=_at_least(0), default=8)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify", help="brute-force the proved propositions")
    p.add_argument("--prop", default="all",
                   help="comma-separated property names, or 'all'")
    p.add_argument("--max-n", type=_at_least(0), default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="sample random inflation chains")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_at_least(0), default=1)
    p.add_argument("--check", action="store_true",
                   help="assert each sample is a member of the enumerated set")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("factors", help="write the factor set F_n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("export", help="write the inflated-word set A_n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone (`| head`): end quietly, as Unix tools do.  Python
        # flushes stdout again at exit, so point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (BudgetError, CapacityError, MemoryError, ValueError, OSError) as exc:
        print(f"{args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
