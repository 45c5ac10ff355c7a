"""Run one benchmark step in this process, optionally traced.

    python perfbench/step.py [--trace FILE] -- rfw <argv...>
    python perfbench/step.py [--trace FILE] -- lib reload BIN TXT
    python perfbench/step.py [--trace FILE] -- lib count TOP

``rfw`` steps call ``rfw.cli.main`` in-process, as the ``rfw`` command does.
``lib`` steps are the library calls a
user script would make.  With ``--trace`` every public function of the rfw
modules is wrapped in a span and the span totals are written to FILE as JSON.
Results go to stdout; the exit code is the step's.
"""

from __future__ import annotations

import sys


def reload(binary: str, text: str) -> int:
    """Reload both exports and print each one's size and packed digest."""
    import hashlib

    from rfw import WordSet

    with open(binary, "rb") as fh:
        a = WordSet.read_binary(fh)
    with open(text) as fh:
        b = WordSet.read_text(fh)
    for path, ws in ((binary, a), (text, b)):
        digest = hashlib.sha256(ws.packed.astype("<u8").tobytes()).hexdigest()
        print(path, len(ws), digest)
    return 0


def int_digest(v: int) -> str:
    import hashlib

    return hashlib.sha256(v.to_bytes((v.bit_length() + 7) // 8, "little")).hexdigest()


def count(top: str) -> int:
    """Evaluate the three |A_n| formulas for n = 0..top; print their digests.

    The values reach millions of digits, so each is printed as the sha256 of
    its little-endian bytes, plus the decimal value for n <= 10.
    """
    import rfw

    formulas = (rfw.count_A_long, rfw.count_A_short, rfw.count_A_explicit)
    values = [[f(n) for f in formulas] for n in range(int(top) + 1)]
    for n, row in enumerate(values):
        print(n, *map(int_digest, row), row[2] if n <= 10 else "-")
    return 0


LIB = {"reload": reload, "count": count}


def run(step: list[str]) -> int:
    if step[0] == "rfw":
        from rfw import cli

        return cli.main(step[1:])
    if step[0] == "lib":
        return LIB[step[1]](*step[2:])
    raise SystemExit(f"unknown step kind {step[0]!r}")


def main(argv: list[str]) -> int:
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] != ["--"] or len(argv) < 2:
        raise SystemExit(__doc__)
    if trace_file is None:
        return run(argv[1:])
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return run(argv[1:])
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
