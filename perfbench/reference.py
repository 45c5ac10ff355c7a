"""The fixed reference routines that run.py times beside every step.

    python3 perfbench/reference.py mixed|dedup|bigint

The host this benchmark runs on is shared: other tenants' load makes every
process on it up to 1.6 times slower for seconds to minutes at a time, so the
wall time of a step alone drifts more between runs than a bound can allow.
run.py therefore runs one of these routines, in a fresh interpreter, before
the first step of a run and after every step, and divides each step's wall
time by the reference time on either side of it.  A slowdown of the host
stretches both alike, as long as the routine does the same kind of work as
the step: a workload names its routine in registry.json.

- ``mixed`` (about 0.7 s on a 2-core Xeon virtual machine): interpreted dict
  and list work, big-int multiplication and a small numpy dedup, the kind of
  work of the ``sample`` task.
- ``dedup`` (about 1.3 s): a numpy dedup of a million random 64-bit keys, the
  kind of work of the set kernels.  Their slowdowns come with the memory
  traffic of large arrays, which ``mixed`` barely has: over fourteen 13 s
  ``table`` steps the step's time over ``mixed`` spread (IQR over median)
  0.11 and over ``dedup`` 0.03, against 0.05 raw.
- ``bigint`` (about 0.9 s): a power of 3 of two million bits and its product
  with its successor, the kind of work of the ``count`` task.  The host's
  slow spells slow such multi-megabyte integers more than ``mixed``: over
  five runs of ``count``, its time over ``mixed`` spread 0.21 and over
  ``bigint`` 0.10.

Both import numpy first, as the steps do.  Neither imports rfw, so no change
to the library moves them.  Each prints a checksum, so that a broken routine
shows.
"""

from __future__ import annotations

import sys

import numpy as np


def interpreted(rounds: int = 400_000) -> int:
    table: dict[int, int] = {}
    items = []
    for i in range(rounds):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            items.append(key)
    items.sort()
    return sum(table.values()) ^ len(items)


def big_int(bits: int = 1_000_000) -> int:
    x = 3 ** (bits * 100 // 159)
    return (x * (x + 1)).bit_length()


def dedup(size: int, high: int) -> int:
    keys = np.random.default_rng(1).integers(0, high, size, dtype=np.uint64)
    return int(np.unique(keys).sum() % high)


ROUTINES = {
    "mixed": lambda: (interpreted(), big_int(), dedup(150_000, 2**20)),
    "dedup": lambda: (dedup(1_000_000, 2**62),),
    "bigint": lambda: (big_int(2_000_000),),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ROUTINES:
        raise SystemExit(__doc__)
    print(*ROUTINES[argv[0]]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
