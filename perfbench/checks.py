"""Output checks of the rfw benchmark, run in a process of their own.

    python perfbench/checks.py TASK OP_DIR

exits 0 and prints the digest of the task's standard output when the
outputs in OP_DIR are right, and exits 1 with the reason otherwise.  Within
one benchmark run a task always gets the same inputs, so run.py also requires
every digest it gets for the task to be equal.  Checks run apart from run.py so that their
memory never shows in the peak RSS of the children it measures.

References do not come from the code under test: the paper's table, digests
of the seed's exports, and A_n sets built here by an independent sort-based
enumeration.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from step import int_digest
from workloads import load_registry

# The paper's numerics table, rows n = 0..8, as `rfw table --format csv` prints it.
TABLE_CSV = """n,f_n,A_n,F_n,F_A_next,c_n
0,0,0,,,
1,1,1,2,1,
2,1,1,2,2,
3,2,2,4,3,2.0
4,3,3,7,7,2.0
5,5,8,22,22,2.0
6,8,30,108,108,2.13333
7,13,288,1356,1356,2.11111
8,21,10080,65800,65800,2.17143
"""

# |A_n| for n = 0..9 (the table's A_n column plus its n = 9 row) and |A_10|.
A_COUNTS = (0, 1, 1, 2, 3, 8, 30, 288, 10080, 3317760)
A_10 = 37623398400

# Digests of the seed's exports.  The tests rebuild both files from the
# independent enumeration below and compare.
A9_BIN_SHA256 = "90b0d0a2ec2561a99fbdd37312fcb3d415d65b5763b82b60eb4bac6e19303339"
A8_TXT_SHA256 = "d9d3f710bba86afcceddf1077ad27b55b7288c02f92991ff48c6a4173ca36907"


class CheckFailed(Exception):
    pass


# --- independent reference sets -----------------------------------------


def reference_A(n: int) -> tuple[int, np.ndarray]:
    """(word length, sorted distinct packed words) of A_n, n >= 1.

    Same recursion as the library, A_n = A_{n-1}A_{n-2} u A_{n-2}A_{n-1}, but
    deduplicated by sort and neighbour comparison, sharing no code with rfw.
    """
    sets = {1: (1, np.array([0], dtype=np.uint64)), 2: (1, np.array([1], dtype=np.uint64))}
    for m in range(3, n + 1):
        (lb, big), (ls, small) = sets[m - 1], sets[m - 2]
        both = np.concatenate([
            (big[:, None] | (small << np.uint64(lb))[None, :]).ravel(),
            (small[:, None] | (big << np.uint64(ls))[None, :]).ravel(),
        ])
        both.sort()
        keep = np.ones(len(both), dtype=bool)
        np.not_equal(both[1:], both[:-1], out=keep[1:])
        sets[m] = (lb + ls, both[keep])
    return sets[n]


def member_of_A(words: np.ndarray, n: int, refs: dict[int, tuple[int, np.ndarray]]) -> np.ndarray:
    """Which packed words lie in A_n, splitting as A_{n-1}A_{n-2} u A_{n-2}A_{n-1}
    down to the generations held in `refs`."""
    if n in refs:
        ref = refs[n][1]
        i = np.searchsorted(ref, words).clip(max=len(ref) - 1)
        return ref[i] == words
    lb, ls = length_A(n - 1), length_A(n - 2)

    def split(first: int, len_first: int, second: int) -> np.ndarray:
        low = words & np.uint64((1 << len_first) - 1)
        return member_of_A(low, first, refs) & member_of_A(words >> np.uint64(len_first),
                                                           second, refs)

    return split(n - 1, lb, n - 2) | split(n - 2, ls, n - 1)


def length_A(n: int) -> int:
    """f_n, the length of the words of A_n."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def packed_digest(packed: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(packed, dtype="<u8").tobytes()).hexdigest()


def parse_lines(lines: list[bytes], length: int) -> np.ndarray | None:
    """Packed values of equal-length 0/1 lines, or None if any line is malformed."""
    if any(len(line) != length for line in lines):
        return None
    chars = np.frombuffer(b"".join(lines), dtype=np.uint8).reshape(len(lines), length)
    if not np.isin(chars, (ord("0"), ord("1"))).all():
        return None
    bits = (chars == ord("1")).astype(np.uint64) << np.arange(length, dtype=np.uint64)
    return np.bitwise_or.reduce(bits, axis=1)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- one check per task -----------------------------------------------------------


def check_table(op_dir: Path, spec: dict) -> None:
    if (op_dir / "table.csv").read_bytes() != TABLE_CSV.encode():
        raise CheckFailed("table.csv differs from the paper's rows 0..8")


def check_verify(op_dir: Path, spec: dict) -> None:
    for i, n in enumerate(spec["expect_passed"]):
        lines = (op_dir / f"{i}.out").read_text().splitlines()
        if any(line.startswith("FAIL") for line in lines):
            raise CheckFailed(f"verify step {i} printed a FAIL line")
        if not lines or lines[-1] != f"{n}/{n} checks passed":
            raise CheckFailed(f"verify step {i} did not end with {n}/{n} checks passed")


def check_export(op_dir: Path, spec: dict) -> None:
    if sha256_file(op_dir / "A9.bin") != A9_BIN_SHA256:
        raise CheckFailed("A9.bin digest differs from the seed's")
    if sha256_file(op_dir / "A8.txt") != A8_TXT_SHA256:
        raise CheckFailed("A8.txt digest differs from the seed's")
    payload = hashlib.sha256((op_dir / "A9.bin").read_bytes()[10:]).hexdigest()
    expect = [f"A9.bin {A_COUNTS[9]} {payload}",
              f"A8.txt {A_COUNTS[8]} {packed_digest(reference_A(8)[1])}"]
    if (op_dir / "2.out").read_text().splitlines() != expect:
        raise CheckFailed("a reload differs from the words written")


def check_sample(op_dir: Path, spec: dict) -> None:
    """Each line is a word of A_10 = A_9A_8 u A_8A_9."""
    argv = spec["steps"][0]
    count = int(argv[argv.index("--count") + 1])
    data = (op_dir / "0.out").read_bytes()
    lines = data.splitlines()
    if len(lines) != count or not data.endswith(b"\n"):
        raise CheckFailed(f"{len(lines)} sample lines, expected {count}")
    words = parse_lines(lines, length_A(10))
    if words is None:
        raise CheckFailed("a sample line is not a 55-symbol 0/1 word")
    ok = member_of_A(words, 10, {7: reference_A(7), 8: reference_A(8)})
    if not ok.all():
        raise CheckFailed(f"sample {int(np.argmin(ok)) + 1} is not in A_9A_8 u A_8A_9")


def check_count(op_dir: Path, spec: dict) -> None:
    top = int(spec["steps"][0][2])
    lines = (op_dir / "0.out").read_text().splitlines()
    if len(lines) != top + 1:
        raise CheckFailed(f"{len(lines)} count lines, expected {top + 1}")
    for n, line in enumerate(lines):
        fields = line.split()
        if len(fields) != 5 or fields[0] != str(n):
            raise CheckFailed(f"malformed count line for n = {n}")
        if not fields[1] == fields[2] == fields[3]:
            raise CheckFailed(f"the three formulas disagree at n = {n}")
        expect = A_COUNTS[n] if n < len(A_COUNTS) else A_10 if n == 10 else None
        if expect is not None and (fields[4] != str(expect) or fields[1] != int_digest(expect)):
            raise CheckFailed(f"|A_{n}| is not {expect}")


CHECKS = {"table": check_table, "verify": check_verify, "export": check_export,
          "sample": check_sample, "count": check_count}


def check(name: str, op_dir: Path, registry: dict | None = None) -> str:
    """Raise CheckFailed unless the outputs in `op_dir` are right; return the
    digest of the operation's standard output."""
    spec = (registry or load_registry())["tasks"][name]
    CHECKS[name](op_dir, spec)
    h = hashlib.sha256()
    for i in range(len(spec["steps"])):
        h.update((op_dir / f"{i}.out").read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    name, op_dir = argv
    try:
        print(check(name, Path(op_dir)))
    except (CheckFailed, OSError, ValueError) as exc:
        print(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
