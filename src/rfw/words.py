"""Packed binary words and Fibonacci numbers.

Words over the alphabet {0,1} of length at most 64 are stored as a single
unsigned integer plus an explicit symbol count.  The symbol at 1-based
position i sits at bit i-1 (least significant bit first), so extracting a
prefix is a mask and extracting a suffix is a shift.  A Word is immutable
and hashable; slicing, reversal and concatenation work on whole sets, in
`wordset`.
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_CAPACITY = 64


class CapacityError(ValueError):
    """A request past a fixed limit: word length, generation, the A_9 ceiling, or the item cap."""


def fib(n: int) -> int:
    """n-th Fibonacci number with f_0 = 0, f_1 = 1.  Exact for any n."""
    if n < 0:
        raise ValueError(f"fib requires n >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibs(n: int) -> list[int]:
    """[f_0, f_1, ..., f_n] in one pass."""
    f = [0, 1]
    while len(f) <= n:
        f.append(f[-1] + f[-2])
    return f[:n + 1]


def _check_length(length: int) -> None:
    if not 0 <= length <= WORD_CAPACITY:
        raise CapacityError(f"word length {length} outside [0, {WORD_CAPACITY}]")


@dataclass(frozen=True)
class Word:
    """A binary word of up to 64 symbols, packed LSB-first."""

    bits: int
    length: int

    def __post_init__(self) -> None:
        _check_length(self.length)
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside the declared length")

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Build a word from its ASCII form, leftmost character = position 1."""
        _check_length(len(text))
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid symbol {ch!r} in word")
        return cls(bits, len(text))

    def render(self) -> str:
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return self.length


EMPTY = Word(0, 0)
