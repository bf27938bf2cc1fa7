"""Integer partitions: representation, parsing, enumeration, counting, surgery.

A partition of n is a weakly decreasing tuple of positive integers summing
to n.  Everything here is a pure function on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InputError


@dataclass(frozen=True, order=True)
class Partition:
    """Weakly decreasing tuple of positive integers.

    ``n`` is the sum of the parts and ``s`` the number of parts.  Ordering
    compares part tuples lexicographically, so ``sorted(..., reverse=True)``
    gives descending lexicographic order.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InputError("a partition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise InputError(f"part must be a positive integer, got {p!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InputError(f"parts must be weakly decreasing: {self.parts}")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        """Build a partition from parts given in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def s(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of positive integers, in any order.

    Whitespace around tokens is ignored; the result is canonically sorted in
    weakly decreasing order.  Raises :class:`InputError` naming the first
    offending token.
    """
    if text.strip() == "":
        raise InputError("empty partition")
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = int(token)
        except ValueError:
            raise InputError(f"not an integer: {token!r}") from None
        if value < 1:
            raise InputError(f"part must be positive: {token!r}")
        values.append(value)
    return Partition(tuple(sorted(values, reverse=True)))


def _descending(n: int, s: int) -> Iterator[tuple[int, ...]]:
    # Walks the parts in place: fill every position from i on with its
    # largest feasible part (at most the previous part, leaving at least 1 for
    # each later one), emit, then lower the rightmost part that can still go
    # down (it must stay at least the average of what is left there).
    if s > n:
        return
    parts = [0] * s
    rest = [n] + [0] * s  # rest[j]: total left for positions j..s-1
    i = 0
    while True:
        for j in range(i, s):
            parts[j] = min(parts[j - 1] if j else n, rest[j] - (s - j) + 1)
            rest[j + 1] = rest[j] - parts[j]
        yield tuple(parts)
        i = s - 1
        while i >= 0 and (parts[i] - 1) * (s - i) < rest[i]:
            i -= 1
        if i < 0:
            return
        parts[i] -= 1
        rest[i + 1] += 1
        i += 1


def enumerate_partitions(s: int, n: int) -> Iterator[Partition]:
    """All partitions of ``n`` with exactly ``s`` parts.

    Emitted in descending lexicographic order of the part tuples; this order
    is fixed and relied upon by the classification code.  Empty when
    ``s > n``.
    """
    if s < 1 or n < 1:
        raise InputError(f"need s >= 1 and n >= 1, got s={s}, n={n}")
    return (Partition(parts) for parts in _descending(n, s))


def count_partitions(s: int, n: int) -> int:
    """Number of partitions of ``n`` with exactly ``s`` parts.

    The coefficient of q^n in q^s / ((1-q)(1-q^2)...(1-q^s)), read off the
    truncated integer power series of the product, multiplied in place one
    factor 1/(1-q^i) at a time; factors with i above the degree n - s leave
    every coefficient up to it unchanged, so at most min(s, n - s) passes of
    n - s additions each are made.  Zero when ``s > n``.
    """
    if s < 0 or n < 0:
        raise InputError(f"need s >= 0 and n >= 0, got s={s}, n={n}")
    if n < s:
        return 0
    degree = n - s
    coeffs = [1] + [0] * degree
    for i in range(1, min(s, degree) + 1):
        for k in range(i, degree + 1):
            coeffs[k] += coeffs[k - i]
    return coeffs[degree]


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Ferrers diagram (column lengths become parts)."""
    return Partition(
        tuple(sum(1 for p in lam.parts if p >= i) for i in range(1, lam.parts[0] + 1))
    )


def concat(lam: Partition, mu: Partition) -> Partition:
    """Merge the part multisets of two partitions and re-sort."""
    return Partition(tuple(sorted(lam.parts + mu.parts, reverse=True)))


def scale(d: int, lam: Partition) -> Partition:
    """Multiply every part by ``d >= 1``."""
    if d < 1:
        raise InputError(f"scale factor must be >= 1, got {d}")
    return Partition(tuple(d * p for p in lam.parts))


def truncate(lam: Partition, j: int) -> Partition:
    """Drop the ``j`` smallest parts.  Requires ``0 <= j < s``.

    Dropping all parts would leave the empty (all-zero) tuple, which is not a
    valid partition here, so ``j >= s`` is rejected.
    """
    if not 0 <= j < lam.s:
        raise InputError(f"cannot drop {j} parts from a partition with {lam.s}")
    return Partition(lam.parts[: lam.s - j]) if j else lam
