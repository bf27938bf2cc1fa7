"""Integer partitions: representation, parsing, enumeration, counting, surgery.

A partition of n is a weakly decreasing tuple of positive integers summing
to n.  Everything here is a pure function on immutable values.  A partition
derives its h-vector, g-vector and polynomial on first read and keeps them;
they are not fields, so equality, hash, order and repr read the parts alone.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from functools import cached_property

from ._record import Record
from .errors import InputError
from .gcd_symm import GVector, HVector, _closure_h, _g_from_h
from .partition_poly import PartitionPolynomial, _polynomial


class Partition(Record):
    """Weakly decreasing tuple of positive integers.

    ``n`` is the sum of the parts and ``s`` the number of parts.  Ordering
    compares part tuples lexicographically, so ``sorted(..., reverse=True)``
    gives descending lexicographic order.  ``h`` is derived from the
    gcd-closure of the parts (its only derivation), ``g`` from ``h`` and
    ``polynomial`` from ``g``, each on first read, and kept.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        if type(parts) is not tuple:
            raise InputError(f"parts must be a tuple, got {type(parts).__name__}")
        if not parts:
            raise InputError("a partition needs at least one part")
        for p in parts:
            if type(p) is not int or p < 1:
                raise InputError(f"part must be a positive integer, got {p!r}")
        if any(map(operator.lt, parts, parts[1:])):
            raise InputError(f"parts must be weakly decreasing: {parts}")
        self.__dict__["parts"] = parts

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

    @cached_property
    def h(self) -> HVector:
        return HVector(_closure_h(self.parts))

    @cached_property
    def g(self) -> GVector:
        return GVector(_g_from_h(self.h.values))

    @cached_property
    def polynomial(self) -> PartitionPolynomial:
        return _polynomial(self.g)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is Partition:
            return self.parts < other.parts
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is Partition:
            return self.parts <= other.parts
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other.__class__ is Partition:
            return self.parts > other.parts
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other.__class__ is Partition:
            return self.parts >= other.parts
        return NotImplemented

    def __iter__(self):
        return iter(self.parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


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
    return Partition.of(*values)


def _descending(n: int, s: int) -> Iterator[tuple[int, ...]]:
    # Walks the parts in place: emit, lower the rightmost part that can still
    # go down, and refill every position after it with its largest feasible
    # part.  A part a at position i can go down when the k = last - i parts
    # after it hold less than (a - 1) * k, so a 2 never can (they hold at
    # least k) and the scan starts left of the trailing ones.  Lowered to v,
    # it leaves those k positions an excess of e over k ones, and the greedy
    # refill is q parts v, one part 1 + r and then ones, (q, r) = divmod(e,
    # v - 1).  The commonest move, with no trailing ones, refills the last
    # part alone (with s = 1, parts[last - 1] is that part, and it is not
    # taken).
    if s > n:
        return
    last = s - 1
    parts = [n - last] + [1] * last
    ones = last  # trailing ones after position 0
    while True:
        yield tuple(parts)
        if ones == 0 and parts[last - 1] - parts[last] >= 2:
            parts[last - 1] -= 1
            parts[last] += 1
            continue
        i = last - ones
        after = ones  # total of the parts after position i
        while i >= 0 and after >= (parts[i] - 1) * (last - i):
            after += parts[i]
            i -= 1
        if i < 0:
            return
        v = parts[i] = parts[i] - 1
        k = last - i
        q, r = divmod(after + 1 - k, v - 1)
        # q == k leaves no room for the 1 + r part, and then r == 0.
        parts[i + 1 :] = [v] * q + [1 + r] * (q < k) + [1] * (k - q - 1)
        ones = k - q - (r > 0)


def enumerate_partitions(s: int, n: int) -> Iterator[Partition]:
    """All partitions of ``n`` with exactly ``s`` parts.

    Emitted in descending lexicographic order of the part tuples; this order
    is fixed and relied upon by the classification code.  Empty when
    ``s > n``.
    """
    if type(s) is not int or type(n) is not int or s < 1 or n < 1:
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
    if type(s) is not int or type(n) is not int or s < 0 or n < 0:
        raise InputError(f"need s >= 0 and n >= 0, got s={s}, n={n}")
    if n < s:
        return 0
    degree = n - s
    coeffs = [1] + [0] * degree
    for i in range(1, min(s, degree) + 1):
        for k in range(i, degree + 1):
            coeffs[k] += coeffs[k - i]
    return coeffs[degree]


def concat(lam: Partition, mu: Partition) -> Partition:
    """Merge the part multisets of two partitions and re-sort."""
    return Partition.of(*lam.parts, *mu.parts)


def scale(d: int, lam: Partition) -> Partition:
    """Multiply every part by ``d >= 1``."""
    if type(d) is not int or d < 1:
        raise InputError(f"scale factor must be >= 1, got {d}")
    return Partition(tuple(d * p for p in lam.parts))
