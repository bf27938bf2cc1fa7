"""Equivalence classes of P(s, n) under polynomial equivalence.

Within a fixed (s, n) two partitions are equivalent exactly when their
g-vectors agree, so the raw g-vector serves as the class key (g_1 = n makes
the normalization by g_s injective here, and keys stay unsigned).  The
g-vector is a bijective transform of the h-vector, so grouping is an
order-independent reduction keyed by the h-vector of each partition's
gcd-closure; each class's h is mapped to its g-key once, and a final
deterministic sort by g-key makes any evaluation order produce identical
output.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import BoundExceededError, ConsistencyError, InputError
from .gcd_symm import _closure_h, _g_from_h
from .partitions import Partition, count_partitions, enumerate_partitions

MAX_CLASSIFY_SIZE = 200_000
# Tables are also refused where s*n is above this, which bounds the counting
# work (under s*n steps) and each class key (s integers of about s + log2(n)
# bits), and where s*|P(s,n)|, the parts a table holds, is above it; P(27,77)
# holds 5 392 386.
MAX_TABLE_CELLS = 6_000_000


@dataclass(frozen=True)
class EquivalenceClass:
    key: tuple[int, ...]
    members: tuple[Partition, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EquivalenceClasses:
    """The full classification of P(s, n).

    Classes are sorted by key (ascending lexicographic); members keep the
    descending-lexicographic enumeration order.
    """

    s: int
    n: int
    classes: tuple[EquivalenceClass, ...]

    @property
    def p(self) -> int:
        """Number of partitions classified."""
        return sum(c.size for c in self.classes)

    @property
    def i(self) -> int:
        """Number of classes."""
        return len(self.classes)

    @property
    def e(self) -> dict[int, int]:
        """Histogram: class size -> number of classes of that size."""
        histogram: dict[int, int] = {}
        for c in self.classes:
            histogram[c.size] = histogram.get(c.size, 0) + 1
        return dict(sorted(histogram.items()))

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "n": self.n,
            "classes": [
                {"key": list(c.key), "members": [list(m.parts) for m in c.members]}
                for c in self.classes
            ],
            "summary": {
                "p": self.p,
                "i": self.i,
                "e": {str(size): count for size, count in self.e.items()},
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EquivalenceClasses":
        classes = tuple(
            EquivalenceClass(
                key=tuple(entry["key"]),
                members=tuple(Partition(tuple(m)) for m in entry["members"]),
            )
            for entry in data["classes"]
        )
        return cls(s=data["s"], n=data["n"], classes=classes)

    def to_csv(self) -> str:
        """One row per partition: parts, g-vector, 0-based class id.

        Rows follow the enumeration order (descending lexicographic), so the
        members of all classes are merged back into it.
        """
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["parts", "g_vector", "class_id"])
        keys = [",".join(str(v) for v in c.key) for c in self.classes]
        rows = sorted(
            ((lam, idx) for idx, c in enumerate(self.classes) for lam in c.members),
            key=lambda row: row[0].parts,
            reverse=True,
        )
        writer.writerows([str(lam), keys[idx], idx] for lam, idx in rows)
        return out.getvalue()


def _size_lower_bound(s: int, excess: int) -> int:
    # |P(s, s+r)| is the number of partitions of r into at most s parts, so
    # at least the number into at most min(s, 3) parts: 1, floor(r/2)+1 or
    # round((r+3)^2/12), whose fraction is never a half.
    if s == 1:
        return 1
    if s == 2:
        return excess // 2 + 1
    return ((excess + 3) ** 2 + 6) // 12


def classify(s: int, n: int) -> EquivalenceClasses:
    """Group P(s, n) by h-vector, keyed and sorted by the g-vector.

    Tables of more than ``MAX_CLASSIFY_SIZE`` partitions, or with s*n or
    s*|P(s, n)| above ``MAX_TABLE_CELLS``, are refused with
    :class:`BoundExceededError`; the first two checks run before any
    counting.  P(s, n) is counted once, and the enumeration must match it.
    """
    if s < 1 or n < s:
        raise InputError(f"need s >= 1 and n >= s, got s={s}, n={n}")
    if _size_lower_bound(s, n - s) > MAX_CLASSIFY_SIZE:
        raise BoundExceededError(
            f"P({s},{n}) has more than {MAX_CLASSIFY_SIZE} partitions, the limit"
        )
    if s * n > MAX_TABLE_CELLS:
        raise BoundExceededError(f"P({s},{n}) has s*n above the limit {MAX_TABLE_CELLS}")
    expected = count_partitions(s, n)
    if expected > MAX_CLASSIFY_SIZE:
        raise BoundExceededError(
            f"P({s},{n}) has {expected} partitions, above the limit {MAX_CLASSIFY_SIZE}"
        )
    if s * expected > MAX_TABLE_CELLS:
        raise BoundExceededError(
            f"P({s},{n}) holds {s * expected} parts, above the limit {MAX_TABLE_CELLS}"
        )
    groups: dict[tuple[int, ...], list[Partition]] = {}
    for lam in enumerate_partitions(s, n):
        groups.setdefault(_closure_h(lam.parts), []).append(lam)
    classes = sorted(
        (EquivalenceClass(key=_g_from_h(h), members=tuple(members))
         for h, members in groups.items()),
        key=lambda c: c.key,
    )
    result = EquivalenceClasses(s=s, n=n, classes=tuple(classes))
    if result.p != expected:
        raise ConsistencyError(
            f"classified {result.p} partitions of P({s},{n}), expected {expected}"
        )
    return result


def self_equivalent(s: int, n: int) -> list[Partition]:
    """Partitions alone in their class, in enumeration order."""
    singletons = [c.members[0] for c in classify(s, n).classes if c.size == 1]
    return sorted(singletons, key=lambda lam: lam.parts, reverse=True)
