"""Equivalence classes of P(s, n) under polynomial equivalence.

Within a fixed (s, n) two partitions are equivalent exactly when their
g-vectors agree, so the raw g-vector serves as the class key (g_1 = n makes
the normalization by g_s injective here, and keys stay unsigned).  The
g-vector is a bijective transform of the h-vector, so grouping is an
order-independent reduction keyed by the h-vector of each partition's
gcd-closure; each class's h is mapped to its g-key once, and a final
deterministic sort by g-key makes any evaluation order produce identical
output.  The h-vector is derived from gcd-closure shares that depend on
the distinct parts alone, and the walk keeps them while it may meet those
distinct parts again (see :func:`_walk`).
Every table command is one guarded walk of P(s, n) that keeps only
what it reports: ``classify`` each partition's parts and class id, in walk
order, and one g-key per class; ``self_equivalent`` each class's first parts
and its size; and ``count_classes`` the class sizes alone.  A classification
is written straight from those part tuples, a CSV row, a JSON class or a
text line at a time, in the one format asked for; :func:`summary_text` and
:func:`summary_json` lay out the p, i and e numbers that the CLI prints.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property

from ._record import Record
from .errors import BoundExceededError, ConsistencyError, InputError
from .gcd_symm import _closure_h, _closure_shares, _g_from_h
from .partitions import _descending, count_partitions

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

MAX_CLASSIFY_SIZE = 200_000
# Tables are also refused where s*n is above this, which bounds the counting
# work (under s*n steps) and each class key (s integers of about s + log2(n)
# bits), and where s*|P(s,n)|, the parts a table holds, is above it; P(27,77)
# holds 5 392 386.
MAX_TABLE_CELLS = 6_000_000


class EquivalenceClasses(Record):
    """The full classification of P(s, n).

    ``keys`` are the class keys in ascending lexicographic order.  ``parts``
    lists P(s, n) in enumeration order (descending lexicographic),
    ``class_ids`` gives the index in ``keys`` of each one's class, and
    :meth:`member_parts` groups them.  ``to_csv``, ``to_json`` and
    ``to_text`` write the table to a stream, a row or a class at a time.
    """

    s: int
    n: int
    keys: tuple[tuple[int, ...], ...]
    parts: tuple[tuple[int, ...], ...]
    class_ids: tuple[int, ...]

    def member_parts(self) -> list[list[tuple[int, ...]]]:
        """Each class's member part tuples, in enumeration order, by class id."""
        members: list[list[tuple[int, ...]]] = [[] for _ in self.keys]
        for parts, idx in zip(self.parts, self.class_ids):
            members[idx].append(parts)
        return members

    @property
    def p(self) -> int:
        """Number of partitions classified."""
        return len(self.parts)

    @property
    def i(self) -> int:
        """Number of classes."""
        return len(self.keys)

    @cached_property
    def e(self) -> dict[int, int]:
        """Histogram: class size -> number of classes of that size."""
        return _histogram(Counter(self.class_ids).values())

    def to_json(self, out: TextIO) -> None:
        """Write ``json.dumps(document, indent=2)`` and a newline to ``out``,
        where the document is ``{s, n, classes: [{key, members}], summary:
        {p, i, e}}``, one class at a time, so that no more than one class's
        document is held at once.

        A class's key and each member fill one %-template per table, laid
        out as ``json.dumps`` lays out a list of s integers at indent=2;
        only the small summary goes through ``json.dumps``, whose indented
        encoder runs in pure Python.
        """
        # At indent=2 a class sits two levels deep, its key and members
        # three, and their integers four and five.
        key = ",\n        ".join(["%d"] * self.s)
        head = '{\n      "key": [\n        ' + key + '\n      ],\n      "members": [\n'
        member = "        [\n          " + ",\n          ".join(["%d"] * self.s) + "\n        ]"
        out.write('{\n  "s": %d,\n  "n": %d,\n  "classes": [\n' % (self.s, self.n))
        separator = "    "
        for values, members in zip(self.keys, self.member_parts()):
            rows = ",\n".join([member % parts for parts in members])
            out.write(separator + head % values + rows + "\n      ]\n    }")
            separator = ",\n    "
        summary = json.dumps(summary_json(self.p, self.i, self.e), indent=2).replace("\n", "\n  ")
        out.write('\n  ],\n  "summary": ' + summary + "\n}\n")

    def to_csv(self, out: TextIO) -> None:
        """Write one row per partition to ``out``: parts, g-vector, 0-based
        class id, under a header, as the ``csv`` module writes them.

        Rows follow the enumeration order (descending lexicographic), in
        which the walk recorded them.  Each row fills one %-template; its
        fields hold only digits and commas, so, as ``csv`` does, the parts
        and the g-vector are quoted exactly when they hold a comma (s > 1).
        """
        digits = ",".join(["%d"] * self.s)
        quote = '"' if self.s > 1 else ""
        row = f"{quote}{digits}{quote},%s,%d\n"
        keys = [quote + digits % key + quote for key in self.keys]
        out.write("parts,g_vector,class_id\n")
        out.writelines(
            row % (parts + (keys[idx], idx)) for parts, idx in zip(self.parts, self.class_ids)
        )

    def to_text(self, out: TextIO) -> None:
        """Write the :func:`summary_text` lines, then one line per class to
        ``out``: its id, g-key, size and members, in class order."""
        out.write(summary_text(self.s, self.n, self.p, self.i, self.e) + "\n")
        digits = ",".join(["%d"] * self.s)
        for idx, (key, members) in enumerate(zip(self.keys, self.member_parts())):
            row = " | ".join([digits % parts for parts in members])
            out.write(f"class {idx} [g = {digits % key}] size {len(members)}: {row}\n")


def summary_text(s: int, n: int, p: int, i: int, e: dict[int, int]) -> str:
    """The p, i and e numbers of P(s, n) as three lines, with no final newline."""
    histogram = " ".join(f"{size}:{count}" for size, count in e.items())
    return f"p({s},{n}) = {p}\ni({s},{n}) = {i}\ne({s},{n}): {histogram}"


def summary_json(p: int, i: int, e: dict[int, int]) -> dict:
    """The p, i and e numbers as JSON fields; JSON keys are strings."""
    return {"p": p, "i": i, "e": {str(size): count for size, count in e.items()}}


def _histogram(sizes: Iterable[int]) -> dict[int, int]:
    """Class size -> number of classes of that size, by size."""
    return dict(sorted(Counter(sizes).items()))


def _size_lower_bound(s: int, excess: int) -> int:
    # |P(s, s+r)| is the number of partitions of r into at most s parts, so
    # at least the number into at most min(s, 3) parts: 1, floor(r/2)+1 or
    # round((r+3)^2/12), whose fraction is never a half.
    if s == 1:
        return 1
    if s == 2:
        return excess // 2 + 1
    return ((excess + 3) ** 2 + 6) // 12


def _walk(s: int, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """P(s, n) in enumeration order: each part tuple with its h-vector.

    Every table command goes through here, so all of them are refused as
    :func:`classify` documents, and a walk that does not yield exactly the
    counted partitions ends in :class:`ConsistencyError`.
    """
    if type(s) is not int or type(n) is not int or s < 1 or n < s:
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
    classified = 0
    # The shares of each tuple of distinct parts, for the current first part
    # only: partitions with the same distinct parts share their first part,
    # met in one stretch.  A partition with fewer than two parts beyond its
    # distinct ones is not looked up: s and n force its multiplicities, so
    # no other partition of P(s, n) has its distinct parts.
    first, kept = 0, {}

    def shares_of(distinct: tuple[int, ...]) -> list[tuple[int, int]]:
        if len(distinct) > s - 2:
            return _closure_shares(distinct)
        if distinct not in kept:
            kept[distinct] = _closure_shares(distinct)
        return kept[distinct]

    for parts in _descending(n, s):
        classified += 1
        if parts[0] != first:
            first = parts[0]
            kept.clear()
        yield parts, _closure_h(parts, shares_of)
    if classified != expected:
        raise ConsistencyError(
            f"classified {classified} partitions of P({s},{n}), expected {expected}"
        )


def classify(s: int, n: int) -> EquivalenceClasses:
    """Group P(s, n) by h-vector, keyed and sorted by the g-vector.

    Tables of more than ``MAX_CLASSIFY_SIZE`` partitions, or with s*n or
    s*|P(s, n)| above ``MAX_TABLE_CELLS``, are refused with
    :class:`BoundExceededError`; the first two checks run before any
    counting.  P(s, n) is counted once, and the enumeration must match it.
    Each class key is checked as every g-vector is (see
    :func:`partinv.gcd_symm._g_from_h`).
    """
    found: dict[tuple[int, ...], int] = {}  # h -> index, in order of first member
    walked: list[tuple[int, ...]] = []
    found_ids: list[int] = []
    for parts, h in _walk(s, n):
        walked.append(parts)
        found_ids.append(found.setdefault(h, len(found)))
    found_keys = list(map(_g_from_h, found))
    keys = sorted(found_keys)
    class_id = {key: idx for idx, key in enumerate(keys)}
    renumbered = [class_id[key] for key in found_keys]
    return EquivalenceClasses(
        s=s,
        n=n,
        keys=tuple(keys),
        parts=tuple(walked),
        class_ids=tuple(map(renumbered.__getitem__, found_ids)),
    )


def count_classes(s: int, n: int) -> tuple[int, int, dict[int, int]]:
    """The p, i and e numbers of P(s, n), as :class:`EquivalenceClasses`
    reports them, read from the class sizes alone: no member or key is built.

    Refused as :func:`classify` is.
    """
    sizes = Counter(h for _, h in _walk(s, n)).values()
    return sum(sizes), len(sizes), _histogram(sizes)


def self_equivalent(s: int, n: int) -> list[tuple[int, ...]]:
    """The parts of each partition alone in its class, in enumeration order.

    Refused as :func:`classify` is.
    """
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    sizes: Counter[tuple[int, ...]] = Counter()
    for parts, h in _walk(s, n):
        first.setdefault(h, parts)
        sizes[h] += 1
    # Classes are met in the order of their first members, so the singletons
    # come in enumeration order.
    return [first[h] for h, size in sizes.items() if size == 1]
