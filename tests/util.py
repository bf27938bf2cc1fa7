"""Small helpers shared by the test modules, kept independent of the
library internals wherever they serve as oracles."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import sys
from collections import Counter
from typing import Callable, Iterator

from partinv import (
    Partition,
    Permutation,
    classify,
    count_classes,
    enumerate_partitions,
    gcd_matrix,
    self_equivalent,
)


def all_partitions(n_max: int) -> Iterator[Partition]:
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            yield from enumerate_partitions(s, n)


def exact_partitions(n: int, s: int) -> list[tuple[int, ...]]:
    """Independent reference: the partitions of n into exactly s parts, by
    plain recursion on the next part, in no promised order."""
    found: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def place(left: int, slots: int, largest: int) -> None:
        if slots == 0:
            if left == 0:
                found.append(tuple(prefix))
            return
        if left < slots or left > slots * largest:
            return
        for part in range(1, min(left, largest) + 1):
            prefix.append(part)
            place(left - part, slots - 1, part)
            prefix.pop()

    place(n, s, n)
    return found


def reference_table_output(command: str, s: int, n: int, fmt: str) -> str:
    """What ``partinv <command> s n --format fmt`` printed when each output
    was built whole: CSV through the ``csv`` module, JSON as one
    ``json.dumps`` of the whole payload, text as a list of lines, each
    table from the part tuples that the library call returns."""

    def summary(p: int, i: int, e: dict[int, int]) -> list[str]:
        histogram = " ".join(f"{size}:{count}" for size, count in e.items())
        return [f"p({s},{n}) = {p}", f"i({s},{n}) = {i}", f"e({s},{n}): {histogram}"]

    if command == "classify":
        grouped = classify(s, n)
        if fmt == "csv":
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["parts", "g_vector", "class_id"])
            keys = [",".join(map(str, key)) for key in grouped.keys]
            writer.writerows(
                [",".join(map(str, parts)), keys[idx], idx]
                for parts, idx in zip(grouped.parts, grouped.class_ids)
            )
            return out.getvalue()
        classes = list(zip(grouped.keys, grouped.member_parts()))
        payload = {
            "s": s,
            "n": n,
            "classes": [
                {"key": list(key), "members": [list(m) for m in members]}
                for key, members in classes
            ],
            "summary": {
                "p": grouped.p,
                "i": grouped.i,
                "e": {str(k): v for k, v in grouped.e.items()},
            },
        }
        lines = summary(grouped.p, grouped.i, grouped.e)
        for idx, (key, members) in enumerate(classes):
            row = " | ".join(",".join(map(str, m)) for m in members)
            lines.append(f"class {idx} [g = {','.join(map(str, key))}] size {len(members)}: {row}")
    elif command == "count":
        p, i, e = count_classes(s, n)
        payload = {"s": s, "n": n, "p": p, "i": i, "e": {str(k): v for k, v in e.items()}}
        lines = summary(p, i, e)
    else:
        singles = self_equivalent(s, n)
        payload = {"s": s, "n": n, "self_equivalent": [list(parts) for parts in singles]}
        lines = [
            f"self-equivalent in P({s},{n}): {len(singles)}",
            *(",".join(map(str, parts)) for parts in singles),
        ]
    text = json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines)
    return text + "\n"


def subset_gcd_sum(parts: tuple[int, ...], size: int) -> int:
    """Independent re-derivation: gcd summed over all index subsets."""
    total = 0
    for combo in itertools.combinations(range(len(parts)), size):
        g = 0
        for index in combo:
            g = math.gcd(g, parts[index])
        total += g
    return total


def divisor_count_h(n: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """An independent h-vector for parts up to n: h_i sums phi(d) over the d
    that divide exactly i parts (Gauss's identity, with d running over every
    divisor of every part).  Divisor lists and totients are sieved up to n
    once; there is no gcd-closure and no memo of earlier calls."""
    phi = list(range(n + 1))
    divisors: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        if d > 1 and phi[d] == d:  # no smaller prime has reduced it: d is prime
            for m in range(d, n + 1, d):
                phi[m] -= phi[m] // d
        for m in range(d, n + 1, d):
            divisors[m].append(d)

    def h(parts: tuple[int, ...]) -> tuple[int, ...]:
        inside: Counter[int] = Counter()
        for part in parts:
            inside.update(divisors[part])
        counts = [0] * (len(parts) + 1)
        for d, i in inside.items():
            counts[i] += phi[d]
        return tuple(counts[1:])

    return h


def fraction_free_det(rows: list[list[int]]) -> int:
    """Reference determinant: general Bareiss elimination with row swaps.

    Every entry stays an exact minor of the input, so the divisions are
    exact; a zero pivot is swapped for a row below it, or the determinant
    is 0.  Assumes nothing about the matrix.
    """
    size = len(rows)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, size):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for r in range(k + 1, size):
            factor = rows[r][k]
            row = rows[r]
            lead = rows[k]
            for c in range(k + 1, size):
                row[c] = (pivot * row[c] - factor * lead[c]) // prev
            row[k] = 0
        prev = pivot
    return sign * rows[size - 1][size - 1]


# Symmetric matrices, each with the 1-based index and the value of its first
# leading minor that is not positive.  The elimination of the gcd matrix takes
# three pivots per pass and reads the leading minor of one or two rows left at
# the end without a pass, so the cases fail at each place: the first, second
# and third pivot of the first pass, the third pivot of a later pass, and the
# only or the second of the rows left after a pass, the only one once with a
# last leading minor of 2^600.  The ids of the first six date from passes of
# two pivots each.
INDEFINITE = {
    "second-pivot": ([[1, 2], [2, 1]], 2, -3),
    "first-pivot": ([[0, 1], [1, 0]], 1, 0),
    "odd-last-pivot-of-three": ([[2, 1, 1], [1, 1, 1], [1, 1, -1]], 3, -2),
    # the gcd matrix of 1, 2, 3, 4 with a_44 = 2
    "second-pivot-of-a-later-pair": (
        [[1, 1, 1, 1], [1, 2, 1, 2], [1, 1, 3, 1], [1, 2, 1, 2]], 4, 0
    ),
    # the gcd matrix of 1, 2, 3, 4, 6 with a_55 = 1
    "odd-last-pivot": (
        [[1, 1, 1, 1, 1], [1, 2, 1, 2, 2], [1, 1, 3, 1, 3], [1, 2, 1, 4, 2], [1, 2, 3, 2, 1]],
        5,
        -12,
    ),
    "after-the-switch": (
        [[2**300, 0, 0, 0], [0, 2**300, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]], 4, -3 * 2**600
    ),
    # the gcd matrix of 1..6 with a_66 = 4: leading minors 1, 1, 2, 4, 16, 0
    "third-pivot-of-a-later-pass": (
        [
            [1, 1, 1, 1, 1, 1],
            [1, 2, 1, 2, 1, 2],
            [1, 1, 3, 1, 1, 3],
            [1, 2, 1, 4, 1, 2],
            [1, 1, 1, 1, 5, 1],
            [1, 2, 3, 2, 1, 4],
        ],
        6,
        0,
    ),
}


def upper_triangle(rows: list[list[int]]) -> list[list[int]]:
    """Row r of a symmetric matrix from the diagonal on, as
    :func:`partinv.gcd_symm._positive_definite_det` takes it."""
    return [list(row[r:]) for r, row in enumerate(rows)]


@contextlib.contextmanager
def digit_limit(limit):
    """Run the block under ``sys.set_int_max_str_digits(limit)``; 640 is the
    least limit Python accepts, and 0 means no limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:  # a raise, not an assert, which python -O would strip here
        raise ValueError(f"cannot multiply {n} x {len(a[0])} by {k} x {m}")
    return [[sum(a[i][p] * b[p][j] for p in range(k)) for j in range(m)] for i in range(n)]


def mat_eq(a, b) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


def permutation(n: int, *cycles: tuple[int, ...]) -> Permutation:
    """The permutation of 1..n with the given disjoint cycles; none gives
    the identity."""
    images = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Left to right, like the rows of permutation matrices: i -> tau(sigma(i))."""
    return Permutation(tuple(tau(sigma(i)) for i in range(1, sigma.n + 1)))


def inverse(sigma: Permutation) -> Permutation:
    images = [0] * sigma.n
    for i, j in enumerate(sigma.images, start=1):
        images[j - 1] = i
    return Permutation(tuple(images))


def cycle_type(sigma: Permutation) -> Partition:
    """Cycle lengths in weakly decreasing order; fixed points count as 1."""
    seen = set()
    lengths = []
    for start in range(1, sigma.n + 1):
        point, length = start, 0
        while point not in seen:
            seen.add(point)
            point, length = sigma(point), length + 1
        if length:
            lengths.append(length)
    return Partition.of(*lengths)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Ferrers diagram (column lengths become parts)."""
    return Partition(
        tuple(sum(1 for p in lam.parts if p >= i) for i in range(1, lam.parts[0] + 1))
    )


def prime_quotients(s: int) -> Partition:
    """The parts P/p_1, ..., P/p_s, where p_i are the first s primes and P is
    their product.  Their gcd-closure has 2^s - 1 elements, one per
    non-empty set of primes left out."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < s:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    product = math.prod(primes)
    return Partition.of(*(product // p for p in primes))


def upper_gcds(lam: Partition) -> list[int]:
    """The entries above the gcd matrix's diagonal, sorted."""
    rows = gcd_matrix(lam)
    return sorted(v for i, row in enumerate(rows) for v in row[i + 1 :])


def _factorization(m: int) -> dict[int, int]:
    """The prime factorization of m >= 1 by trial division, prime to exponent."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def elimination_rows(parts) -> int:
    """Rows of the gcd-matrix elimination of distinct parts: one per part
    each of whose primes divides another part, and one per distinct shared
    part among the others, the shared part of a being the product of the
    prime powers of a whose prime divides another part."""
    parts = set(parts)
    own, shared = 0, set()
    for a in parts:
        others = [b for b in parts if b != a]
        rho = math.prod(
            p**k for p, k in _factorization(a).items() if any(b % p == 0 for b in others)
        )
        if rho == a:
            own += 1
        else:
            shared.add(rho)
    return own + len(shared)
