"""gcd-symmetric invariants of a partition.

Taking gcd as the product makes the naturals a commutative structure whose
multiplication is idempotent (``gcd(a, a) == a``) and absorbs addition
(``gcd(a + b, a) == gcd(b, a)``).  Evaluating the classical elementary
symmetric polynomials over it gives, for a partition, the vector

    g_i = sum of gcd(chosen parts) over all i-element subsets of parts,

and its inclusion-exclusion transform, the h-vector: h_i counts the roots
of unity lying in exactly i of the cyclic groups of orders given by the
parts.

Both are derived from one place, the gcd-closure of the distinct parts (the
gcds of their non-empty subsets).  By Gauss's identity every d | v
contributes phi(d) to v, and d contributes to h_i where i is the number of
parts it divides; grouping each d under the closure element v = gcd of the
parts d divides gives, in increasing order of v,

    f(v) = v - sum of f(w) over closure elements w < v dividing v,

and f(v) is added to h_i for i = number of parts (with multiplicity)
divisible by v.  Then g_i = sum_j C(j, i) h_j.  No factorization is needed,
and the closure is never larger than the sets of subset gcds of each size.
The triangular divisor matrix of pairwise gcds ties g_{i+1} to the norm of
its i-th power, and the full gcd matrix carries the dimension data of the
fixed-matrix algebra.  All arithmetic is exact; no floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import BoundExceededError, ConsistencyError, InputError
from .partitions import Partition


@dataclass(frozen=True)
class GVector:
    """The sequence (g_1, ..., g_s); ``vec[i]`` is 1-based like g_i."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConsistencyError("empty g-vector")
        last = self.values[-1]
        for i, value in enumerate(self.values, start=1):
            if value < 1:
                raise ConsistencyError(f"g_{i} must be positive, got {value}")
            if value % last != 0:
                raise ConsistencyError(f"g_s = {last} does not divide g_{i} = {value}")

    @property
    def s(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= len(self.values):
            raise IndexError(f"g-vector index {i} outside 1..{len(self.values)}")
        return self.values[i - 1]


@dataclass(frozen=True)
class HVector:
    """The sequence (h_1, ..., h_s) of exact-membership counts."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConsistencyError("empty h-vector")
        for i, value in enumerate(self.values, start=1):
            if value < 0:
                raise ConsistencyError(f"h_{i} must be nonnegative, got {value}")

    @property
    def s(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= len(self.values):
            raise IndexError(f"h-vector index {i} outside 1..{len(self.values)}")
        return self.values[i - 1]


def _closure_h(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h_1..h_s from the gcd-closure of the parts (see the module docstring)."""
    multiplicity: dict[int, int] = {}
    for part in parts:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    closure: set[int] = set()
    for part in multiplicity:
        closure |= {math.gcd(part, v) for v in closure}
        closure.add(part)
    h = [0] * (len(parts) + 1)
    below: list[tuple[int, int]] = []
    counted = multiplicity.items()
    for v in sorted(closure):
        share = v - sum([f for w, f in below if not v % w])
        below.append((v, share))
        h[sum([m for part, m in counted if not part % v])] += share
    return tuple(h[1:])


def _g_from_h(h: tuple[int, ...]) -> tuple[int, ...]:
    """g_i = sum_j C(j, i) h_j, the inverse of :func:`h_vector`."""
    g = [0] * len(h)
    for j, h_j in enumerate(h, start=1):
        if h_j:
            term = j * h_j  # C(j, i) * h_j, walked up from i = 1
            for i in range(1, j + 1):
                g[i - 1] += term
                term = term * (j - i) // (i + 1)
    return tuple(g)


def g_vector(lam: Partition) -> GVector:
    """All g_i of a partition, from the h-vector of its gcd-closure.

    Never enumerates the 2^s subsets; the literal enumeration lives in
    :func:`partinv.oracles.brute_g` and must agree.
    """
    return GVector(_g_from_h(_closure_h(lam.parts)))


def h_vector(g: GVector) -> HVector:
    """Inclusion-exclusion transform h_i = sum_k (-1)^k C(i+k, i) g_{i+k}."""
    s = g.s
    values = []
    for i in range(1, s + 1):
        acc = 0
        for k in range(s - i + 1):
            term = math.comb(i + k, i) * g[i + k]
            acc += -term if k % 2 else term
        values.append(acc)
    return HVector(tuple(values))


@dataclass(frozen=True)
class DivisorMatrix:
    """Strictly upper triangular matrix of pairwise gcds of the parts."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def upper_entries(self) -> list[int]:
        """The entries above the diagonal, row by row (a multiset)."""
        return [self.entries[i][j] for i in range(self.order) for j in range(i + 1, self.order)]


@dataclass(frozen=True)
class GcdMatrix:
    """Symmetric matrix of pairwise gcds; the diagonal is the parts."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)


def divisor_matrix(lam: Partition) -> DivisorMatrix:
    parts = lam.parts
    s = lam.s
    return DivisorMatrix(
        tuple(
            tuple(math.gcd(parts[i], parts[j]) if j > i else 0 for j in range(s))
            for i in range(s)
        )
    )


def gcd_matrix(lam: Partition) -> GcdMatrix:
    parts = lam.parts
    return GcdMatrix(
        tuple(tuple(math.gcd(a, b) for b in parts) for a in parts)
    )


def power_norm(lam: Partition) -> tuple[int, ...]:
    """Norms of the powers D, D^2, ..., D^(s-1) of the triangular divisor matrix.

    An entry of D^i is a sum of monomials indexed by strict index chains
    j_0 < j_1 < ... < j_i; evaluating a monomial collapses repeated factors
    (the product is idempotent), leaving the gcd of the entries on the chain.
    One pass over the entries counts, for each end index and chain length,
    the chains by that gcd; the i-th norm sums gcd times count over chains
    of length i.  Deliberately not computed as g_{i+1}: that equality is a
    theorem, exercised by the test suite.
    """
    entries = divisor_matrix(lam).entries
    norms = [0] * (len(entries) - 1)
    # ending[k][t]: chains of t + 1 steps ending at index k, counted by gcd.
    ending: list[list[dict[int, int]]] = []
    for k in range(len(entries)):
        here: list[dict[int, int]] = [{} for _ in range(k)]
        for j in range(k):
            entry = entries[j][k]
            here[0][entry] = here[0].get(entry, 0) + 1
            for t, chains in enumerate(ending[j], start=1):
                longer = here[t]
                for value, count in chains.items():
                    joined = math.gcd(value, entry)
                    longer[joined] = longer.get(joined, 0) + count
        for t, chains in enumerate(here):
            norms[t] += sum([value * count for value, count in chains.items()])
        ending.append(here)
    return tuple(norms)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _WITNESSES
# (Sorenson and Webster 2015): Miller-Rabin over them is exact below it.
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41.

    Exact for every m below psi_13 = 3317044064679887385961981; larger m is
    refused with :class:`BoundExceededError` rather than answered by chance.
    """
    if m >= _WITNESS_BOUND:
        raise BoundExceededError(f"primality is decided only below {_WITNESS_BOUND}, got {m}")
    if m < 2 or any(m % p == 0 for p in _WITNESSES):
        return m in _WITNESSES
    odd, halvings = m - 1, 0
    while odd % 2 == 0:
        odd, halvings = odd // 2, halvings + 1
    # m is a strong probable prime to a base b iff b^odd = 1 or
    # b^(odd * 2^k) = -1 (mod m) for some 0 <= k < halvings.
    return not any(
        pow(b, odd, m) != 1 and all(pow(b, odd << k, m) != m - 1 for k in range(halvings))
        for b in _WITNESSES
    )


_TRIAL_BOUND = 10**6


def _prime_factors(m: int) -> set[int]:
    """The distinct prime factors of m >= 1.

    By trial division up to ``_TRIAL_BOUND``.  A cofactor left past it with
    no divisor up to there is the last factor when :func:`is_prime` accepts
    it; any other, one at or above psi_13 included, is refused with
    :class:`BoundExceededError`.
    """
    factors = set()
    p = 2
    while p * p <= m and p <= _TRIAL_BOUND:
        if m % p == 0:
            factors.add(p)
            while m % p == 0:
                m //= p
        p += 1
    if p * p <= m and (m >= _WITNESS_BOUND or not is_prime(m)):
        raise BoundExceededError(
            f"cannot factor {m}: it has no prime factor up to {_TRIAL_BOUND}"
            f" and is not a prime below {_WITNESS_BOUND}"
        )
    if m > 1:
        factors.add(m)
    return factors


def euler_phi(m: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if m < 1:
        raise InputError(f"totient needs a positive integer, got {m}")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def _fraction_free_det(rows: list[list[int]]) -> int:
    # Bareiss one-step elimination: every entry stays an exact minor of the
    # input, so the divisions are exact and no fractions appear.
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


@dataclass(frozen=True)
class DetBounds:
    """Exact determinant of the gcd matrix with the totient/product bounds.

    The bounds (and positivity) are only asserted when the parts are pairwise
    distinct; ``distinct`` records that.  For a single part the upper-bound
    formula degenerates (s!/2 is not an integer), so the part itself is
    reported as the upper bound.
    """

    determinant: int
    lower: int
    upper: int
    distinct: bool


def gcd_matrix_det_and_bounds(lam: Partition) -> DetBounds:
    """Determinant of the gcd matrix by fraction-free elimination, plus bounds."""
    matrix = [list(row) for row in gcd_matrix(lam).entries]
    det = _fraction_free_det(matrix) if lam.s > 1 else matrix[0][0]
    lower = math.prod(euler_phi(p) ** m for p, m in Counter(lam.parts).items())
    if lam.s == 1:
        upper = lam.parts[0]
    else:
        upper = math.prod(lam.parts) - math.factorial(lam.s) // 2
    distinct = len(set(lam.parts)) == lam.s
    return DetBounds(determinant=det, lower=lower, upper=upper, distinct=distinct)
