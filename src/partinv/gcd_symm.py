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
The triangular divisor matrix of pairwise gcds (the strict upper triangle
of the gcd matrix) ties g_{i+1} to the norm of its i-th power, and the full
gcd matrix carries the dimension data of the fixed-matrix algebra.  All
arithmetic is exact; no floating point.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

from ._record import Record
from .errors import BoundExceededError, ConsistencyError, InputError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .partitions import Partition


class _Vector(Record):
    """A sequence (v_1, ..., v_s); ``vec[i]`` is 1-based like v_i."""

    values: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> int:
        if not 1 <= i <= len(self.values):
            raise IndexError(f"{type(self).__name__} index {i} outside 1..{len(self.values)}")
        return self.values[i - 1]


class GVector(_Vector):
    """The sequence (g_1, ..., g_s) of subset gcd sums."""

    def __init__(self, values: tuple[int, ...]) -> None:
        if not values:
            raise ConsistencyError("empty g-vector")
        last = values[-1]
        for i, value in enumerate(values, start=1):
            if value < 1:
                raise ConsistencyError(f"g_{i} must be positive, got {value}")
            if value % last != 0:
                raise ConsistencyError(f"g_s = {last} does not divide g_{i} = {value}")
        self.__dict__["values"] = values


class HVector(_Vector):
    """The sequence (h_1, ..., h_s) of exact-membership counts."""

    def __init__(self, values: tuple[int, ...]) -> None:
        if not values:
            raise ConsistencyError("empty h-vector")
        for i, value in enumerate(values, start=1):
            if value < 0:
                raise ConsistencyError(f"h_{i} must be nonnegative, got {value}")
        self.__dict__["values"] = values


# The closure of s parts can have 2^s - 1 elements and the shares cost its
# size squared, so a larger closure is refused while it is being built.
_CLOSURE_BUDGET = 4096


def _closure_h(parts: tuple[int, ...]) -> tuple[int, ...]:
    """h_1..h_s from the gcd-closure of the weakly decreasing parts (see the
    module docstring)."""
    s = len(parts)
    runs: list[tuple[int, int]] = []  # (part, multiplicity), parts decreasing
    start = 0
    while start < s:
        part, end = parts[start], start + 1
        while end < s and parts[end] == part:
            end += 1
        runs.append((part, end - start))
        start = end
    closure: set[int] = set()
    for part, _ in runs:
        closure |= {math.gcd(part, v) for v in closure}
        closure.add(part)
        if len(closure) > _CLOSURE_BUDGET:
            raise BoundExceededError(f"the gcd-closure has more than {_CLOSURE_BUDGET} elements")
    h = [0] * (s + 1)
    below: list[tuple[int, int]] = []
    for v in sorted(closure):
        share = v
        for w, f in below:
            if not v % w:
                share -= f
        below.append((v, share))
        divisible = 0
        for part, m in runs:
            if part < v:
                break  # the runs decrease, and no part below v is divisible by v
            if not part % v:
                divisible += m
        h[divisible] += share
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
    """All g_i of a partition: its ``g``, from the h-vector of its gcd-closure.

    Never enumerates the 2^s subsets; the oracles' sub-multiset walk
    :func:`partinv.oracles._multiset_g` must agree, and the tests pin it to
    the literal definition :func:`partinv.oracles.brute_g`.
    """
    return lam.g


def h_vector(g: GVector) -> HVector:
    """Inclusion-exclusion transform h_i = sum_k (-1)^k C(i+k, i) g_{i+k}."""
    values = g.values
    s = len(values)
    h = []
    for i in range(1, s + 1):
        acc, binomial = 0, 1  # C(i + k, i), walked up from k = 0
        for k, g_ik in enumerate(values[i - 1 :]):
            term = binomial * g_ik
            acc += -term if k % 2 else term
            binomial = binomial * (i + k + 1) // (k + 1)
        h.append(acc)
    return HVector(tuple(h))


Rows = tuple[tuple[int, ...], ...]


def gcd_matrix(lam: Partition) -> Rows:
    """Symmetric matrix of pairwise gcds, by rows; the diagonal is the parts."""
    parts = lam.parts
    return tuple(tuple(math.gcd(a, b) for b in parts) for a in parts)


def power_norm(lam: Partition) -> tuple[int, ...]:
    """Norms of the powers D, D^2, ..., D^(s-1) of the triangular divisor matrix.

    D is the strict upper triangle of :func:`gcd_matrix`.

    An entry of D^i is a sum of monomials indexed by strict index chains
    j_0 < j_1 < ... < j_i; evaluating a monomial collapses repeated factors
    (the product is idempotent), leaving the gcd of the entries on the chain.
    One pass over the end indices k keeps, for each chain length, the
    chains that end below k counted by that gcd, and extends them by the
    k-th part; the i-th norm then sums gcd times count over the chains of
    length i.  Deliberately not computed as g_{i+1}: that equality is a
    theorem, exercised by the test suite.
    """
    entries = gcd_matrix(lam)
    # below[t]: chains of t + 1 steps ending at an index below k, counted by
    # gcd.  That gcd divides the part the chain ends at, so a step on to k
    # joins it with the k-th part (the diagonal entry) whichever index the
    # chain ended at.  Longer chains are extended first, so each step reads
    # chains that end below k only.
    below: list[dict[int, int]] = [{} for _ in range(len(entries) - 1)]
    for k in range(1, len(entries)):
        part = entries[k][k]
        for t in range(k - 1, 0, -1):
            longer = below[t]
            for value, count in below[t - 1].items():
                joined = math.gcd(value, part)
                longer[joined] = longer.get(joined, 0) + count
        first = below[0]
        for j in range(k):
            entry = entries[j][k]
            first[entry] = first.get(entry, 0) + 1
    return tuple(sum([value * count for value, count in chains.items()]) for chains in below)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _WITNESSES
# (Sorenson and Webster 2015): Miller-Rabin over them is exact below it.
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41.

    Exact for every m below psi_13 = 3317044064679887385961981; larger m is
    refused with :class:`BoundExceededError` rather than answered by chance,
    and anything but an int with :class:`InputError`.
    """
    if type(m) is not int:
        raise InputError(f"primality needs an integer, got {m!r}")
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

    By trial division up to ``_TRIAL_BOUND``.  A cofactor above that bound
    and below psi_13 that :func:`is_prime` accepts is the last factor; it is
    tested before the division starts and after each factor is divided out,
    so a large prime is never trial-divided.  Any other cofactor left with
    no divisor up to the bound, one at or above psi_13 included, is refused
    with :class:`BoundExceededError`.
    """
    factors = set()
    p = 2
    last = _TRIAL_BOUND < m < _WITNESS_BOUND and is_prime(m)
    while not last and p * p <= m and p <= _TRIAL_BOUND:
        if m % p == 0:
            factors.add(p)
            while m % p == 0:
                m //= p
            last = _TRIAL_BOUND < m < _WITNESS_BOUND and is_prime(m)
        p += 1
    if not last and p * p <= m:
        raise BoundExceededError(
            f"cannot factor {m}: it has no prime factor up to {_TRIAL_BOUND}"
            f" and is not a prime below {_WITNESS_BOUND}"
        )
    if m > 1:
        factors.add(m)
    return factors


def euler_phi(m: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if type(m) is not int or m < 1:
        raise InputError(f"totient needs a positive integer, got {m!r}")
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


# Two pivots per pass update half as many entries as one, but multiply
# entries about twice as long.  Once the last leading minor reaches this
# many bits the longer products cost more than the saved updates (pairing
# to the end took 1.07x the one-pivot time on 150 random parts below 10^6
# and 1.17x on 120 below 10^12), so the rest takes one pivot per pass.
_PAIRED_PIVOT_BITS = 512


def _positive_definite_det(upper: list[list[int]]) -> int:
    # Bareiss with no row exchange over the upper triangle (upper[r] is row r
    # from the diagonal on).  Entries are minors, so divisions are exact and
    # stay symmetric; pivots are leading minors, positive on definite input.
    # A pass with pivots p = a_kk, r = a_k+1,k+1 and q = a_k,k+1 takes each
    # a_ij below them to (D a_ij + alpha_i a_k+1,j + beta_i a_kj) / prev^2
    # (Sylvester's identity), where D = pr - q^2, alpha_i = q a_ki - p a_k+1,i
    # and beta_i = q a_k+1,i - r a_ki; the leading minor after p is D / prev.
    size = len(upper)
    prev, k = 1, 0
    while k < size:
        lead = upper[k]
        pivot = lead[0]
        if pivot <= 0:
            raise ConsistencyError(f"gcd matrix pivot {k + 1} is {pivot}, expected positive")
        if k + 1 < size and prev.bit_length() < _PAIRED_PIVOT_BITS:
            q, after = lead[1], upper[k + 1]
            r = after[0]
            cross = pivot * r - q * q
            minor = cross // prev
            if minor <= 0:
                raise ConsistencyError(f"gcd matrix pivot {k + 2} is {minor}, expected positive")
            square = prev * prev
            for i in range(2, size - k):
                a, b = lead[i], after[i - 1]
                alpha, beta = q * a - pivot * b, q * b - r * a
                rows = zip(upper[k + i], after[i - 1 :], lead[i:])
                upper[k + i] = [(cross * z + alpha * y + beta * x) // square for z, y, x in rows]
            prev, k = minor, k + 2
        else:
            for j, factor in enumerate(lead[1:], start=1):
                pairs = zip(upper[k + j], lead[j:])
                upper[k + j] = [(pivot * a - factor * b) // prev for a, b in pairs]
            prev, k = pivot, k + 1
    return prev


class DetBounds(Record):
    """Exact determinant of the gcd matrix with the totient/product bounds.

    The bounds (and positivity) are only asserted when the parts are pairwise
    distinct; ``distinct`` records that.  Distinct parts make the matrix
    positive definite (Smith 1875: G = E diag(phi) E^T, where the 0/1 matrix
    E of parts against their divisors has independent rows), so no leading
    minor is zero and the elimination needs no pivot search.  The upper
    bound subtracts floor(s!/2), which for a single part is 0, so the part
    itself is the bound.
    """

    determinant: int
    lower: int
    upper: int
    distinct: bool


def gcd_matrix_det_and_bounds(lam: Partition) -> DetBounds:
    """Determinant of the gcd matrix, plus bounds.

    Repeated parts give two equal rows, so 0 with no elimination.  Distinct
    parts are eliminated in increasing order, which keeps the leading minors
    small, with no pivot search: the matrix is positive definite.  Distinct
    parts whose upper bound Python cannot write in decimal (it has more
    digits than ``sys.get_int_max_str_digits()``, where 0 means no limit)
    are refused with :class:`BoundExceededError` after the factoring and
    before the elimination, which on so many small parts takes minutes.
    """
    # Factoring for the lower bound comes first: a part that cannot be
    # factored is refused before the elimination is paid for.
    counts = Counter(lam.parts)
    lower = math.prod(euler_phi(p) ** m for p, m in counts.items())
    distinct = len(counts) == lam.s
    upper = math.prod(lam.parts) - math.factorial(lam.s) // 2
    det = 0
    if distinct:
        limit = sys.get_int_max_str_digits()
        # 10^L > 2^(3L), so a bound of at most 3L bits skips the big power.
        if limit and upper.bit_length() > 3 * limit and upper >= 10**limit:
            raise BoundExceededError(f"a result has over {limit} digits")
        parts = sorted(counts)
        gcds = [[math.gcd(a, b) for b in parts[i:]] for i, a in enumerate(parts)]
        det = _positive_definite_det(gcds)
    return DetBounds(determinant=det, lower=lower, upper=upper, distinct=distinct)
