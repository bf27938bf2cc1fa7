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

from ._record import Record
from .errors import BoundExceededError, ConsistencyError, InputError, refuse_unprintable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .partitions import Partition


# The closure of s parts can have 2^s - 1 elements and the shares cost its
# size squared, so a larger closure is refused while it is being built.
_CLOSURE_BUDGET = 4096


def _closure_shares(distinct: tuple[int, ...]) -> list[tuple[int, int]]:
    """The (closure element v, share f(v)) pairs of the gcd-closure of the
    distinct parts, in increasing order of v (see the module docstring)."""
    closure: set[int] = set()
    for part in distinct:
        closure |= {math.gcd(part, v) for v in closure}
        closure.add(part)
        if len(closure) > _CLOSURE_BUDGET:
            raise BoundExceededError(f"the gcd-closure has more than {_CLOSURE_BUDGET} elements")
    shares: list[tuple[int, int]] = []
    for v in sorted(closure):
        share = v
        for w, f in shares:
            if not v % w:
                share -= f
        shares.append((v, share))
    return shares


def _closure_h(parts: tuple[int, ...], shares_of: Callable = _closure_shares) -> tuple[int, ...]:
    """h_1..h_s of the weakly decreasing parts: h_i sums the shares f(v), from
    ``shares_of`` of the distinct parts, of the v dividing exactly i parts."""
    s = len(parts)
    runs: list[tuple[int, int]] = []  # (part, multiplicity), parts decreasing
    start = 0
    while start < s:
        part, end = parts[start], start + 1
        while end < s and parts[end] == part:
            end += 1
        runs.append((part, end - start))
        start = end
    h = [0] * (s + 1)
    for v, share in shares_of(tuple([part for part, _ in runs])):
        divisible = 0
        for part, m in runs:
            if part < v:
                break  # the runs decrease, and no part below v is divisible by v
            if not part % v:
                divisible += m
        h[divisible] += share
    return tuple(h[1:])


def _g_from_h(h: tuple[int, ...]) -> tuple[int, ...]:
    """g_i = sum_j C(j, i) h_j, the inverse of :func:`h_vector`.

    The one derivation of a g-vector, so the one place it is checked: a g
    with an entry below 1, or one that g_s does not divide, is refused with
    :class:`ConsistencyError`.  Every entry is tested positive before g_s
    divides any of them.
    """
    g = [0] * len(h)
    for j, h_j in enumerate(h, start=1):
        if h_j:
            term = j * h_j  # C(j, i) * h_j, walked up from i = 1
            for i in range(1, j + 1):
                g[i - 1] += term
                term = term * (j - i) // (i + 1)
    for i, value in enumerate(g, start=1):
        if value < 1:
            raise ConsistencyError(f"g_{i} must be positive, got {value}")
    for i, value in enumerate(g, start=1):
        if value % g[-1]:
            raise ConsistencyError(f"g_s = {g[-1]} does not divide g_{i} = {value}")
    return tuple(g)


def g_vector(lam: Partition) -> tuple[int, ...]:
    """All g_i of a partition: its ``g``, from the h-vector of its gcd-closure.

    Never enumerates the 2^s subsets; the oracles' sub-multiset walk
    :func:`partinv.oracles._multiset_g` must agree, and the tests pin it to
    the literal definition :func:`partinv.oracles.brute_g`.
    """
    return lam.g


def h_vector(g: tuple[int, ...]) -> tuple[int, ...]:
    """Inclusion-exclusion transform h_i = sum_k (-1)^k C(i+k, i) g_{i+k}."""
    h = []
    for i in range(1, len(g) + 1):
        acc, binomial = 0, 1  # C(i + k, i), walked up from k = 0
        for k, g_ik in enumerate(g[i - 1 :]):
            term = binomial * g_ik
            acc += -term if k % 2 else term
            binomial = binomial * (i + k + 1) // (k + 1)
        h.append(acc)
    return tuple(h)


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
    theorem, exercised by the test suite.  Each entry of D is taken from the
    parts as it is needed; no matrix is built.
    """
    parts = lam.parts
    # below[t]: chains of t + 1 steps ending at an index below k, counted by
    # gcd.  That gcd divides the part the chain ends at, so a step on to k
    # joins it with the k-th part (the diagonal entry) whichever index the
    # chain ended at.  Longer chains are extended first, so each step reads
    # chains that end below k only.
    below: list[dict[int, int]] = [{} for _ in range(len(parts) - 1)]
    for k in range(1, len(parts)):
        part = parts[k]
        for t in range(k - 1, 0, -1):
            longer = below[t]
            for value, count in below[t - 1].items():
                joined = math.gcd(value, part)
                longer[joined] = longer.get(joined, 0) + count
        first = below[0]
        for j in range(k):
            entry = math.gcd(parts[j], part)
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

    By trial division by 2 and the odd numbers up to ``_TRIAL_BOUND``.  A
    cofactor above that bound and below psi_13 that :func:`is_prime` accepts
    is the last factor; it is tested before the division starts and after
    each factor is divided out, so a large prime is never trial-divided.
    Any other cofactor left with no divisor up to the bound, one at or above
    psi_13 included, is refused with :class:`BoundExceededError`.
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
        p += 1 if p == 2 else 2
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


def _positive_definite_det(upper: list[list[int]]) -> int:
    # Bareiss with no row exchange over the upper triangle (upper[r] is row r
    # from the diagonal on), three pivots per pass.  Entries are minors, so
    # divisions are exact and stay symmetric; pivots are leading minors,
    # positive on definite input.  By Sylvester's identity every t x t minor
    # of the rows and columns not yet eliminated is divisible by prev^(t-1),
    # where prev is the last leading minor.  So the pivot block
    # P = [[p, q, u], [q, r, v], [u, v, t]] has cofactors c = adj(P) / prev
    # (c22 is the leading minor after p) and d = det(P) / prev^2 is the one
    # after t.  Row i below takes the weights w_i = (a_ik, a_i,k+1, a_i,k+2) c
    # / prev, and each a_ij becomes (d a_ij - w_i . (a_kj, a_k+1,j, a_k+2,j))
    # / prev, so no product is longer than two minors.  One or two rows left
    # at the end need no update: their leading minor is the determinant.
    size = len(upper)
    prev, k = 1, 0
    while k < size:
        lead = upper[k]
        p = lead[0]
        if p <= 0:
            raise ConsistencyError(f"gcd matrix pivot {k + 1} is {p}, expected positive")
        if k + 1 == size:
            return p
        mid = upper[k + 1]
        q, r = lead[1], mid[0]
        c22 = (p * r - q * q) // prev
        if c22 <= 0:
            raise ConsistencyError(f"gcd matrix pivot {k + 2} is {c22}, expected positive")
        if k + 2 == size:
            return c22
        last = upper[k + 2]
        u, v, t = lead[2], mid[1], last[0]
        c00 = (r * t - v * v) // prev
        c01 = (u * v - q * t) // prev
        c02 = (q * v - r * u) // prev
        c11 = (p * t - u * u) // prev
        c12 = (q * u - p * v) // prev
        d = (p * c00 + q * c01 + u * c02) // prev
        if d <= 0:
            raise ConsistencyError(f"gcd matrix pivot {k + 3} is {d}, expected positive")
        for i in range(3, size - k):
            x, y, z = lead[i], mid[i - 1], last[i - 2]
            w0 = (x * c00 + y * c01 + z * c02) // prev
            w1 = (x * c01 + y * c11 + z * c12) // prev
            w2 = (x * c02 + y * c12 + z * c22) // prev
            rows = zip(upper[k + i], lead[i:], mid[i - 1 :], last[i - 2 :])
            upper[k + i] = [(d * a - w0 * e - w1 * f - w2 * g) // prev for a, e, f, g in rows]
        prev, k = d, k + 3
    return prev


class DetBounds(Record):
    """Exact determinant of the gcd matrix with the totient/product bounds.

    The bounds (and positivity) are only asserted when the parts are pairwise
    distinct; ``distinct`` records that.  Distinct parts make the matrix
    positive definite (Smith 1875: G = D diag(phi) D^T, where the 0/1 matrix
    D of parts against their divisors has independent rows), so no leading
    minor is zero and the elimination needs no pivot search.  The upper
    bound subtracts floor(s!/2), which for a single part is 0, so the part
    itself is the bound.  Parts with a private factor share one row of the
    elimination per shared part, through a closed form that
    :func:`gcd_matrix_det_and_bounds` states.
    """

    determinant: int
    lower: int
    upper: int
    distinct: bool


def gcd_matrix_det_and_bounds(lam: Partition) -> DetBounds:
    """Determinant of the gcd matrix, plus bounds.

    Repeated parts give two equal rows, so 0 with no elimination.  For
    distinct parts, let u(a) be the largest divisor of a part a coprime to
    every other part and rho = a / u(a), so gcd(a, b) = gcd(rho, b) for
    every other part b.  A part with u = 1 keeps its own row.  The parts a_j
    with u > 1 and one rho, with d_j = a_j - rho, P = prod d_j and
    E = sum_j prod_{l != j} d_l, become one row: E_i E_j gcd(rho_i, rho_j)
    against another such row, E_i gcd(rho_i, b) against an own row b, and
    E_i (rho_i E_i + P_i) on the diagonal.  That matrix is
    L (G' + diag(P_i / E_i)) L, with G' the gcd matrix of the own parts and
    the rho_i and L = diag(E_i), so it is positive definite; eliminated in
    increasing order of the diagonal, with no pivot search, it gives
    det G prod E_i (by the Schur complement of each group's block
    rho J + diag(d_j)).  A group of one part is that part's own row, and
    the group of rho = 1 holds the parts coprime to every other part.
    Distinct parts whose upper bound Python cannot write in decimal (it has
    more digits than ``sys.get_int_max_str_digits()``, where 0 means no
    limit) are refused with :class:`BoundExceededError` after the factoring
    and before the elimination, which on so many small parts takes minutes.
    """
    # Factoring for the lower bound comes first: a part that cannot be
    # factored is refused before the elimination is paid for.  The product
    # of the parts, for the upper bound, also finds the private factors: a
    # prime of a divides another distinct part when it divides product / a.
    # d_product and e are a group's P and E; border is the product of the E.
    parts = set(lam.parts)
    lower = math.prod(euler_phi(p) ** lam.parts.count(p) for p in parts)
    distinct = len(parts) == lam.s
    product = math.prod(lam.parts)
    upper = product - math.factorial(lam.s) // 2
    det = 0
    if distinct:
        refuse_unprintable(upper)
        rows, groups, border = [], {}, 1
        for a in parts:
            private, shared = a, math.gcd(a, product // a)
            while shared > 1:
                private //= shared
                shared = math.gcd(private, shared)
            if private == 1:
                rows.append((a, a, 1))
            else:
                rho = a // private
                d_product, e = groups.get(rho, (1, 0))
                groups[rho] = d_product * (a - rho), e * (a - rho) + d_product
        for rho, (d_product, e) in groups.items():
            rows.append((e * (rho * e + d_product), rho, e))
            border *= e
        rows.sort()
        gcds = [
            [diag, *[e * f * math.gcd(v, w) for _, w, f in rows[i + 1 :]]]
            for i, (diag, v, e) in enumerate(rows)
        ]
        det, remainder = divmod(_positive_definite_det(gcds), border)
        if remainder:
            raise ConsistencyError(
                f"bordered gcd matrix determinant leaves {remainder} mod its border {border}"
            )
    return DetBounds(determinant=det, lower=lower, upper=upper, distinct=distinct)
