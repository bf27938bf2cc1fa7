"""Independent brute-force verifiers for every closed-form invariant.

Each oracle recomputes a quantity from its raw definition: subset
enumeration (the g family walks sub-multisets of the parts and, for n <= 12,
checks that walk against :func:`brute_g`, the literal walk over index
subsets), explicit roots of unity as reduced fractions, the nullity of the
actual commutation linear system, all with exact integer arithmetic, never
floating point.  The check families compare these against the closed-form
implementations over exhaustive sweeps and report every mismatch.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator, Sequence

from ._record import Record
from .algebra import Permutation, canonical_permutation, dimension, pair_orbits
from .errors import BoundExceededError, InputError
from .gcd_symm import (
    HVector,
    g_vector,
    gcd_matrix,
    gcd_matrix_det_and_bounds,
    h_vector,
    is_prime,
    power_norm,
)
from .partition_poly import distinct_eigenvalue_count, equivalent
from .partitions import Partition, concat, enumerate_partitions, scale


# verify_all's largest n; commutant_dimension's largest degree.
MAX_VERIFY_N = 25
MAX_MATRIX_CAP = 16


ReducedFraction = namedtuple("ReducedFraction", ["numerator", "denominator"])
ReducedFraction.__doc__ = "k/l in lowest terms with 0 <= k < l; encodes the root e^(2*pi*i*k/l)."


def root_fraction(k: int, l: int) -> ReducedFraction:
    if l < 1:
        raise InputError(f"denominator must be positive, got {l}")
    k %= l
    g = math.gcd(k, l)
    return ReducedFraction(k // g, l // g)


def root_union(lam: Partition) -> set[ReducedFraction]:
    """Every root of unity whose order divides some part, as reduced fractions."""
    union: set[ReducedFraction] = set()
    for part in set(lam.parts):
        for k in range(part):
            union.add(root_fraction(k, part))
    return union


def eigenvalue_multiplicities(lam: Partition, roots: set[ReducedFraction]) -> HVector:
    """h_i by direct counting: how many of ``roots``, the :func:`root_union`
    of ``lam``, lie in exactly i part-groups.

    A reduced k/l is an m-th root of unity iff l divides m*k, which given
    gcd(k, l) = 1 is just l | m.  So every root with denominator l lies in
    the same number of part-groups, counted once per l.  Entirely integer
    arithmetic.
    """
    counts = [0] * (lam.s + 1)
    for l, with_l in Counter(l for _, l in roots).items():
        inside = sum(1 for part in lam.parts if part % l == 0)
        counts[inside] += with_l
    return HVector(tuple(counts[1:]))


def brute_g(lam: Partition, i: int) -> int:
    """Literal enumeration: sum of gcds over all C(s, i) index subsets.

    ``combinations`` walks the index subsets in order (equal parts are kept
    apart by position), so this is the raw definition with no incremental
    shortcut.  The g family checks :func:`_multiset_g`, its oracle for
    g_vector, against it for n <= 12, and the tests do so further.
    """
    if type(i) is not int or not 1 <= i <= lam.s:
        raise InputError(f"subset size {i} outside 1..{lam.s} for {lam}")
    return sum(itertools.starmap(math.gcd, itertools.combinations(lam.parts, i)))


def _multiset_g(lam: Partition) -> tuple[int, ...]:
    """(g_1, ..., g_s) in one walk over the sub-multisets of the parts.

    Over the distinct values v_k with multiplicities m_k, every choice of
    j_k in 0..m_k copies is walked, one value at a time, carrying its gcd
    and size.  Equal parts leave a gcd unchanged, so the choice stands for
    prod C(m_k, j_k) index subsets with that gcd: the subset definition with
    equal subsets merged.  No divisor reasoning is used, and choices with
    equal gcds are never merged.
    """
    choices = [(0, 0, 1)]  # (gcd, size, number of index subsets)
    for value, m in Counter(lam.parts).items():
        choices = [
            (gcd if j == 0 else math.gcd(gcd, value), size + j, weight * math.comb(m, j))
            for gcd, size, weight in choices
            for j in range(m + 1)
        ]
    g = [0] * (lam.s + 1)
    for gcd, size, weight in choices:
        g[size] += weight * gcd
    return tuple(g[1:])


def _commutation_system(sigma: Permutation) -> list[dict[int, int]]:
    # Row for each matrix position (i, j), 0-based: with C the permutation
    # matrix, a 1 at (i, sigma(i)) per row, the entry of X*C - C*X there is
    # X[i][sigma^-1(j)] - X[sigma(i)][j], a sparse linear form
    # {column: coefficient} in the n^2 unknowns X_pq ordered row-major.
    # Where both terms are the same unknown the entry vanishes: no row.
    n = sigma.n
    image = [sigma(i + 1) - 1 for i in range(n)]
    preimage = [0] * n
    for i, j in enumerate(image):
        preimage[j] = i
    return [
        {i * n + preimage[j]: 1, image[i] * n + j: -1}
        for i in range(n)
        for j in range(n)
        if (i, preimage[j]) != (image[i], j)
    ]


def _exact_rank(rows: list[dict[int, int]]) -> int:
    """Rank of sparse integer rows by exact elimination.

    Pivot rows are kept by leading column.  An incoming row is combined with
    the pivot of its leading column as ``a*row - b*pivot``, which cancels
    that column, and divided by the gcd of its entries; this repeats until
    the row vanishes or leads in a column without a pivot, where it becomes
    one.  Every step is an integer combination, so the rank is exact.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            lead = pivots.get(col)
            if lead is None:
                pivots[col] = row
                break
            a, b = lead[col], row[col]
            combined = {k: a * v for k, v in row.items()}
            for k, v in lead.items():
                combined[k] = combined.get(k, 0) - b * v
            divisor = math.gcd(*combined.values())
            row = {k: v // divisor for k, v in combined.items() if v}
    return len(pivots)


def commutant_dimension(sigma: Permutation) -> int:
    """Nullity of the linear system 'X commutes with the permutation matrix'.

    Builds the n^2-by-n^2 integer system X*C = C*X, one sparse row per
    matrix position read off sigma, and eliminates it exactly; the result
    is the rank of the fixed algebra, found without any orbit or gcd
    reasoning.  Degrees above ``MAX_MATRIX_CAP`` are refused with
    :class:`BoundExceededError` to keep the elimination size bounded.
    """
    if sigma.n > MAX_MATRIX_CAP:
        raise BoundExceededError(
            f"degree {sigma.n} exceeds the matrix bound {MAX_MATRIX_CAP}"
        )
    return sigma.n**2 - _exact_rank(_commutation_system(sigma))


# --- check families -------------------------------------------------------


class Failure(Record):
    input: str
    expected: str
    actual: str


class FamilyResult(Record):
    family: str
    instances: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class VerificationReport(Record):
    families: tuple[FamilyResult, ...]

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.families)

    def to_text(self) -> str:
        lines = []
        width = max((len(f.family) for f in self.families), default=0)
        for fam in self.families:
            status = "ok" if fam.passed else f"FAIL ({len(fam.failures)})"
            lines.append(f"{fam.family:<{width}}  {fam.instances:>7} instances  {status}")
            for failure in fam.failures[:5]:
                lines.append(
                    f"    {failure.input}: expected {failure.expected}, got {failure.actual}"
                )
        lines.append("all checks passed" if self.passed else "CHECKS FAILED")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "families": [
                {
                    "family": fam.family,
                    "instances": fam.instances,
                    "failures": [
                        {"input": f.input, "expected": f.expected, "actual": f.actual}
                        for f in fam.failures
                    ],
                }
                for fam in self.families
            ],
        }


class _Sample:
    """One partition of a table, with the values that several families read:
    its root union, its gcd-matrix rows and their total, all built when the
    sample is.  Its h, g and polynomial are kept by the partition itself.
    """

    def __init__(self, lam: Partition) -> None:
        self.lam = lam
        self.roots = root_union(lam)
        self.gcd_rows = gcd_matrix(lam)
        self.gcd_total = sum(map(sum, self.gcd_rows))


Outcome = Failure | None
Outcomes = Iterator[Outcome]


def _family(name: str):
    """Make a check family of a sweep over one table's samples that yields
    one outcome per instance: ``None`` where the instance passes, its
    :class:`Failure` where it fails.  The check carries the family's name
    as ``check.family``."""

    def decorate(sweep: Callable[..., Outcomes]) -> Callable[..., FamilyResult]:
        @functools.wraps(sweep)
        def check(samples: list[_Sample]) -> FamilyResult:
            outcomes = list(sweep(samples))
            failures = tuple(f for f in outcomes if f is not None)
            return FamilyResult(name, len(outcomes), failures)

        check.family = name
        return check

    return decorate


def _compare(lam: Partition, expected, actual) -> Outcome:
    # Formatted only on failure: a sweep passes tens of thousands of instances.
    return None if actual == expected else Failure(str(lam), str(expected), str(actual))


_BRUTE_G_MAX_N = 12


@_family("g-vector vs subset enumeration")
def check_g_vector_vs_brute(samples: list[_Sample]) -> Outcomes:
    """g-vector (from the gcd-closure) against sub-multiset enumeration, and
    for n <= 12 that enumeration against the literal index-subset sums."""
    for lam in (sample.lam for sample in samples):
        multiset = _multiset_g(lam)
        outcome = _compare(lam, multiset, g_vector(lam).values)
        if outcome is None and lam.n <= _BRUTE_G_MAX_N:
            literal = tuple(brute_g(lam, i) for i in range(1, lam.s + 1))
            if literal != multiset:
                outcome = Failure(str(lam), f"brute_g={literal}", f"multiset={multiset}")
        yield outcome


@_family("power norm vs g-vector")
def check_power_norm_vs_g(samples: list[_Sample]) -> Outcomes:
    """Divisor-matrix power norms against the shifted g-vector."""
    for sample in samples:
        lam, g = sample.lam, sample.lam.g
        for i, norm in enumerate(power_norm(lam), start=1):
            yield None if norm == g[i + 1] else Failure(f"{lam} i={i}", str(g[i + 1]), str(norm))


@_family("h-vector vs root counting")
def check_h_vector_vs_roots(samples: list[_Sample]) -> Outcomes:
    """Direct root-of-unity counting against the partition's h-vector, the
    one ``analyze`` reports, and its round trip through its g-vector and
    ``h_vector``."""
    for sample in samples:
        lam = sample.lam
        expected = eigenvalue_multiplicities(lam, sample.roots).values
        reported, transformed = lam.h.values, h_vector(lam.g).values
        yield None if expected == reported == transformed else Failure(
            str(lam), str(expected), f"h={reported} from_g={transformed}"
        )


@_family("inclusion-exclusion union size")
def check_inclusion_exclusion(samples: list[_Sample]) -> Outcomes:
    """|union of root groups| against the eigenvalue count, sum(h_i)."""
    for sample in samples:
        yield _compare(sample.lam, len(sample.roots), distinct_eigenvalue_count(sample.lam))


@_family("orbit count vs gcd sum")
def check_orbit_count_vs_gcd_sum(samples: list[_Sample]) -> Outcomes:
    """Pair-orbit walking against the gcd-matrix total."""
    for sample in samples:
        walked = pair_orbits(canonical_permutation(sample.lam)).count
        yield _compare(sample.lam, sample.gcd_total, walked)


@_family("commutant nullity vs gcd sum")
def check_commutant_dimension(samples: list[_Sample]) -> Outcomes:
    """Exact nullity of the commutation system against the gcd-matrix total."""
    for sample in samples:
        lam = sample.lam
        actual = commutant_dimension(canonical_permutation(lam))
        yield _compare(lam, sample.gcd_total, actual)


@_family("block multiplicity sum rules")
def check_block_sum_rules(samples: list[_Sample]) -> Outcomes:
    """sum(i*h_i) = n, and the dimension, sum(i^2*h_i), = the gcd-matrix total."""
    for sample in samples:
        lam, total = sample.lam, sample.gcd_total
        weighted = sum(i * v for i, v in enumerate(lam.h.values, start=1))
        dim = dimension(lam)
        yield None if (weighted, dim) == (lam.n, total) else Failure(
            str(lam), f"n={lam.n} dim={total}", f"sum_ih={weighted} sum_iih={dim}"
        )


@_family("gcd determinant bounds")
def check_determinant_bounds(samples: list[_Sample]) -> Outcomes:
    """For pairwise distinct parts: totient product <= det <= part product - s!/2."""
    for lam in (sample.lam for sample in samples):
        if len(set(lam.parts)) != lam.s:
            continue
        result = gcd_matrix_det_and_bounds(lam)
        passed = 0 < result.determinant and result.lower <= result.determinant <= result.upper
        yield None if passed else Failure(
            str(lam), f"{result.lower} <= det <= {result.upper}", str(result.determinant)
        )


_SCALE_FACTORS = range(2, 5)


@_family("scaling invariance")
def check_scaling_invariance(samples: list[_Sample]) -> Outcomes:
    """g(d*lam) = d*g(lam) elementwise and identical polynomials, d = 2..4."""
    for sample in samples:
        lam = sample.lam
        for d in _SCALE_FACTORS:
            scaled = scale(d, lam)
            want_g = tuple(d * v for v in lam.g.values)
            got_g = scaled.g.values
            passed = got_g == want_g and scaled.polynomial == lam.polynomial
            yield None if passed else Failure(f"{lam} d={d}", str(want_g), str(got_g))


def _classes(
    samples: list[_Sample], key: Callable[[_Sample], tuple] = lambda sample: sample.lam.g.values
) -> list[list[_Sample]]:
    """One table's samples grouped by ``key``, groups in ascending key order
    and members in enumeration order: by default, by the g-vector, which
    gives the classes of :func:`partinv.classify.classify`, in its order."""
    groups: dict[tuple, list[_Sample]] = {}
    for sample in samples:
        groups.setdefault(key(sample), []).append(sample)
    return [groups[k] for k in sorted(groups)]


@_family("append-part equivalence")
def check_append_part(samples: list[_Sample]) -> Outcomes:
    """Appending a part preserves (non-)equivalence when its gcd pattern matches.

    For every equivalent pair, the appended pair must stay equivalent for
    m = 1 and for an m coprime to every part (both make the gcd multisets
    all ones); inequivalent pairs must stay inequivalent.
    """
    classes = _classes(samples)
    coprime_m = _prime_above(classes[0][0].lam.n)
    for cls in classes:
        for lam, mu in itertools.combinations([x.lam for x in cls], 2):
            for m in (1, coprime_m):
                kept = equivalent(Partition.of(*lam.parts, m), Partition.of(*mu.parts, m))
                yield None if kept else Failure(
                    f"{lam} ~ {mu} m={m}", "equivalent", "inequivalent"
                )
    representatives = [cls[0].lam for cls in classes]
    for lam, mu in itertools.combinations(representatives, 2):
        merged = equivalent(
            Partition.of(*lam.parts, coprime_m), Partition.of(*mu.parts, coprime_m)
        )
        yield Failure(
            f"{lam} !~ {mu} m={coprime_m}", "inequivalent", "equivalent"
        ) if merged else None


def _prime_above(n: int) -> int:
    return next(filter(is_prime, itertools.count(n + 1)))


def _coprime_partner_pair(lam: Partition, mu: Partition) -> tuple[Partition, Partition] | None:
    """An equivalent two-part pair whose parts are coprime to both inputs.

    Any two two-part partitions of the same total whose parts are internally
    coprime share the g-vector (total, 1), so picking two fresh primes and a
    second coprime splitting of their sum gives an equivalent pair with every
    cross-gcd equal to 1.  A number is coprime to every input part exactly
    when it is coprime to their product, so no part is factored.
    """
    product = math.prod(lam.parts + mu.parts)
    fresh = (p for p in filter(is_prime, itertools.count(2)) if product % p)
    p1, p2 = itertools.islice(fresh, 2)
    total = p1 + p2
    gamma = Partition.of(p2, p1)
    for k in range(1, total // 2 + 1):
        a, b = total - k, k
        if (a, b) != gamma.parts and math.gcd(a, b) == 1 and math.gcd(a * b, product) == 1:
            return gamma, Partition((a, b))
    return None


@_family("concatenation of equivalent pairs")
def check_concat_classes(samples: list[_Sample]) -> Outcomes:
    """Concatenating equivalent pairs with constant cross-gcd stays equivalent.

    For each equivalent pair, a partner equivalent pair with fully coprime
    cross parts is constructed (constant cross-gcd 1) and the concatenations
    are compared; the variant scaled by 3 exercises constant cross-gcd 3.
    """
    for cls in _classes(samples):
        for lam, mu in itertools.combinations([x.lam for x in cls], 2):
            partner = _coprime_partner_pair(lam, mu)
            if partner is None:
                continue
            gamma, delta = partner
            for d in (1, 3):
                left = concat(scale(d, lam), scale(d, gamma))
                right = concat(scale(d, mu), scale(d, delta))
                yield None if equivalent(left, right) else Failure(
                    f"({lam};{gamma}) vs ({mu};{delta}) d={d}", "equivalent", "inequivalent"
                )


def _upper_gcds(sample: _Sample) -> tuple[int, ...]:
    """The entries above the gcd matrix's diagonal, sorted: a multiset key."""
    return tuple(sorted(v for i, row in enumerate(sample.gcd_rows) for v in row[i + 1 :]))


@_family("gcd multiset sufficiency")
def check_multiset_sufficiency(samples: list[_Sample]) -> Outcomes:
    """Equal off-diagonal gcd multisets force equivalence."""
    for group in _classes(samples, _upper_gcds):
        for a, b in itertools.combinations(group, 2):
            yield None if equivalent(a.lam, b.lam) else Failure(
                f"{a.lam} vs {b.lam}", "equivalent", "inequivalent"
            )


def _sweep(
    plan: Sequence[tuple[Callable[[list[_Sample]], FamilyResult], int]],
) -> tuple[FamilyResult, ...]:
    """Run each ``(family, bound)`` of ``plan`` on every partition with n <= bound.

    Each table P(s, n) up to the largest bound is enumerated once, and each
    of its partitions is sampled once: its root union and gcd-matrix rows
    (its h, g and polynomial are derived by the partition on first read and
    kept there).  Every family whose bound reaches n then checks the
    table's samples (the pair families take their pairs from the samples
    too), and its results are added up over the tables, starting from no
    instances, so no family is run on an empty table.  Only one table's
    samples are held at a time.  Results are in plan order.
    """
    totals = [FamilyResult(family.family, 0, ()) for family, _ in plan]
    n_max = max((bound for _, bound in plan), default=0)
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            samples = [_Sample(lam) for lam in enumerate_partitions(s, n)]
            for k, (family, bound) in enumerate(plan):
                if n <= bound:
                    table, total = family(samples), totals[k]
                    totals[k] = FamilyResult(
                        total.family,
                        total.instances + table.instances,
                        total.failures + table.failures,
                    )
    return tuple(totals)


def verify_all(n_max: int) -> VerificationReport:
    """Run every check family up to ``n_max``, in one :func:`_sweep`.

    ``n_max`` above ``MAX_VERIFY_N`` is refused with
    :class:`BoundExceededError`, and a negative one with :class:`InputError`,
    before any work.  Each table P(s, n) is enumerated once; each
    partition's root union and gcd-matrix rows are built once, with its
    sample, and its h, g and polynomial once, on first read, and all are
    shared by the twelve families.  So the g and h families check the very
    vectors ``analyze`` reports (the g family also checks its sub-multiset
    oracle against :func:`brute_g` for n <= 12).  The
    permutation families (orbit walking, commutation-system nullity) stop
    at n = 12, and the three pair families, whose instance counts grow
    quadratically, at 12, 10 and 14.  Family order is fixed, so reports are
    deterministic.
    """
    if type(n_max) is not int or n_max < 0:
        raise InputError(f"--nmax must be nonnegative, got {n_max}")
    if n_max > MAX_VERIFY_N:
        raise BoundExceededError(f"--nmax above {MAX_VERIFY_N} is refused")
    families = _sweep(
        (
            (check_g_vector_vs_brute, n_max),
            (check_power_norm_vs_g, n_max),
            (check_h_vector_vs_roots, n_max),
            (check_inclusion_exclusion, n_max),
            (check_orbit_count_vs_gcd_sum, min(n_max, 12)),
            (check_commutant_dimension, min(n_max, 12)),
            (check_block_sum_rules, n_max),
            (check_determinant_bounds, n_max),
            (check_scaling_invariance, n_max),
            (check_append_part, min(n_max, 12)),
            (check_concat_classes, min(n_max, 10)),
            (check_multiset_sufficiency, min(n_max, 14)),
        )
    )
    return VerificationReport(families=families)
