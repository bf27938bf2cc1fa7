"""Acceptance gate: one test per criterion, every comparison exact.

Each criterion prints a single ``ACCEPTANCE k: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output); a FAIL line is always
followed by the raising assertion.
"""

import functools
import itertools
import math
import time

from partinv import (
    FieldSpec,
    Partition,
    PartitionPolynomial,
    classify,
    count_partitions,
    enumerate_partitions,
    epsilon,
    equivalent,
    gcd_matrix_det_and_bounds,
    isomorphic,
    morita_equivalent,
    self_equivalent,
    wedderburn,
)
from partinv.oracles import (
    check_append_part,
    check_block_sum_rules,
    check_commutant_dimension,
    check_concat_classes,
    check_g_vector_vs_brute,
    check_h_vector_vs_roots,
    check_inclusion_exclusion,
    check_orbit_count_vs_gcd_sum,
    check_power_norm_vs_g,
    check_scaling_invariance,
    _sweep,
)
from util import upper_gcds


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            elapsed = time.perf_counter() - start
            print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed * 1000:.1f} ms)")

        return wrapper

    return decorate


def _passed(family_result, instances):
    assert family_result.passed, (
        family_result.family,
        family_result.failures[:3],
    )
    assert family_result.instances == instances, family_result.family


@criterion(1, "equivalence chain and non-equivalence in P(3,11)")
def test_criterion_1_equivalence_chain():
    chain = [Partition(p) for p in [(8, 2, 1), (7, 2, 2), (6, 4, 1), (5, 4, 2)]]
    for lam, mu in itertools.combinations(chain, 2):
        assert equivalent(lam, mu)
    assert not equivalent(Partition((8, 2, 1)), Partition((6, 3, 2)))


@criterion(2, "polynomial fixtures and closed forms")
def test_criterion_2_polynomial_fixtures():
    want = PartitionPolynomial((4, -3, 1))
    assert epsilon(Partition((4, 2, 2))) == want
    assert epsilon(Partition((2, 1, 1))) == want
    assert str(want) == "x^2 - 3x + 4"
    for n in range(1, 21):
        assert epsilon(Partition((n,))) == PartitionPolynomial((1,))
    assert epsilon(Partition((4, 4, 1))) == PartitionPolynomial((9, -6, 1))  # (x-3)^2
    for n in range(1, 11):
        got = epsilon(Partition((1,) * n)).coefficients
        want_all_ones = tuple(
            (-1) ** (n - 1 - i) * math.comb(n, i + 1) for i in range(n)
        )
        assert got == want_all_ones
    for n in range(2, 11):
        for m in range(1, n):
            got = epsilon(Partition((m,) + (1,) * (n - m))).coefficients
            width = n - m
            want_hook = [(-1) ** width * n] + [
                (-1) ** (width - i) * math.comb(n - m + 1, i + 1)
                for i in range(1, width + 1)
            ]
            assert got == tuple(want_hook)


@criterion(3, "isomorphism and Morita decisions")
def test_criterion_3_algebra_decisions():
    field = FieldSpec()
    assert isomorphic(Partition((4, 1)), Partition((3, 2)), field)
    shape = wedderburn(Partition((4, 1)), field)
    assert shape.as_dict() == {1: 3, 2: 1}
    assert isomorphic(Partition((17, 11, 8, 2)), Partition((17, 11, 6, 4)), field)
    assert not isomorphic(Partition((4, 2, 2)), Partition((2, 1, 1)), field)
    morita = morita_equivalent(Partition((4, 1)), Partition((4,)), field)
    assert morita.equivalent
    assert morita.signed_values == (-4, 4)


@criterion(4, "exhaustive oracle agreement (subset sums, roots, orbits, nullity)")
def test_criterion_4_oracle_agreement():
    # (family, bound, instances): the counts are those of the exhaustive sweeps.
    plan = (
        (check_g_vector_vs_brute, 25, 9295),
        (check_power_norm_vs_g, 25, 62702),
        (check_h_vector_vs_roots, 30, 28628),
        (check_inclusion_exclusion, 30, 28628),
        (check_block_sum_rules, 30, 28628),
        (check_orbit_count_vs_gcd_sum, 10, 138),
        (check_commutant_dimension, 12, 271),
    )
    results = _sweep([(family, bound) for family, bound, _ in plan])
    for result, (_, _, instances) in zip(results, plan, strict=True):
        _passed(result, instances)


@criterion(5, "surgery laws and coprime-parts decisions")
def test_criterion_5_surgery_laws():
    scaling, append, concat = _sweep(
        [(check_scaling_invariance, 20), (check_append_part, 12), (check_concat_classes, 10)]
    )
    _passed(scaling, 8139)
    _passed(append, 505)
    _passed(concat, 80)

    # equal off-diagonal gcd multisets force equivalence, exhaustively
    for n in range(2, 19):
        for s in range(2, n + 1):
            by_multiset = {}
            for lam in enumerate_partitions(s, n):
                key = tuple(upper_gcds(lam))
                by_multiset.setdefault(key, []).append(lam)
            for members in by_multiset.values():
                for lam, mu in itertools.combinations(members, 2):
                    assert equivalent(lam, mu)
    # ... but not conversely
    witness_l, witness_r = Partition((12, 4, 3, 1)), Partition((10, 5, 3, 2))
    assert equivalent(witness_l, witness_r)
    assert upper_gcds(witness_l) != upper_gcds(witness_r)

    # pairwise-coprime parts: isomorphic iff same degree and part count,
    # Morita equivalent iff same degree minus part count
    field = FieldSpec()
    coprime = []
    for n in range(1, 15):
        for s in range(1, n + 1):
            for lam in enumerate_partitions(s, n):
                if all(
                    math.gcd(a, b) == 1
                    for a, b in itertools.combinations(lam.parts, 2)
                ):
                    coprime.append(lam)
    polys = {lam: epsilon(lam) for lam in coprime}
    blocks = {
        lam: morita_equivalent(lam, lam, field).blocks[0] for lam in coprime
    }
    for lam in coprime:
        for mu in coprime:
            iso = lam.n == mu.n and polys[lam] == polys[mu]
            assert iso == (lam.n == mu.n and lam.s == mu.s), (lam, mu)
            assert (blocks[lam] == blocks[mu]) == (lam.n - lam.s == mu.n - mu.s)


@criterion(6, "counting agreement and classification fixtures")
def test_criterion_6_counting():
    for n in range(1, 41):
        for s in range(1, n + 1):
            # enumeration is an independent count of the same table
            assert count_partitions(s, n) == sum(
                1 for _ in enumerate_partitions(s, n)
            )
    grouped = classify(3, 11)
    assert grouped.i == 5
    assert sorted(map(len, grouped.member_parts()), reverse=True) == [4, 2, 2, 1, 1]
    singles = self_equivalent(3, 9)
    assert singles == [(4, 4, 1), (3, 3, 3)]
    assert (5, 2, 2) not in singles


@criterion(7, "gcd-matrix determinant bounds for distinct parts")
def test_criterion_7_determinant_bounds():
    seen = 0
    for n in range(1, 21):
        for s in range(1, n + 1):
            for lam in enumerate_partitions(s, n):
                result = gcd_matrix_det_and_bounds(lam)
                if not result.distinct:
                    continue
                seen += 1
                assert result.determinant > 0, lam
                assert result.lower <= result.determinant <= result.upper, lam
    assert seen > 0
