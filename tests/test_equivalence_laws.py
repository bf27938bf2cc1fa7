"""Laws governing the equivalence relation under partition surgery:
scaling, appending a part, concatenation, and gcd-multiset sufficiency."""

import itertools
import math
import random

from partinv import (
    Partition,
    classify,
    concat,
    enumerate_partitions,
    equivalent,
    scale,
)
from util import upper_gcds


def _first_prime_above(n):
    candidate = n + 1
    while any(candidate % d == 0 for d in range(2, int(candidate**0.5) + 1)):
        candidate += 1
    return candidate


def _classified_pairs(n_max, rng=None, per_shape=None):
    """(lam, mu, same_class) samples drawn from classifications."""
    for n in range(2, n_max + 1):
        for s in range(1, n + 1):
            grouped = classify(s, n)
            class_of = dict(zip(grouped.parts, grouped.class_ids))
            pool = list(enumerate_partitions(s, n))
            pairs = list(itertools.combinations(pool, 2))
            if rng is not None and per_shape is not None and len(pairs) > per_shape:
                pairs = rng.sample(pairs, per_shape)
            for lam, mu in pairs:
                yield lam, mu, class_of[lam.parts] == class_of[mu.parts]


class TestScaling:
    def test_equivalence_transfers_both_ways(self):
        rng = random.Random(101)
        for lam, mu, same in _classified_pairs(12, rng, per_shape=20):
            for d in (2, 3, 4):
                assert equivalent(scale(d, lam), scale(d, mu)) == same


class TestAppendPart:
    def test_unit_part_preserves_verdict(self):
        rng = random.Random(102)
        one = Partition((1,))
        for lam, mu, same in _classified_pairs(12, rng, per_shape=20):
            assert equivalent(concat(lam, one), concat(mu, one)) == same

    def test_coprime_part_preserves_verdict(self):
        # m coprime to every part makes both gcd multisets all ones, so the
        # appended pair must carry exactly the original verdict.
        rng = random.Random(103)
        for lam, mu, same in _classified_pairs(12, rng, per_shape=20):
            m = _first_prime_above(max(lam.n, mu.n))
            extra = Partition((m,))
            assert equivalent(concat(lam, extra), concat(mu, extra)) == same

    def test_matching_gcd_multisets_preserve_verdict(self):
        # the general hypothesis: equal multisets {gcd(part, m)}
        rng = random.Random(104)
        for lam, mu, same in _classified_pairs(11, rng, per_shape=12):
            for m in range(1, 13):
                left = sorted(math.gcd(p, m) for p in lam.parts)
                right = sorted(math.gcd(p, m) for p in mu.parts)
                if left != right:
                    continue
                extra = Partition((m,))
                assert equivalent(concat(lam, extra), concat(mu, extra)) == same


class TestConcatenation:
    def test_coprime_cross_parts(self):
        # lam ~ mu, gamma ~ delta, every cross gcd 1 => concatenations agree
        pairs = []
        for s, n in [(2, 5), (2, 7), (2, 9), (3, 11), (2, 12), (3, 13)]:
            if n > 13:
                continue
            for members in classify(s, n).member_parts():
                pairs.extend(itertools.combinations(map(Partition, members), 2))
        checked = 0
        for (lam, mu), (gamma, delta) in itertools.combinations(pairs, 2):
            cross_parts = [
                (a, b)
                for a in lam.parts + mu.parts
                for b in gamma.parts + delta.parts
            ]
            if any(math.gcd(a, b) != 1 for a, b in cross_parts):
                continue
            checked += 1
            assert equivalent(concat(lam, gamma), concat(mu, delta))
            # constant cross-gcd 3 via scaling both sides
            assert equivalent(
                concat(scale(3, lam), scale(3, gamma)),
                concat(scale(3, mu), scale(3, delta)),
            )
        assert checked > 0


class TestMultisetSufficiency:
    def test_exhaustive(self):
        for n in range(2, 19):
            for s in range(2, n + 1):
                by_multiset = {}
                for lam in enumerate_partitions(s, n):
                    key = tuple(upper_gcds(lam))
                    by_multiset.setdefault(key, []).append(lam)
                for members in by_multiset.values():
                    for lam, mu in itertools.combinations(members, 2):
                        assert equivalent(lam, mu), (lam, mu)

    def test_converse_fails_on_documented_witness(self):
        lam = Partition((12, 4, 3, 1))
        mu = Partition((10, 5, 3, 2))
        assert equivalent(lam, mu)
        left = upper_gcds(lam)
        right = upper_gcds(mu)
        assert left == [1, 1, 1, 1, 3, 4]
        assert right == [1, 1, 1, 1, 2, 5]
        assert left != right


class TestCoprimeCollapse:
    def test_within_fixed_shape(self):
        for n in range(2, 17):
            for s in range(2, n + 1):
                coprime = [
                    lam
                    for lam in enumerate_partitions(s, n)
                    if all(
                        math.gcd(a, b) == 1
                        for a, b in itertools.combinations(lam.parts, 2)
                    )
                ]
                for lam, mu in itertools.combinations(coprime, 2):
                    assert equivalent(lam, mu)
