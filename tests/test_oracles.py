import functools
import importlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partinv import (
    BoundExceededError,
    InputError,
    Partition,
    Permutation,
    brute_g,
    canonical_permutation,
    commutant_dimension,
    distinct_eigenvalue_count,
    eigenvalue_multiplicities,
    g_vector,
    gcd_matrix,
    h_vector,
    root_union,
    scale,
    verify_all,
)
import partinv.oracles
import partinv.partitions
from partinv.gcd_symm import DetBounds, _closure_h
from partinv.oracles import (
    Failure,
    ReducedFraction,
    _exact_rank,
    _multiset_g,
)
from util import all_partitions, cycle_type, permutation


class TestReducedFractions:
    def test_canonical_form(self):
        from partinv.oracles import root_fraction

        assert root_fraction(2, 4) == ReducedFraction(1, 2)
        assert root_fraction(4, 4) == ReducedFraction(0, 1)
        assert root_fraction(5, 4) == ReducedFraction(1, 4)

    def test_union_example(self):
        got = root_union(Partition((4, 2)))
        want = {
            ReducedFraction(0, 1),
            ReducedFraction(1, 4),
            ReducedFraction(1, 2),
            ReducedFraction(3, 4),
        }
        assert got == want

    def test_matches_stdlib_fractions(self):
        for lam in all_partitions(10):
            got = {Fraction(k, l) for k, l in root_union(lam)}
            want = {
                Fraction(k, part) for part in lam.parts for k in range(part)
            }
            assert got == want

    def test_repeated_parts_add_no_roots(self):
        for lam in all_partitions(14):
            assert root_union(lam) == root_union(Partition.of(*set(lam.parts)))


class TestEigenvalueMultiplicities:
    @pytest.mark.parametrize(
        "parts,h", [((4, 2), (2, 2)), ((9,), (9,)), ((2, 2), (0, 2))]
    )
    def test_fixtures(self, parts, h):
        lam = Partition(parts)
        assert eigenvalue_multiplicities(lam, root_union(lam)) == h

    def test_matches_inclusion_exclusion(self):
        for lam in all_partitions(14):
            assert eigenvalue_multiplicities(lam, root_union(lam)) == h_vector(g_vector(lam))

    def test_union_size_matches_eigenvalue_count(self):
        for lam in all_partitions(14):
            assert len(root_union(lam)) == distinct_eigenvalue_count(lam)

    def test_matches_the_closure_kernel(self):
        for lam in all_partitions(16):
            assert _closure_h(lam.parts) == eigenvalue_multiplicities(lam, root_union(lam))


class TestBruteG:
    @pytest.mark.parametrize(
        "parts,i,value", [((8, 2, 1), 2, 4), ((9,), 1, 9), ((12, 4, 3, 1), 3, 4)]
    )
    def test_fixtures(self, parts, i, value):
        assert brute_g(Partition(parts), i) == value

    def test_range_check(self):
        with pytest.raises(InputError):
            brute_g(Partition((3, 2)), 0)
        with pytest.raises(InputError):
            brute_g(Partition((3, 2)), 3)

    def test_agrees_with_g_vector(self):
        for lam in all_partitions(13):
            g = g_vector(lam)
            for i in range(1, lam.s + 1):
                assert brute_g(lam, i) == g[i - 1]


# Up to 12 parts drawn from a pool of at most 4 values, so most multisets
# repeat some value many times.
_high_multiplicity_multisets = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=4
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))


class TestMultisetG:
    """The sub-multiset oracle that the g family uses, pinned to the literal
    index-subset definition."""

    @pytest.mark.parametrize(
        "parts,g",
        [
            ((8, 2, 1), (11, 4, 1)),
            ((1,) * 20, tuple(math.comb(20, i) for i in range(1, 21))),
            ((6, 6, 4, 4, 4), (24, 30, 22, 10, 2)),
        ],
    )
    def test_fixtures(self, parts, g):
        assert _multiset_g(Partition(parts)) == g

    def test_agrees_with_brute_g(self):
        for lam in all_partitions(18):
            assert _multiset_g(lam) == tuple(brute_g(lam, i) for i in range(1, lam.s + 1))

    @given(_high_multiplicity_multisets)
    def test_agrees_with_brute_g_on_repeated_values(self, parts):
        lam = Partition.of(*parts)
        assert _multiset_g(lam) == tuple(brute_g(lam, i) for i in range(1, lam.s + 1))


class TestCommutant:
    def test_three_cycle(self):
        assert commutant_dimension(permutation(3, (1, 2, 3))) == 3

    def test_identity(self):
        assert commutant_dimension(permutation(2)) == 4

    def test_transposition_with_fixed_point(self):
        assert commutant_dimension(permutation(3, (1, 2))) == 5

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            commutant_dimension(permutation(17))
        assert commutant_dimension(permutation(13)) == 169

    def test_matches_gcd_total_over_cycle_types(self):
        for lam in all_partitions(8):
            sigma = canonical_permutation(lam)
            assert commutant_dimension(sigma) == sum(map(sum, gcd_matrix(lam)))

    def test_matches_gcd_total_on_every_small_permutation(self):
        sigmas = [
            Permutation(images)
            for n in range(1, 7)
            for images in itertools.permutations(range(1, n + 1))
        ]
        assert len(sigmas) == 873
        for sigma in sigmas:
            assert commutant_dimension(sigma) == sum(map(sum, gcd_matrix(cycle_type(sigma))))


def _sparse(rows):
    return [{col: v for col, v in enumerate(row) if v} for row in rows]


class TestExactRank:
    def _rank_by_fractions(self, rows):
        m = [[Fraction(v) for v in row] for row in rows]
        rank = 0
        for col in range(len(m[0]) if m else 0):
            pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            lead = m[rank]
            for r in range(rank + 1, len(m)):
                if m[r][col]:
                    f = m[r][col] / lead[col]
                    m[r] = [a - f * b for a, b in zip(m[r], lead)]
            rank += 1
        return rank

    def test_random_matrices(self):
        rng = random.Random(42)
        for _ in range(300):
            n_rows = rng.randint(1, 7)
            n_cols = rng.randint(1, 7)
            rows = [
                [rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)
            ]
            want = self._rank_by_fractions([row[:] for row in rows])
            assert _exact_rank(_sparse(rows)) == want, rows

    def test_rank_deficient_structures(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 2, 4]]
        assert _exact_rank(_sparse(rows)) == 2


_EQ, _NE = "equivalent", "inequivalent"


class TestVerifyAll:
    def test_small_sweep_passes(self):
        report = verify_all(6)
        assert report.passed
        assert len(report.families) >= 8
        assert all(f.instances > 0 for f in report.families)

    def test_family_table(self):
        report = verify_all(12)
        assert report.passed
        assert [(f.family, f.instances) for f in report.families] == [
            ("g-vector vs subset enumeration", 271),
            ("power norm vs g-vector", 940),
            ("h-vector vs root counting", 271),
            ("inclusion-exclusion union size", 271),
            ("orbit count vs gcd sum", 271),
            ("commutant nullity vs gcd sum", 271),
            ("block multiplicity sum rules", 271),
            ("gcd determinant bounds", 69),
            ("scaling invariance", 813),
            ("append-part equivalence", 505),
            ("concatenation of equivalent pairs", 80),
            ("gcd multiset sufficiency", 139),
        ]

    def test_empty_sweep(self):
        report = verify_all(0)
        assert report.passed
        assert all(f.instances == 0 for f in report.families)

    def test_negative_bound_rejected(self):
        with pytest.raises(InputError):
            verify_all(-1)

    def test_bounds_hold_for_library_calls(self):
        with pytest.raises(BoundExceededError):
            verify_all(26)

    def test_fault_injection_is_reported(self, monkeypatch):
        real = partinv.oracles._multiset_g

        def off_by_one_on_4_2(lam):
            g = real(lam)
            return (g[0], g[1] - 1) if lam == Partition((4, 2)) else g

        monkeypatch.setattr(partinv.oracles, "_multiset_g", off_by_one_on_4_2)
        report = verify_all(6)
        assert not report.passed
        failing = [f for f in report.families if not f.passed]
        assert [f.family for f in failing] == ["g-vector vs subset enumeration"]
        assert failing[0].failures[0].input == "4,2"
        assert failing[0].failures[0].expected == "(6, 1)"
        assert failing[0].failures[0].actual == "(6, 2)"

    def test_brute_g_fault_is_reported(self, monkeypatch):
        real = partinv.oracles.brute_g

        def off_by_one_on_4_2(lam, i):
            value = real(lam, i)
            return value - 1 if lam == Partition((4, 2)) and i == 2 else value

        monkeypatch.setattr(partinv.oracles, "brute_g", off_by_one_on_4_2)
        failing = [f for f in verify_all(6).families if not f.passed]
        assert [f.family for f in failing] == ["g-vector vs subset enumeration"]
        assert failing[0].instances == 29
        assert failing[0].failures == (Failure("4,2", "brute_g=(6, 1)", "multiset=(6, 2)"),)

    def test_dimension_fault_is_reported_above_n_12(self, monkeypatch):
        real = partinv.oracles.dimension

        def off_by_one_on_7_6(lam):
            value = real(lam)
            return value + 1 if lam == Partition((7, 6)) else value

        monkeypatch.setattr(partinv.oracles, "dimension", off_by_one_on_7_6)
        failing = [f for f in verify_all(13).families if not f.passed]
        assert [f.family for f in failing] == ["block multiplicity sum rules"]
        assert failing[0].failures == (Failure("7,6", "n=13 dim=15", "sum_ih=13 sum_iih=16"),)

    def test_each_partition_is_enumerated_and_derived_once(self, monkeypatch):
        n_max = 8
        spied = ("enumerate_partitions", "root_union", "gcd_matrix")
        calls = {name: Counter() for name in (*spied, "_closure_h")}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name][args] += 1
                return real(*args, **kwargs)

            return counted

        for name in spied:
            monkeypatch.setattr(partinv.oracles, name, spy(partinv.oracles, name))
        # A partition derives its h-vector, the root of its g and polynomial,
        # from its gcd-closure.
        closure_spy = spy(partinv.partitions, "_closure_h")
        monkeypatch.setattr(partinv.partitions, "_closure_h", closure_spy)

        def no_second_walk(s, n):
            raise AssertionError(f"P({s},{n}) grouped outside the sweep")

        # The pair families take their classes from the sweep's samples.
        monkeypatch.setattr(importlib.import_module("partinv.classify"), "_walk", no_second_walk)
        report = verify_all(n_max)
        assert report.passed

        tables = Counter((s, n) for n in range(1, n_max + 1) for s in range(1, n + 1))
        assert calls["enumerate_partitions"] == tables
        once = Counter((lam,) for lam in all_partitions(n_max))
        assert calls["root_union"] == once
        # One gcd matrix per partition serves the gcd total and the
        # multiset-sufficiency key.
        assert calls["gcd_matrix"] == once
        # Each sample is derived once, and so is each of its three scalings;
        # each instance of the two pair families that build partitions (the
        # appended and the concatenated pairs) derives its two sides.
        derived = calls["_closure_h"]
        scaled = Counter((scale(d, lam).parts,) for (lam,) in once for d in range(2, 5))
        assert not Counter((lam.parts,) for (lam,) in once) + scaled - derived
        built = ("append-part equivalence", "concatenation of equivalent pairs")
        pairs = sum(f.instances for f in report.families if f.family in built)
        assert (len(once), pairs) == (66, 52 + 24)
        assert sum(derived.values()) == 4 * len(once) + 2 * pairs == 416

    @pytest.mark.parametrize(
        "verdict,failing",
        [
            (
                False,
                [
                    ("append-part equivalence", 26, Failure("4,1 ~ 3,2 m=1", _EQ, _NE)),
                    (
                        "concatenation of equivalent pairs",
                        24,
                        Failure("(4,1;7,5) vs (3,2;11,1) d=1", _EQ, _NE),
                    ),
                    ("gcd multiset sufficiency", 13, Failure("4,1 vs 3,2", _EQ, _NE)),
                ],
            ),
            (True, [("append-part equivalence", 26, Failure("3,1 !~ 2,2 m=5", _NE, _EQ))]),
        ],
    )
    def test_equivalence_faults_are_reported(self, monkeypatch, verdict, failing):
        monkeypatch.setattr(partinv.oracles, "equivalent", lambda left, right: verdict)
        failed = [f for f in verify_all(8).families if not f.passed]
        assert [(f.family, len(f.failures), f.failures[0]) for f in failed] == failing
        # Only the append family's inequivalent leg fails on a verdict of True.
        assert all((" !~ " in f.input) == verdict for fam in failed for f in fam.failures)

    def test_determinant_bound_fault_is_reported(self, monkeypatch):
        monkeypatch.setattr(
            partinv.oracles, "gcd_matrix_det_and_bounds", lambda lam: DetBounds(0, 1, 2, True)
        )
        failing = [f for f in verify_all(5).families if not f.passed]
        assert [(f.family, len(f.failures)) for f in failing] == [("gcd determinant bounds", 9)]
        assert failing[0].failures[0] == Failure("1", "1 <= det <= 2", "0")

    @pytest.mark.parametrize("n_max", [0, 1, 8])
    def test_no_family_runs_on_an_empty_table(self, monkeypatch, n_max):
        called, empty = set(), set()

        def spy(family):
            @functools.wraps(family)
            def counted(samples):
                (called if samples else empty).add(family.__name__)
                return family(samples)

            return counted

        names = [name for name in vars(partinv.oracles) if name.startswith("check_")]
        assert len(names) == 12
        for name in names:
            monkeypatch.setattr(partinv.oracles, name, spy(getattr(partinv.oracles, name)))
        assert verify_all(n_max).passed
        assert empty == set()
        assert called == (set(names) if n_max else set())

    def test_reported_h_vector_is_checked(self, monkeypatch):
        real = partinv.partitions._closure_h

        def perturbed_h_on_4_2(parts):
            # 4,2 has h = (2, 2); shifting h_1 by g_s = 2 keeps the derived g a
            # valid g-vector: (6, 2) -> (8, 2).
            return (4, 2) if parts == (4, 2) else real(parts)

        monkeypatch.setattr(partinv.partitions, "_closure_h", perturbed_h_on_4_2)
        failing = [f for f in verify_all(6).families if not f.passed]
        assert "h-vector vs root counting" in [f.family for f in failing]
        family = next(f for f in failing if f.family == "h-vector vs root counting")
        assert [f.input for f in family.failures] == ["4,2"]

    def test_reported_g_vector_is_checked(self, monkeypatch):
        # The g family checks the g a partition reports, the one `analyze`
        # prints, not a second derivation of it.
        real = partinv.partitions._g_from_h

        def perturbed_g_on_h_2_2(h):
            return (8, 2) if h == (2, 2) else real(h)

        monkeypatch.setattr(partinv.partitions, "_g_from_h", perturbed_g_on_h_2_2)
        failing = [f for f in verify_all(6).families if not f.passed]
        assert "g-vector vs subset enumeration" in [f.family for f in failing]
        family = next(f for f in failing if f.family == "g-vector vs subset enumeration")
        assert family.failures == (Failure("4,2", "(6, 2)", "(8, 2)"),)

    def test_json_round_trip(self):
        report = verify_all(4)
        data = report.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert [(f["family"], f["instances"], f["failures"]) for f in data["families"]] == [
            (fam.family, fam.instances, []) for fam in report.families
        ]
        assert data["passed"] is True

    def test_text_rendering(self):
        text = verify_all(3).to_text()
        assert "all checks passed" in text
        assert "g-vector vs subset enumeration" in text
