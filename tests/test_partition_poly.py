import math

import pytest

import partinv.partitions
from partinv import (
    FieldSpec,
    Partition,
    PartitionPolynomial,
    dimension,
    distinct_eigenvalue_count,
    epsilon,
    equivalent,
    g_vector,
    h_vector,
    morita_equivalent,
    root_union,
    scale,
    wedderburn,
)
from partinv.cli import main
from util import all_partitions


class TestEpsilon:
    def test_shared_polynomial_across_totals(self):
        want = PartitionPolynomial((4, -3, 1))  # x^2 - 3x + 4
        assert epsilon(Partition((4, 2, 2))) == want
        assert epsilon(Partition((2, 1, 1))) == want

    def test_single_part_is_constant_one(self):
        for n in range(1, 21):
            assert epsilon(Partition((n,))).coefficients == (1,)

    def test_perfect_square(self):
        assert epsilon(Partition((4, 4, 1))).coefficients == (9, -6, 1)

    def test_monic_alternating_with_coefficient_floor(self):
        for lam in all_partitions(16):
            coeffs = epsilon(lam).coefficients
            s = lam.s
            assert coeffs[-1] == 1
            for i, c in enumerate(coeffs):
                expected_sign = -1 if (s - 1 - i) % 2 else 1
                assert c * expected_sign > 0
                assert abs(c) >= math.comb(s, i + 1)

    def test_all_unit_parts_closed_form(self):
        for n in range(1, 11):
            got = epsilon(Partition((1,) * n)).coefficients
            want = tuple(
                (-1) ** (n - 1 - i) * math.comb(n, i + 1) for i in range(n)
            )
            assert got == want

    def test_hook_closed_form(self):
        # one part m, then all ones: coefficients C(n-m+1, i+1) with signs,
        # constant term (+/-) n
        for n in range(2, 11):
            for m in range(1, n):
                lam = Partition((m,) + (1,) * (n - m))
                got = epsilon(lam).coefficients
                width = n - m
                want = [(-1) ** width * n]
                for i in range(1, width + 1):
                    want.append((-1) ** (width - i) * math.comb(n - m + 1, i + 1))
                assert got == tuple(want), lam


class TestRendering:
    @pytest.mark.parametrize(
        "parts,text",
        [
            ((8, 2, 1), "x^2 - 4x + 11"),
            ((4, 2, 2), "x^2 - 3x + 4"),
            ((4, 4, 1), "x^2 - 6x + 9"),
            ((4, 1), "x - 5"),
            ((9,), "1"),
        ],
    )
    def test_text(self, parts, text):
        assert str(epsilon(Partition(parts))) == text

    # No partition polynomial has a zero coefficient, so these are built by
    # hand: a zero term is left out, and a zero polynomial reads 0.
    @pytest.mark.parametrize(
        "coefficients,text",
        [((1, 0, 1), "x^2 + 1"), ((0, -1, 0, 1), "x^3 - x"), ((5, 0), "5"), ((0, 0), "0")],
    )
    def test_zero_coefficients_are_left_out(self, coefficients, text):
        assert str(PartitionPolynomial(coefficients)) == text


class TestEvaluation:
    def test_at_one(self):
        assert epsilon(Partition((4, 1)))(1) == -4

    def test_constant(self):
        p = epsilon(Partition((12,)))
        assert all(p(x) == 1 for x in (-5, 0, 1, 7))

    def test_square_at_one(self):
        assert epsilon(Partition((4, 4, 1)))(1) == 4

    def test_horner_matches_naive(self):
        p = PartitionPolynomial((4, -3, 1))
        for x in range(-6, 7):
            assert p(x) == 4 - 3 * x + x * x


class TestEquivalence:
    def test_chain_in_three_part_eleven(self):
        chain = [Partition(p) for p in [(8, 2, 1), (7, 2, 2), (6, 4, 1), (5, 4, 2)]]
        for lam in chain:
            for mu in chain:
                assert equivalent(lam, mu)
        assert not equivalent(chain[0], Partition((6, 3, 2)))

    def test_removing_shared_part_can_break_equivalence(self):
        assert equivalent(Partition((12, 4, 3, 1)), Partition((10, 5, 3, 2)))
        assert not equivalent(Partition((12, 4, 1)), Partition((10, 5, 2)))

    def test_different_part_counts_never_equivalent(self):
        assert not equivalent(Partition((4, 1)), Partition((5,)))

    def test_cross_total_equivalence_is_possible(self):
        assert equivalent(Partition((4, 2, 2)), Partition((2, 1, 1)))

    def test_matches_g_vector_equality_within_fixed_shape(self):
        from partinv import enumerate_partitions

        for n in range(2, 13):
            for s in range(1, n + 1):
                pool = list(enumerate_partitions(s, n))
                for i, lam in enumerate(pool):
                    for mu in pool[i + 1 :]:
                        same_g = g_vector(lam).values == g_vector(mu).values
                        assert equivalent(lam, mu) == same_g

    def test_scaling_preserves_polynomials(self):
        for lam in all_partitions(20):
            base = epsilon(lam)
            for d in range(2, 5):
                assert epsilon(scale(d, lam)) == base

    def test_two_part_prime_collapse(self):
        from partinv import enumerate_partitions

        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            polys = {epsilon(lam) for lam in enumerate_partitions(2, p)}
            assert polys == {PartitionPolynomial((-p, 1))}


class TestInvariantsRecord:
    # A partition keeps its own h, g and polynomial: derived on first read,
    # never fields, so they take no part in equality, hash, order or repr.

    def test_closure_h_is_the_inclusion_exclusion_of_g(self):
        for lam in all_partitions(18):
            assert lam.g is g_vector(lam)
            assert lam.h == h_vector(lam.g)
            assert lam.polynomial is epsilon(lam)

    def test_the_record_stores_h_and_derives_the_rest_once(self):
        assert Partition._fields == ("parts",)
        lam = Partition((8, 2, 1))
        assert lam.h is lam.h
        assert lam.g is lam.g
        assert lam.polynomial is lam.polynomial
        fresh = Partition((8, 2, 1))
        assert fresh == lam and hash(fresh) == hash(lam)
        assert not fresh < lam and not lam < fresh
        assert repr(lam) == repr(fresh) == "Partition(parts=(8, 2, 1))"

    def test_h_only_readers_build_no_g(self, monkeypatch, capsys):
        def unbuilt(h):
            raise AssertionError(f"g derived from h={h}")

        monkeypatch.setattr(partinv.partitions, "_g_from_h", unbuilt)
        lam, field = Partition((4, 1)), FieldSpec()
        assert dimension(lam) == 7
        assert wedderburn(lam, field).describe() == "R^3 x M_2(R)"
        assert morita_equivalent(lam, Partition((4,)), field).equivalent
        assert distinct_eigenvalue_count(lam) == 4
        assert main(["morita", "4,1", "4"]) == 0
        out = capsys.readouterr().out
        assert "simple blocks: 4 vs 4" in out
        assert "signed values: -4 vs 4" in out
        assert "morita: yes" in out


class TestEigenvalueCount:
    @pytest.mark.parametrize("parts,count", [((4, 1), 4), ((9,), 9), ((4, 2), 4)])
    def test_fixtures(self, parts, count):
        assert distinct_eigenvalue_count(Partition(parts)) == count

    def test_matches_h_sum_and_root_union(self):
        for lam in all_partitions(15):
            counted = distinct_eigenvalue_count(lam)
            assert counted == sum(h_vector(g_vector(lam)).values)
            assert counted == len(root_union(lam))
